"""Tests for the command-line interface."""

import csv

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["methods"],
            ["datasets", "--scale", "0.1"],
            ["run", "--dataset", "D_Product", "--methods", "MV"],
            ["sweep", "--dataset", "D_PosSent", "--methods", "MV"],
            ["infer", "answers.csv", "--method", "ZC"],
            ["stream", "answers.csv", "--method", "ZC",
             "--chunk-size", "100"],
            ["stream", "answers.csv", "--executor", "process",
             "--shards", "4"],
            ["batch", "--datasets", "D_PosSent", "--methods", "MV",
             "--workers", "2"],
            ["batch", "--methods", "D&S", "--shards", "4",
             "--executor", "process"],
            ["plan-redundancy", "--dataset", "D_PosSent"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_unknown_dataset_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--dataset", "D_Nope"])


class TestCommands:
    def test_methods_lists_all_17(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("MV", "D&S", "GLAD", "Minimax", "LFC_N", "Median"):
            assert name in out

    def test_methods_prints_the_sharded_column(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines()
                      if line.startswith("method"))
        assert header.split()[-1] == "sharded"
        lines = {line.split()[0]: line.split()[-1]
                 for line in out.splitlines()
                 if line and line.split()[0] in ("MV", "CATD", "KOS")}
        # MV cannot shard; CATD and KOS shard, warm-start and
        # delta-refit.
        assert lines == {"MV": "no", "CATD": "yes", "KOS": "yes"}

    def test_capabilities_subcommand_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["capabilities"])

    def test_datasets_prints_table5(self, capsys):
        assert main(["datasets", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "D_Product" in out
        assert "N_Emotion" in out

    def test_run_prints_scores(self, capsys):
        code = main(["run", "--dataset", "D_Product", "--scale", "0.05",
                     "--methods", "MV", "ZC"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MV" in out
        assert "accuracy" in out

    def test_sweep_prints_series(self, capsys):
        code = main(["sweep", "--dataset", "D_PosSent", "--scale", "0.05",
                     "--methods", "MV", "--redundancies", "1", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy vs redundancy" in out

    def test_infer_round_trip(self, tmp_path, capsys):
        path = tmp_path / "answers.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["task", "worker", "answer"])
            for worker in ("w1", "w2", "w3"):
                writer.writerow(["t1", worker, "yes"])
                writer.writerow(["t2", worker, "no"])
        assert main(["infer", str(path), "--method", "MV"]) == 0
        out = capsys.readouterr().out
        assert "t1,yes" in out
        assert "t2,no" in out

    def test_infer_empty_file_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("task,worker,answer\n")
        assert main(["infer", str(path)]) == 1

    def test_stream_replays_in_chunks(self, tmp_path, capsys):
        path = tmp_path / "answers.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["task", "worker", "answer"])
            for task in range(20):
                for worker in ("w1", "w2", "w3"):
                    writer.writerow([f"t{task}", worker,
                                     "yes" if task % 2 else "no"])
        code = main(["stream", str(path), "--method", "D&S",
                     "--chunk-size", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cold refit" in out
        assert "warm refit" in out
        assert "t0,no" in out
        assert "t1,yes" in out

    def test_stream_empty_file_fails(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("task,worker,answer\n")
        assert main(["stream", str(path)]) == 1

    def test_malformed_row_fails_loudly(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t1,w1,yes\nt2,w2\n")
        for command in ("infer", "stream"):
            assert main([command, str(path), "--method", "MV"]) == 1
            assert "malformed row" in capsys.readouterr().err

    def test_stream_unknown_method_fails_loudly(self, tmp_path, capsys):
        path = tmp_path / "answers.csv"
        path.write_text("t1,w1,yes\nt1,w2,no\n")
        assert main(["stream", str(path), "--method", "Bogus"]) == 1
        assert "unknown method: Bogus" in capsys.readouterr().err

    def test_stream_inapplicable_method_fails_loudly(self, tmp_path, capsys):
        path = tmp_path / "answers.csv"
        path.write_text("t1,w1,yes\nt1,w2,no\n")
        assert main(["stream", str(path), "--method", "Mean"]) == 1
        assert "does not support decision-making" in capsys.readouterr().err

    def test_infer_inapplicable_method_fails_loudly(self, tmp_path, capsys):
        path = tmp_path / "answers.csv"
        path.write_text("t1,w1,yes\nt1,w2,no\n")
        assert main(["infer", str(path), "--method", "Mean"]) == 1
        assert "does not support decision-making" in capsys.readouterr().err

    def test_batch_invalid_workers_fails_loudly(self, capsys):
        assert main(["batch", "--datasets", "D_PosSent", "--methods",
                     "MV", "--scale", "0.05", "--workers", "0"]) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_stream_invalid_workers_fails_like_batch(self, tmp_path,
                                                     capsys):
        # stream and batch historically disagreed: stream accepted
        # --workers 0.  Validation is now shared and identical.
        path = tmp_path / "answers.csv"
        path.write_text("t1,w1,yes\nt1,w2,no\n")
        assert main(["stream", str(path), "--method", "MV",
                     "--workers", "0"]) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["stream", "answers.csv", "--shards", "0"],
        ["batch", "--datasets", "D_PosSent", "--shards", "0",
         "--scale", "0.05"],
    ])
    def test_invalid_shards_rejected_uniformly(self, argv, capsys):
        assert main(argv) == 1
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_stream_invalid_chunk_size_rejected(self, tmp_path, capsys):
        path = tmp_path / "answers.csv"
        path.write_text("t1,w1,yes\nt1,w2,no\n")
        assert main(["stream", str(path), "--chunk-size", "0"]) == 1
        assert "--chunk-size must be >= 1" in capsys.readouterr().err

    def test_stream_shards_beyond_task_count_clamped(self, tmp_path,
                                                     capsys):
        # More shards than tasks is not an error: ShardedAnswerSet clamps
        # deterministically and the run succeeds.
        path = tmp_path / "answers.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            for task in ("t1", "t2", "t3"):
                for worker in ("w1", "w2", "w3"):
                    writer.writerow([task, worker,
                                     "yes" if task == "t1" else "no"])
        assert main(["stream", str(path), "--method", "D&S",
                     "--shards", "64"]) == 0
        out = capsys.readouterr().out
        assert "t1,yes" in out
        assert "t3,no" in out

    def test_batch_shards_beyond_task_count_clamped(self, capsys):
        code = main(["batch", "--datasets", "D_PosSent", "--methods",
                     "D&S", "--scale", "0.05", "--workers", "1",
                     "--shards", "100000"])
        assert code == 0
        assert "Batch grid: 1 jobs" in capsys.readouterr().out

    def test_stream_process_executor_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "answers.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            for task in range(12):
                for worker in ("w1", "w2", "w3"):
                    writer.writerow([f"t{task}", worker,
                                     "yes" if task % 2 else "no"])
        code = main(["stream", str(path), "--method", "D&S",
                     "--chunk-size", "12", "--shards", "2",
                     "--workers", "1", "--executor", "process"])
        assert code == 0
        out = capsys.readouterr().out
        assert "warm refit" in out
        assert "t0,no" in out and "t1,yes" in out

    def test_batch_process_executor_end_to_end(self, capsys):
        from repro.engine.runtime import get_runtime_registry

        try:
            code = main(["batch", "--datasets", "D_PosSent", "--methods",
                         "D&S", "ZC", "--scale", "0.05", "--workers", "1",
                         "--shards", "2", "--executor", "process"])
        finally:
            get_runtime_registry().close_all()
        assert code == 0
        out = capsys.readouterr().out
        assert "Batch grid: 2 jobs" in out

    def test_batch_empty_grid_fails_loudly(self, capsys):
        # LFC_N is numeric-only; every selected dataset is categorical.
        assert main(["batch", "--datasets", "D_PosSent", "--methods",
                     "LFC_N", "--scale", "0.05"]) == 1
        assert "no (dataset, method)" in capsys.readouterr().err

    def test_batch_prints_grid(self, capsys):
        code = main(["batch", "--datasets", "D_PosSent", "--methods",
                     "MV", "ZC", "--scale", "0.05", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Batch grid: 2 jobs" in out
        assert "MV" in out and "ZC" in out
        assert "wall time" in out

    def test_batch_unknown_method_fails_loudly(self, capsys):
        assert main(["batch", "--datasets", "D_PosSent", "--methods",
                     "Bogus", "--scale", "0.05"]) == 1
        assert "unknown methods: Bogus" in capsys.readouterr().err

    def test_stream_from_stdin_without_pre_scan(self, monkeypatch, capsys):
        """A declared-schema stdin stream is never pre-scanned: the
        classifier is poisoned and the run must still succeed."""
        import io

        import repro.engine.sources as sources

        monkeypatch.setattr(
            sources, "infer_schema",
            lambda records: pytest.fail("stdin stream must not pre-scan"))
        rows = "".join(f"t{task},w{worker},{'yes' if task % 2 else 'no'}\n"
                       for task in range(10) for worker in range(3))
        monkeypatch.setattr("sys.stdin", io.StringIO(rows))
        code = main(["stream", "--source", "stdin", "--task-type",
                     "decision", "--method", "D&S", "--chunk-size", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cold refit" in out
        assert "warm refit" in out
        assert "t0,no" in out
        assert "t1,yes" in out

    def test_stream_stdin_requires_task_type(self, capsys):
        assert main(["stream", "--source", "stdin"]) == 1
        assert "--task-type" in capsys.readouterr().err

    def test_stream_numeric_task_type(self, monkeypatch, capsys):
        import io

        rows = "t1,w1,2.0\nt1,w2,4.0\nt2,w1,1.5\nt2,w2,2.5\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(rows))
        code = main(["stream", "--source", "stdin", "--task-type",
                     "numeric", "--method", "Mean", "--chunk-size", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "t1,3.0" in out
        assert "t2,2.0" in out

    def test_stream_declared_task_type_skips_csv_pre_scan(
            self, tmp_path, monkeypatch, capsys):
        import repro.engine.sources as sources

        monkeypatch.setattr(
            sources, "infer_schema",
            lambda records: pytest.fail("declared schema must not scan"))
        path = tmp_path / "answers.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            for task in range(8):
                for worker in ("w1", "w2", "w3"):
                    writer.writerow([f"t{task}", worker,
                                     "yes" if task % 2 else "no"])
        code = main(["stream", str(path), "--task-type", "decision",
                     "--method", "D&S", "--chunk-size", "12"])
        assert code == 0
        assert "t0,no" in capsys.readouterr().out

    def test_stream_csv_without_path_fails_loudly(self, capsys):
        assert main(["stream"]) == 1
        assert "CSV path is required" in capsys.readouterr().err

    def test_stream_unified_executor_choices(self, tmp_path, capsys):
        path = tmp_path / "answers.csv"
        path.write_text("t1,w1,yes\nt1,w2,yes\nt2,w1,no\nt2,w2,no\n")
        for executor in ("auto", "serial", "thread"):
            assert main(["stream", str(path), "--method", "MV",
                         "--executor", executor]) == 0
            assert "t1,yes" in capsys.readouterr().out

    def test_plan_redundancy(self, capsys):
        code = main(["plan-redundancy", "--dataset", "D_PosSent",
                     "--scale", "0.05", "--method", "MV",
                     "--repeats", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "saturation redundancy" in out


class TestMethodNames:
    """``run``, ``sweep`` and ``plan-redundancy`` check every method name
    before the first fit, as ``infer``, ``stream`` and ``recover`` do."""

    def test_run_fits_each_method_once(self, monkeypatch, capsys):
        from repro.core.base import TruthInferenceMethod

        fitted = []
        fit = TruthInferenceMethod.fit

        def counting_fit(self, *args, **kwargs):
            fitted.append(self.name)
            return fit(self, *args, **kwargs)

        monkeypatch.setattr(TruthInferenceMethod, "fit", counting_fit)
        assert main(["run", "--dataset", "D_Product", "--scale", "0.05",
                     "--methods", "MV", "ZC"]) == 0
        assert fitted == ["MV", "ZC"]
        assert "accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["run", "--dataset", "D_Product", "--methods", "MV", "Nope"],
         "unknown method: Nope"),
        (["run", "--dataset", "D_Product", "--methods", "LFC_N"],
         "method LFC_N does not support decision-making tasks"),
        (["sweep", "--dataset", "D_PosSent", "--methods", "Nope"],
         "unknown method: Nope"),
        (["plan-redundancy", "--dataset", "D_PosSent", "--method", "Nope"],
         "unknown method: Nope"),
    ], ids=["run-unknown", "run-inapplicable", "sweep-unknown",
            "plan-redundancy-unknown"])
    def test_bad_method_fails_in_one_line(self, argv, message, capsys):
        assert main(argv + ["--scale", "0.05"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"{message} (see `repro methods`)"]
        assert captured.out == ""


class TestTcpSource:
    """``repro stream --source tcp:HOST:PORT`` — the loopback-socket
    spelling of the live line-delimited stream."""

    def _serve(self, rows):
        """A one-connection loopback server feeding ``rows`` as CSV."""
        import socket
        import threading

        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def feed():
            conn, _ = server.accept()
            with conn:
                conn.sendall(("\n".join(rows) + "\n").encode())
            server.close()

        thread = threading.Thread(target=feed, daemon=True)
        thread.start()
        return port, thread

    def _record_dials(self, monkeypatch):
        """The sockets the command dials, collected as they open."""
        from repro.engine.sources import TcpAnswerSource

        dialled = []
        dial = TcpAnswerSource._dial

        def recording_dial(source):
            dialled.append(dial(source))
            return dialled[-1]

        monkeypatch.setattr(TcpAnswerSource, "_dial", recording_dial)
        return dialled

    def test_stream_from_tcp_socket(self, capsys, monkeypatch):
        dialled = self._record_dials(monkeypatch)
        rows = [f"t{i % 7},w{j},{(i + j) % 2}"
                for i in range(21) for j in range(3)]
        port, thread = self._serve(rows)
        code = main(["stream", "--source", f"tcp:127.0.0.1:{port}",
                     "--task-type", "decision", "--method", "MV",
                     "--chunk-size", "16"])
        thread.join(timeout=5)
        assert code == 0
        out = capsys.readouterr().out
        assert "task,inferred_truth" in out
        assert "t0," in out
        assert [sock.fileno() for sock in dialled] == [-1]

    def test_rejected_tcp_stream_closes_its_socket(self, capsys,
                                                   monkeypatch):
        """A method the declared task type rejects is refused after the
        dial; the command still closes the socket it dialled."""
        dialled = self._record_dials(monkeypatch)
        port, thread = self._serve(["t0,w0,1.5", "t0,w1,2.5"])
        code = main(["stream", "--source", f"tcp:127.0.0.1:{port}",
                     "--task-type", "numeric", "--method", "D&S"])
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert code == 1
        assert "D&S" in capsys.readouterr().err
        assert [sock.fileno() for sock in dialled] == [-1]

    def test_tcp_requires_task_type(self, capsys):
        code = main(["stream", "--source", "tcp:127.0.0.1:1",
                     "--method", "MV"])
        assert code == 1
        assert "--task-type" in capsys.readouterr().err

    def test_malformed_tcp_spec_fails_loudly(self, capsys):
        code = main(["stream", "--source", "tcp:nowhere",
                     "--task-type", "decision"])
        assert code == 1
        assert "tcp:HOST:PORT" in capsys.readouterr().err

    def test_unknown_source_fails_loudly(self, capsys):
        code = main(["stream", "--source", "carrier-pigeon",
                     "--task-type", "decision"])
        assert code == 1
        assert "carrier-pigeon" in capsys.readouterr().err

    def test_unreachable_tcp_fails_loudly(self, capsys):
        code = main(["stream", "--source", "tcp:127.0.0.1:1",
                     "--task-type", "decision"])
        assert code == 1
        assert "cannot connect" in capsys.readouterr().err


class TestStreamDeltaFlags:
    def test_stream_delta_refit_verbose(self, tmp_path, capsys):
        path = tmp_path / "answers.csv"
        rows = [f"t{i % 9},w{i % 4},{(i * 3) % 2}" for i in range(120)]
        path.write_text("\n".join(rows) + "\n")
        code = main(["stream", str(path), "--method", "D&S",
                     "--chunk-size", "40", "--shards", "3",
                     "--refit", "delta", "--freeze-tol", "1e-5",
                     "--verify-every", "3", "-v",
                     "--task-type", "decision"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# streaming" in out
        assert "fit:" in out          # -v telemetry lines
        assert "refit" in out


class TestDurableStoreFlags:
    def _write_answers(self, tmp_path, n_tasks=20):
        path = tmp_path / "answers.csv"
        rows = [f"t{i % n_tasks},w{i % 5},{(i * 3) % 2}"
                for i in range(160)]
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_stream_store_then_recover_round_trip(self, tmp_path, capsys):
        path = self._write_answers(tmp_path)
        store = tmp_path / "store"
        code = main(["stream", str(path), "--method", "D&S",
                     "--chunk-size", "50", "--store", str(store),
                     "--snapshot-every", "60"])
        assert code == 0
        stream_out = capsys.readouterr().out
        assert f"# durable store: {store}" in stream_out
        assert (store / "answers.sqlite").is_file()

        assert main(["recover", str(store), "--method", "D&S"]) == 0
        captured = capsys.readouterr()
        assert "recovered 160 answers" in captured.err
        stream_truth = stream_out[stream_out.index("task,inferred_truth"):]
        recover_truth = captured.out[
            captured.out.index("task,inferred_truth"):]
        assert recover_truth.strip() == stream_truth.strip()

    def test_stream_into_used_store_fails_loudly(self, tmp_path, capsys):
        path = self._write_answers(tmp_path)
        store = tmp_path / "store"
        assert main(["stream", str(path), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["stream", str(path), "--store", str(store)]) == 1
        assert "recover" in capsys.readouterr().err

    def test_recover_missing_store_fails_loudly(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "nope")]) == 1
        assert "no answer store" in capsys.readouterr().err

    def test_snapshot_every_requires_store(self, tmp_path, capsys):
        path = self._write_answers(tmp_path)
        assert main(["stream", str(path), "--snapshot-every", "5"]) == 1
        assert "--snapshot-every requires --store" in capsys.readouterr().err

    def test_recover_sharded_delta(self, tmp_path, capsys):
        path = self._write_answers(tmp_path, n_tasks=40)
        store = tmp_path / "store"
        flags = ["--method", "D&S", "--shards", "4", "--refit", "delta"]
        assert main(["stream", str(path), "--chunk-size", "40",
                     "--store", str(store), "--snapshot-every", "60",
                     *flags]) == 0
        capsys.readouterr()
        assert main(["recover", str(store), "-v", *flags]) == 0
        captured = capsys.readouterr()
        assert "refit" in captured.err
        assert "task,inferred_truth" in captured.out

    def test_stream_missing_csv_fails_loudly(self, tmp_path, capsys):
        assert main(["stream", str(tmp_path / "nope.csv")]) == 1
        assert "cannot read answers" in capsys.readouterr().err


class TestMaxBadLinesFlag:
    def test_stdin_stream_skips_bad_lines(self, tmp_path, capsys,
                                          monkeypatch):
        import io
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin",
            io.StringIO("t1,w1,1\nGARBLED\nt1,w2,1\nt2,w1,0\n"))
        code = main(["stream", "--source", "stdin", "--task-type",
                     "decision", "--method", "MV",
                     "--max-bad-lines", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "t1,1" in out
        assert "t2,0" in out

    def test_strict_budget_fails_loudly(self, tmp_path, capsys,
                                        monkeypatch):
        import io
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin", io.StringIO("t1,w1,1\nGARBLED\nt2,w1,0\n"))
        code = main(["stream", "--source", "stdin", "--task-type",
                     "decision", "--max-bad-lines", "0"])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_negative_budget_rejected(self, tmp_path, capsys):
        code = main(["stream", "--source", "stdin", "--task-type",
                     "decision", "--max-bad-lines", "-1"])
        assert code == 1
        assert "--max-bad-lines must be >= 0" in capsys.readouterr().err
