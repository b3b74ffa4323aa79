"""AnswerStore: directory layout, WAL pragmas, format versioning."""

import os

import numpy as np
import pytest

from repro.exceptions import ReproError, StoreError
from repro.store import AnswerStore
from repro.store.log import FORMAT_VERSION


class TestOpen:
    def test_creates_directory_and_database(self, tmp_path):
        path = str(tmp_path / "store")
        with AnswerStore(path) as store:
            assert os.path.isfile(os.path.join(path, "answers.sqlite"))
            assert store.spill_dir == os.path.join(path, "spill")
            mode = store.connection.execute(
                "PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"

    def test_reopen_sees_committed_data(self, tmp_path):
        path = str(tmp_path / "store")
        with AnswerStore(path) as store:
            store.log.write_meta({"format": FORMAT_VERSION})
            index = np.zeros(1, dtype=np.int64)
            store.log.append_batch(index, index, index, [0],
                                   (["t1"], ["w1"], [1]), version=1)
        with AnswerStore(path) as store:
            assert len(store.log) == 1
            assert store.log.read_meta()["format"] == FORMAT_VERSION

    def test_future_format_refused(self, tmp_path):
        path = str(tmp_path / "store")
        with AnswerStore(path) as store:
            store.log.write_meta({"format": FORMAT_VERSION + 1})
        with pytest.raises(StoreError, match="store format"):
            AnswerStore(path)

    def test_format_1_store_refused(self, tmp_path):
        # Format 1 logged pickled record tuples; this build reads only
        # columnar rows, and keeps no second reader for the old ones.
        path = str(tmp_path / "store")
        with AnswerStore(path) as store:
            store.log.write_meta({"format": 1})
        with pytest.raises(StoreError, match="store format 1"):
            AnswerStore(path)

    def test_bad_sync_mode_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="sync"):
            AnswerStore(str(tmp_path / "store"), sync="fastest")

    def test_unopenable_path_raises_store_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(StoreError, match="cannot open answer store"):
            AnswerStore(str(blocker / "store"))

    def test_store_error_is_a_repro_error(self, tmp_path):
        with pytest.raises(ReproError):
            AnswerStore(str(tmp_path / "store"), sync="nope")

    def test_close_is_idempotent(self, tmp_path):
        store = AnswerStore(str(tmp_path / "store"))
        store.close()
        store.close()
