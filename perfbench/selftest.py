"""The benchmark's own tests.

Run with ``python3 -m pytest perfbench/selftest.py -q`` from the
repository root (the file name keeps it out of the default test
collection: the tiny end-to-end runs below take about half a minute).
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, layers  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.trace import Span, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_inputs_are_a_function_of_the_seed(workload):
    generate = inputs.GENERATORS[workload]
    first = generate(3, "tiny")
    assert first.digest() == generate(3, "tiny").digest()
    assert first.digest() != generate(4, "tiny").digest()
    assert first.batches and first.truth


def test_firehose_lines_carry_revisions():
    data = inputs.firehose_ingest(5, "tiny")
    lines = (data.base + "".join(data.batches)).splitlines()
    pairs = [tuple(line.split(",")[:2]) for line in lines]
    assert len(lines) == inputs.FIREHOSE_LINES["tiny"]
    assert len(set(pairs)) < len(pairs)
    assert all(task.startswith("task-") for task, _ in pairs)


def _span(id, start, end, parent=None):
    span = Span(id, f"s{id}", start, parent, None)
    span.end = end
    return span


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),   # overlaps span 1
        _span(3, 8.0, 12.0, parent=0),  # runs past its parent's end
        _span(4, 2.5, 3.5, parent=2),
        _span(5, 20.0, 21.0),           # an unrelated root
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(1.0)


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    def items(self):
        yield from (1, 2)

    @classmethod
    def build(cls):
        return cls()


def test_tracer_wraps_at_class_level_and_restores():
    originals = dict(vars(_Layer))
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner",
                lambda span, args, kwargs, result:
                span.attrs.update(result=result))
    tracer.wrap(_Layer, "build", "build")
    tracer.wrap_iter(_Layer, "items", "items")
    tracer.cycle = 7
    assert _Layer.build().outer() == 2
    assert list(_Layer().items()) == [1, 2]
    tracer.restore()
    assert dict(vars(_Layer)) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["build", "outer", "inner", "items", "items", "items"]
    outer, inner = tracer.spans[1], tracer.spans[2]
    assert inner.parent == outer.id and outer.parent is None
    assert inner.attrs == {"result": 1}
    assert {s.cycle for s in tracer.spans} == {7}


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]} \
        == {name: spec[:2] for name, spec in layers.LAYER_METRICS.items()}
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) \
        == sorted(inputs.GENERATORS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_tiny_run_is_correct_and_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())
