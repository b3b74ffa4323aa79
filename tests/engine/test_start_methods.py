"""The process tier under ``spawn`` and ``forkserver``.

A forked worker inherits the master's modules; a worker started by
``spawn`` or ``forkserver`` (Python 3.14's Linux default) imports the
package itself and rebuilds its shards from what the pipe carries.  One
fresh interpreter per start method streams batches into a process-tier
engine with delta refits and into a serial one, and demands posteriors
equal bit for bit after every batch.  The child inherits this process's
environment, so a warning filter set there (such as CI's leak check
turning ``UserWarning`` into an error) reaches the workers too.
"""

import subprocess
import sys

import pytest

_STREAM_SCRIPT = """
import multiprocessing
import sys

multiprocessing.set_start_method(sys.argv[1], force=True)

import numpy as np

from repro.core.policy import ExecutionPolicy
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine
from repro.engine.runtime import RuntimeRegistry

rng = np.random.default_rng(3)
batches = [[(f"t{rng.integers(0, 60)}", f"w{rng.integers(0, 8)}",
             int(rng.integers(0, 2))) for _ in range(150)]
           for _ in range(4)]


def engine(executor, registry=None):
    return InferenceEngine(
        TaskType.DECISION_MAKING, seed=0, registry=registry,
        policy=ExecutionPolicy(n_shards=4, max_workers=2,
                               executor=executor, refit="delta"))


registry = RuntimeRegistry()
try:
    with engine("process", registry) as tier, engine("serial") as serial:
        for batch in batches:
            tier.add_answers(batch)
            serial.add_answers(batch)
            for method in ("D&S", "KOS"):
                got = tier.infer(method).posterior
                want = serial.infer(method).posterior
                assert got.tobytes() == want.tobytes(), method
finally:
    registry.close_all()
print("OK", multiprocessing.get_start_method())
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_process_tier_matches_serial_under_start_method(method):
    proc = subprocess.run(
        [sys.executable, "-c", _STREAM_SCRIPT, method],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"OK {method}"
    assert "leaked" not in proc.stderr
    assert "Traceback" not in proc.stderr
