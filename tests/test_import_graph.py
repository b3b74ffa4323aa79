"""The engine's import graph stays lean.

``scipy.stats`` pulls in ``scipy.optimize``, ``spatial``, ``ndimage``,
``interpolate`` and ``linalg``: about 400 modules and 44 MB of resident
memory in every process that loads it, CLI runs and process-tier
workers included.  The engine needs only NumPy, ``scipy.sparse`` and
``scipy.special``.  A fresh interpreter imports the package's entry
points, fits every registered method on a small answer set of each task
type it handles, and streams into a process-tier engine; neither heavy
module may be loaded afterwards.  A module-level import of either (or of
anything that loads them) on a fit path fails here.
"""

import subprocess
import sys

#: Modules no engine process loads.  ``repro.planning.redundancy`` needs
#: ``scipy.optimize`` for its curve fit; only ``plan-redundancy``
#: imports it.
HEAVY = ("scipy.stats", "scipy.optimize")

_FIT_EVERYTHING_SCRIPT = """
import sys

import numpy as np

import repro
import repro.cli
import repro.engine
from repro.core.answers import AnswerSet
from repro.core.policy import ExecutionPolicy
from repro.core.registry import available_methods, capabilities, create
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine
from repro.engine.runtime import RuntimeRegistry

rng = np.random.default_rng(0)
n_tasks, n_workers, n_answers = 24, 6, 120
tasks = rng.integers(0, n_tasks, n_answers)
workers = rng.integers(0, n_workers, n_answers)
answer_sets = {
    TaskType.DECISION_MAKING: AnswerSet(
        tasks, workers, rng.integers(0, 2, n_answers),
        TaskType.DECISION_MAKING, n_tasks=n_tasks, n_workers=n_workers),
    TaskType.SINGLE_CHOICE: AnswerSet(
        tasks, workers, rng.integers(0, 3, n_answers),
        TaskType.SINGLE_CHOICE, n_choices=3, n_tasks=n_tasks,
        n_workers=n_workers),
    TaskType.NUMERIC: AnswerSet(
        tasks, workers, rng.normal(5.0, 2.0, n_answers),
        TaskType.NUMERIC, n_tasks=n_tasks, n_workers=n_workers),
}
fitted = 0
for name in available_methods():
    for task_type in capabilities(name).task_types:
        create(name, seed=0).fit(answer_sets[task_type])
        fitted += 1
assert fitted >= len(available_methods()), fitted

registry = RuntimeRegistry()
try:
    with InferenceEngine(TaskType.DECISION_MAKING, seed=0,
                         registry=registry,
                         policy=ExecutionPolicy(n_shards=2, max_workers=1,
                                                executor="process")
                         ) as engine:
        for _ in range(2):
            engine.add_answers(
                [(f"t{rng.integers(0, 30)}", f"w{rng.integers(0, 5)}",
                  int(rng.integers(0, 2))) for _ in range(100)])
            for method in ("D&S", "KOS"):
                engine.infer(method)
finally:
    registry.close_all()
print("LOADED", sorted(m for m in sys.argv[1:] if m in sys.modules))
"""


def test_fits_load_neither_scipy_stats_nor_optimize():
    proc = subprocess.run(
        [sys.executable, "-c", _FIT_EVERYTHING_SCRIPT, *HEAVY],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "LOADED []"
