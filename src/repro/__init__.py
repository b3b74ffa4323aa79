"""repro — reproduction of "Truth Inference in Crowdsourcing: Is the
Problem Solved?" (Zheng, Li, Li, Shan & Cheng, VLDB 2017).

The package provides:

* :mod:`repro.core` — the answer-set data model and the two-step
  iterative inference framework (paper Algorithm 1);
* :mod:`repro.methods` — all 17 surveyed algorithms, registered under
  their paper names;
* :mod:`repro.simulation` — a crowdsourcing-platform simulator (worker
  behaviour models, long-tail assignment, qualification/hidden tests);
* :mod:`repro.datasets` — dataset containers, IO, and statistical
  replicas of the paper's five evaluation datasets;
* :mod:`repro.metrics` — Accuracy / F1 / MAE / RMSE and the crowd-data
  statistics of Section 6.2;
* :mod:`repro.experiments` — the harness regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import ExecutionPolicy, MethodSpec, create, load_paper_dataset

    dataset = load_paper_dataset("D_Product", seed=0, scale=0.2)

    # What to run: a MethodSpec (name + construction kwargs).
    spec = MethodSpec("D&S", seed=0)
    result = create(spec).fit(dataset.answers)
    print(dataset.score(result))

    # How to run: an ExecutionPolicy — sharded map-reduce EM, with the
    # executor tier (serial / threads / processes) resolved per input.
    policy = ExecutionPolicy(n_shards=4)
    result = create(spec).fit(dataset.answers, policy=policy)

Capabilities (sharding, golden tasks, qualification tests, ...) are
queried through ``capabilities(name)`` instead of probing class
attributes; ``sharding`` is the one execution capability — a sharding
method also warm-starts and delta-refits::

    from repro import capabilities
    capabilities("D&S").sharding  # -> True
"""

from .core import (
    AnswerSet,
    Capabilities,
    ExecutionPlan,
    ExecutionPolicy,
    FitStats,
    InferenceResult,
    MethodSpec,
    StorePolicy,
    TaskType,
    TruthInferenceMethod,
    available_methods,
    capabilities,
    create,
    create_all,
    methods_for_task_type,
)
from .datasets import Dataset, all_paper_datasets, load_paper_dataset
from .exceptions import ReproError

__version__ = "1.1.0"

__all__ = [
    "AnswerSet",
    "Capabilities",
    "Dataset",
    "ExecutionPlan",
    "ExecutionPolicy",
    "FitStats",
    "InferenceResult",
    "MethodSpec",
    "ReproError",
    "StorePolicy",
    "TaskType",
    "TruthInferenceMethod",
    "__version__",
    "all_paper_datasets",
    "available_methods",
    "capabilities",
    "create",
    "create_all",
    "load_paper_dataset",
    "methods_for_task_type",
]
