"""Core data model and inference framework.

Public names re-exported here form the stable API of the package core:
the answer-set container, task-type taxonomy, result type, base method
classes, and the registry.
"""

from .answers import AnswerSet
from .base import (
    BinaryMethod,
    CategoricalMethod,
    GeneralMethod,
    NumericMethod,
    TruthInferenceMethod,
)
from .framework import ConvergenceTracker
from .policy import ExecutionPlan, ExecutionPolicy, MethodSpec, StorePolicy
from .registry import (
    Capabilities,
    available_methods,
    capabilities,
    create,
    create_all,
    method_class,
    methods_for_task_type,
)
from .result import FitStats, InferenceResult
from .shards import AnswerShard, ShardedAnswerSet
from .tasktypes import LABEL_FALSE, LABEL_TRUE, TaskType

__all__ = [
    "AnswerSet",
    "AnswerShard",
    "BinaryMethod",
    "Capabilities",
    "CategoricalMethod",
    "ConvergenceTracker",
    "ExecutionPlan",
    "ExecutionPolicy",
    "GeneralMethod",
    "FitStats",
    "InferenceResult",
    "LABEL_FALSE",
    "LABEL_TRUE",
    "MethodSpec",
    "NumericMethod",
    "ShardedAnswerSet",
    "StorePolicy",
    "TaskType",
    "TruthInferenceMethod",
    "available_methods",
    "capabilities",
    "create",
    "create_all",
    "method_class",
    "methods_for_task_type",
]
