"""Chaos property: recovery is invisible in the numbers.

For any kill schedule the fault plane can express — any victim shard,
any dispatch ordinal, one or two triggers — a fit that loses workers
mid-phase and self-heals must return **bit-identical** posteriors to
the uninterrupted fit at the same shard count.  The property quantifies
the PR-10 contract beyond the hand-picked cases in
``tests/engine/test_faults.py``: determinism of the recovery path is
not an artifact of which shard died.

Process-pool fits are expensive, so the example budget is small and
clean references are cached per ``(method, n_shards)``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.policy import FaultPolicy, MethodSpec
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.core.answers import AnswerSet
from repro.engine.runtime import ShardRuntime
from repro.faults import FaultPlan, FaultTrigger
from tests.fault_arming import armed

METHODS = ["D&S", "KOS"]
SHARD_COUNTS = [2, 4]

_ANSWERS = None
_REFERENCE = {}


def build_answers(seed=0, n_tasks=60, n_workers=8, n_answers=400):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, n_tasks)
    acc = rng.uniform(0.55, 0.95, n_workers)
    tasks = rng.integers(0, n_tasks, n_answers)
    workers = rng.integers(0, n_workers, n_answers)
    correct = rng.random(n_answers) < acc[workers]
    values = np.where(correct, truth[tasks], 1 - truth[tasks])
    return AnswerSet(tasks, workers, values, TaskType.DECISION_MAKING,
                     n_tasks=n_tasks, n_workers=n_workers)


def answers():
    global _ANSWERS
    if _ANSWERS is None:
        _ANSWERS = build_answers()
    return _ANSWERS


def fit(method, n_shards, plan=None):
    spec = MethodSpec.coerce(method, {}).with_defaults(seed=0)
    policy = FaultPolicy(deadline=30.0) if plan is not None else None
    rt = ShardRuntime(n_shards=n_shards, max_workers=2)
    try:
        with armed(plan), rt.lease(answers(), spec,
                                   fault_policy=policy) as lease:
            result = create(spec).fit(answers(), shard_runner=lease)
        return result, dict(lease.fault_events)
    finally:
        rt.close()


def reference(method, n_shards):
    key = (method, n_shards)
    if key not in _REFERENCE:
        _REFERENCE[key], _ = fit(method, n_shards)
    return _REFERENCE[key]


kill_triggers = st.lists(
    st.builds(
        lambda shard, on: FaultTrigger(kind="kill", shard=shard, on=on),
        shard=st.integers(0, 3),
        on=st.integers(1, 3),
    ),
    min_size=1, max_size=2,
)


class TestKillScheduleInvariance:
    @given(method=st.sampled_from(METHODS),
           n_shards=st.sampled_from(SHARD_COUNTS),
           triggers=kill_triggers)
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_kill_schedule_recovers_bit_identically(
            self, method, n_shards, triggers):
        triggers = tuple(
            FaultTrigger(kind="kill", shard=t.shard % n_shards, on=t.on)
            for t in triggers)
        plan = FaultPlan(triggers)
        faulted, events = fit(method, n_shards, plan=plan)
        clean = reference(method, n_shards)
        assert np.array_equal(faulted.posterior, clean.posterior)
        if plan.fired.get("kill"):
            assert events["respawns"] + events["degraded"] >= 1
