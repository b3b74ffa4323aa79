"""One placement layer: every tier places, extends and builds shards alike.

* ``fit(warm_start=..., policy=ExecutionPolicy(refit="delta"))`` runs a
  true delta refit on the in-process tiers, whose runner pins the
  cached cuts, and a collecting full fit on the process tier, whose
  lease places its own;
* the in-process session and the process runtime re-place on the same
  growth of a long extend run;
* a property over random append-only growth: every shard the session
  hands out, the runtime's master builds and a worker builds holds the
  same bytes; sorted stably by task, they are the bytes of the fresh
  stable task-sort under the same cuts; and both tiers take the same
  placement decisions.

A shard extended by later epochs keeps each epoch's answers behind the
earlier epochs', so it is grouped by epoch, not wholly by task: only
each task's answers are in arrival order, as in the fresh sort.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.answers import AnswerSet
from repro.core.policy import ExecutionPolicy
from repro.core.registry import create
from repro.core.shards import ShardedAnswerSet
from repro.core.tasktypes import TaskType
from repro.engine import runtime
from repro.engine.placement import MAX_EPOCHS
from repro.engine.runtime import (
    SerialShardSession,
    ShardRuntime,
    get_runtime_registry,
)


def prefixes(tasks, workers, values, lengths):
    """The answer set of each arrival-order prefix, sized to the tasks
    and workers seen so far (at least 8 tasks, so no shard count up to
    8 is clamped)."""
    return [AnswerSet(tasks[:n], workers[:n], values[:n],
                      TaskType.DECISION_MAKING,
                      n_tasks=max(8, int(tasks[:n].max()) + 1),
                      n_workers=int(workers[:n].max()) + 1)
            for n in lengths]


# ----------------------------------------------------------------------
# fit(policy=...) delta refits
# ----------------------------------------------------------------------
def cohort(seed=0):
    """400 tasks x 5 answers, then a cohort of 60 new tasks x 20."""
    rng = np.random.default_rng(seed)
    tasks = np.concatenate([np.repeat(np.arange(400), 5),
                            np.repeat(np.arange(400, 460), 20)])
    truth = rng.integers(0, 2, 460)
    accuracy = rng.uniform(0.6, 0.9, 12)
    workers = rng.integers(0, 12, len(tasks))
    values = np.where(rng.random(len(tasks)) < accuracy[workers],
                      truth[tasks], 1 - truth[tasks])
    return prefixes(tasks, workers, values, [2000, len(tasks)])


def delta_refit(method, base, grown, policy, demote=False):
    """Fit ``base`` collecting a shard state, then refit ``grown`` from
    it under ``refit="delta"`` (or, with ``demote``, warm-start from the
    fit without its state: a collecting full fit)."""
    policy = dataclasses.replace(policy, refit="delta")
    first = method.fit(base, policy=policy)
    assert first.shard_state is not None
    if demote:
        first = dataclasses.replace(first, shard_state=None)
    return method.fit(grown, warm_start=first, policy=policy)


TIERS = {
    "serial": ExecutionPolicy(n_shards=4, executor="serial"),
    "thread": ExecutionPolicy(n_shards=4, executor="thread",
                              max_workers=2),
    "process": ExecutionPolicy(n_shards=4, executor="process",
                               max_workers=1),
}


@pytest.fixture()
def closed_registry():
    """Close the process-wide registry ``fit(policy=...)`` leases from
    once the test is done, so no worker outlives it."""
    yield
    get_runtime_registry().close_all()


@pytest.mark.usefixtures("closed_registry")
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_policy_fit_resumes_from_a_cached_state(tier):
    base, grown = cohort()
    policy = TIERS[tier]
    result = delta_refit(create("D&S", seed=0), base, grown, policy=policy)
    if tier == "process":
        # The lease places its own cuts over the grown answers, so the
        # refit demotes to a collecting full fit: the same fit as one
        # asked for outright.
        assert result.fit_stats.mode == "full"
        assert result.shard_state is not None
        ref = delta_refit(create("D&S", seed=0), base, grown, demote=True,
                          policy=policy)
    else:
        assert result.fit_stats.mode == "delta"
        ref = delta_refit(create("D&S", seed=0), base, grown,
                          policy=TIERS["serial"])
    assert result.n_iterations == ref.n_iterations
    np.testing.assert_array_equal(result.posterior, ref.posterior)


# ----------------------------------------------------------------------
# Re-place cadence
# ----------------------------------------------------------------------
def place_both(session, rt, answers, key, instance):
    """One fit's placement on each tier; returns both decisions."""
    session.runner(answers, instance, stream_key=key)
    with rt.lease(answers, "D&S", {"seed": 0}, stream_key=key):
        pass
    return session.last_placement, rt.last_placement


def test_tiers_replace_on_the_same_growth():
    # 1,000 tasks grown by 10 tasks 20 times, 5 answers a task: the
    # stream never doubles, so only the epoch cap re-places.
    rng = np.random.default_rng(0)
    tasks = np.repeat(np.arange(1200), 5)
    workers = rng.integers(0, 20, len(tasks))
    values = rng.integers(0, 2, len(tasks))
    growth = prefixes(tasks, workers, values,
                      [5 * (1000 + 10 * i) for i in range(21)])
    instance = create("D&S", seed=0)
    session = SerialShardSession(4)
    with ShardRuntime(4, max_workers=1) as rt:
        decisions = [place_both(session, rt, answers, "s", instance)
                     for answers in growth]
    on_session = [s for s, _ in decisions]
    assert on_session == [r for _, r in decisions]
    # A placement counts as one of the layout's MAX_EPOCHS epochs.
    assert on_session == (["place"] + ["extend"] * (MAX_EPOCHS - 1)
                          + ["place"] + ["extend"] * 4)


def test_a_universe_grown_without_answers_extends():
    # The same answers over more tasks and workers: an empty epoch
    # carries the new sizes, so a fit covers every task.
    rng = np.random.default_rng(0)
    tasks = rng.integers(0, 50, 400)
    workers = rng.integers(0, 8, 400)
    values = rng.integers(0, 2, 400)
    small, grown = [AnswerSet(tasks, workers, values,
                              TaskType.DECISION_MAKING, n_tasks=n_tasks,
                              n_workers=n_workers)
                    for n_tasks, n_workers in ((50, 8), (60, 9))]
    instance = create("D&S", seed=0)
    session = SerialShardSession(3)
    with ShardRuntime(3, max_workers=1) as rt:
        place_both(session, rt, small, "s", instance)
        assert place_both(session, rt, grown, "s", instance) == (
            "extend", "extend")
        with rt.lease(grown, "D&S", {"seed": 0}, stream_key="s") as lease:
            on_workers = create("D&S", seed=0).fit(grown, shard_runner=lease)
    in_process = create("D&S", seed=0).fit(grown, shard_runner=session.runner(
        grown, instance, stream_key="s"))
    assert on_workers.posterior.shape == (60, 2)
    assert in_process.posterior.shape == (60, 2)


# ----------------------------------------------------------------------
# Cross-tier placement property
# ----------------------------------------------------------------------
def fingerprint(shard, by_task=False):
    """A shard's arrays as bytes (first sorted stably by task, with
    ``by_task``), its task range and its global sizes."""
    order = (np.argsort(shard.tasks, kind="stable") if by_task
             else slice(None))
    arrays = [getattr(shard, field)[order]
              for field in ("tasks", "workers", "values")]
    return ([(array.dtype.str, array.tobytes()) for array in arrays],
            shard.task_start, shard.task_stop, shard.n_tasks,
            shard.n_workers, shard.n_choices, shard.index)


@st.composite
def growth_runs(draw):
    """A random append-only stream cut into growth steps (a zero step
    is an empty tail), with one stream-key change and one adoption."""
    n_steps = draw(st.integers(3, 7))
    adds = ([draw(st.integers(1, 40))]
            + draw(st.lists(st.integers(0, 40), min_size=n_steps - 1,
                            max_size=n_steps - 1)))
    return dict(
        n_shards=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2 ** 16)),
        lengths=list(np.cumsum(adds)),
        key_change=draw(st.integers(1, n_steps - 1)),
        adopt_at=draw(st.integers(1, n_steps - 1)),
    )


@given(run=growth_runs())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_tier_builds_the_same_shards(run):
    n_shards = run["n_shards"]
    rng = np.random.default_rng(run["seed"])
    n_total = run["lengths"][-1]
    # New tasks and workers keep arriving as the stream grows.
    arrivals = np.arange(n_total)
    tasks = rng.integers(0, 8 + arrivals // 3)
    workers = rng.integers(0, 2 + arrivals // 5)
    values = rng.integers(0, 2, n_total)
    growth = prefixes(tasks, workers, values, run["lengths"])
    instance = create("D&S", seed=0)
    session = SerialShardSession(n_shards)
    decisions = []
    with ShardRuntime(n_shards, max_workers=1) as rt:
        for step, answers in enumerate(growth):
            key = "a" if step < run["key_change"] else "b"
            if step == run["adopt_at"]:
                state = create("D&S", seed=0, max_iter=1).fit(
                    growth[step - 1],
                    policy=ExecutionPolicy(n_shards=n_shards,
                                           executor="serial",
                                           refit="delta")).shard_state
                session.adopt(answers, state, stream_key=key)
                rt.adopt(answers, state, stream_key=key)
                decisions.append((session.last_placement,
                                  rt.last_placement))
            shards = session.runner(answers, instance,
                                    stream_key=key).shards
            with rt.lease(answers, "D&S", {"seed": 0},
                          stream_key=key) as lease:
                assert lease.task_ranges == [
                    (s.task_start, s.task_stop) for s in shards]
                cuts = [shards[0].task_start] + [s.task_stop
                                                 for s in shards]
                fresh = ShardedAnswerSet(answers, n_shards, task_cuts=cuts)
                worker = rt._workers[0]
                for k, fresh_shard in enumerate(fresh.shards):
                    held = fingerprint(shards[k])
                    assert fingerprint(
                        lease._master_host().shard(k)) == held
                    assert fingerprint(worker.call(
                        runtime._materialize_shard, k)) == held
                    assert (fingerprint(shards[k], by_task=True)
                            == fingerprint(fresh_shard, by_task=True))
            decisions.append((session.last_placement, rt.last_placement))
    assert [s for s, _ in decisions] == [r for _, r in decisions]
