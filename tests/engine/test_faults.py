"""Fault-tolerant shard execution: injection plane + self-healing dispatch.

The PR-10 contracts:

* a SIGKILLed worker (scripted or external) is detected, its pool
  respawned with the message ledger replayed, and only the failed
  shards re-dispatched — the recovered fit is **bit-identical** to the
  uninterrupted one;
* a hung phase trips the per-phase deadline instead of blocking
  forever, and recovers the same way;
* past the retry budget the orphaned shards degrade to the master's
  serial spec path (flagged in ``FitStats``) — or raise, when the
  policy says so;
* the hooks are deterministic: the same :class:`FaultPlan` over the
  same stream injects the same faults at the same events;
* a plan is armed process-wide, and each lease recovers under its own
  :class:`FaultPolicy`: nothing one lease names carries into the next.
"""

import os
import signal

import numpy as np
import pytest

from repro import faults
from repro.core.answers import AnswerSet
from repro.core.policy import ExecutionPolicy, FaultPolicy, MethodSpec
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.engine import InferenceEngine
from repro.engine.runtime import ShardRuntime, get_runtime_registry
from repro.exceptions import PhaseTimeoutError, WorkerCrashError
from repro.faults import Backoff, FaultPlan, FaultTrigger

from tests.fault_arming import armed


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


def runtime_fit(answers, method="D&S", plan=None, policy=None,
                n_shards=4, max_workers=2):
    """One fit on a private runtime with ``plan`` armed; returns
    (result, fault_events)."""
    spec = MethodSpec.coerce(method, {}).with_defaults(seed=0)
    rt = ShardRuntime(n_shards=n_shards, max_workers=max_workers)
    try:
        with armed(plan), rt.lease(answers, spec,
                                   fault_policy=policy) as lease:
            result = create(spec).fit(answers, shard_runner=lease)
        return result, dict(lease.fault_events)
    finally:
        rt.close()


def kos_batches(seed=0, n_tasks=60, n_workers=8, base=500, steps=3,
                growth=60):
    """A base batch, then growth batches confined to the first quarter
    of the tasks, as ``(task, worker, value)`` records."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, n_tasks)
    acc = rng.uniform(0.6, 0.95, n_workers)
    batches = []
    tasks = np.sort(rng.integers(0, n_tasks, base))
    for step in range(steps + 1):
        if step:
            tasks = rng.integers(0, n_tasks // 4, growth)
        workers = rng.integers(0, n_workers, len(tasks))
        correct = rng.random(len(tasks)) < acc[workers]
        values = np.where(correct, truth[tasks], 1 - truth[tasks])
        batches.append(list(zip(tasks.tolist(), workers.tolist(),
                                values.tolist())))
    return batches


def kos_stream(executor, plan=None, policy=None):
    """KOS fits of :func:`kos_batches` on 4 shards with ``plan`` armed:
    a collecting full fit, then delta refits whose clean shards start
    frozen, verify every 3 rounds and thaw."""
    fault_policy = policy or FaultPolicy()
    execution = ExecutionPolicy(
        n_shards=4, executor=executor,
        max_workers=2 if executor == "process" else None, refit="delta",
        verify_every=3, fault_policy=fault_policy)
    try:
        with armed(plan), InferenceEngine(TaskType.DECISION_MAKING,
                                          policy=execution,
                                          seed=0) as engine:
            results = []
            for batch in kos_batches():
                engine.add_answers(batch)
                results.append(engine.infer("KOS"))
        return results
    finally:
        get_runtime_registry().close_all()


def assert_same_kos_fits(expected, actual):
    """Bit-for-bit equal KOS fits: scores, posteriors, worker quality,
    the collected message session and the round counters."""
    for want, got in zip(expected, actual, strict=True):
        np.testing.assert_array_equal(want.extras["task_scores"],
                                      got.extras["task_scores"])
        np.testing.assert_array_equal(want.posterior, got.posterior)
        np.testing.assert_array_equal(want.worker_quality,
                                      got.worker_quality)
        for key in ("y", "partial", "sq"):
            for a, b in zip(want.shard_state.session[key],
                            got.shard_state.session[key], strict=True):
                np.testing.assert_array_equal(a, b)
        for name in ("mode", "frozen_shards", "e_block_calls",
                     "verify_passes", "thaws"):
            assert getattr(want.fit_stats, name) == getattr(
                got.fit_stats, name), name


@pytest.fixture(scope="module")
def answers():
    return build_answers()


@pytest.fixture(scope="module")
def reference(answers):
    """The uninterrupted 4-shard fit every recovery must reproduce."""
    result, events = runtime_fit(answers)
    assert not any(events.values())
    return result


# -- FaultPlan / FaultTrigger (pure unit) ------------------------------
class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "kill:shard=1,on=2;delay:phase=e_block,seconds=0.5;"
            "commit:count=3;garble:on=5")
        kinds = [t.kind for t in plan.triggers]
        assert kinds == ["kill", "delay", "commit", "garble"]
        assert plan.triggers[0].shard == 1
        assert plan.triggers[0].on == 2
        assert plan.triggers[1].phase == "e_block"
        assert plan.triggers[1].seconds == 0.5
        assert plan.triggers[2].count == 3

    def test_parse_rejects_malformed_field(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("kill:shard")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultTrigger("explode")

    def test_on_and_count_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultTrigger("kill", on=0)

    def test_counted_firing_window(self):
        plan = FaultPlan([FaultTrigger("kill", on=2, count=2)])
        fired = [plan.on_dispatch(0, "e_block") is not None
                 for _ in range(5)]
        assert fired == [False, True, True, False, False]
        assert plan.fired["kill"] == 2

    def test_shard_and_phase_filters_gate_the_event_count(self):
        plan = FaultPlan([FaultTrigger("kill", shard=1, phase="e_block")])
        assert plan.on_dispatch(0, "e_block") is None  # wrong shard
        assert plan.on_dispatch(1, "accumulate") is None  # wrong phase
        assert plan.on_dispatch(1, "e_block") == ("kill",)

    def test_delay_carries_seconds(self):
        plan = FaultPlan([FaultTrigger("delay", seconds=0.25)])
        assert plan.on_dispatch(0, "e_block") == ("delay", 0.25)

    def test_commit_and_garble_hooks(self):
        plan = FaultPlan.parse("commit:on=2;garble")
        assert not plan.on_commit()
        assert plan.on_commit()
        assert plan.on_source_line()
        assert not plan.on_source_line()

    def test_reset_replays_the_script(self):
        plan = FaultPlan.parse("kill:on=1")
        assert plan.on_dispatch(0, "e_block") is not None
        assert plan.on_dispatch(0, "e_block") is None
        plan.reset()
        assert plan.fired["kill"] == 0
        assert plan.on_dispatch(0, "e_block") is not None

    def test_log_records_fired_events(self):
        plan = FaultPlan.parse("kill:shard=2")
        plan.on_dispatch(2, "accumulate")
        assert plan.log == [("kill", (2, "accumulate"))]


class TestBackoff:
    def test_deterministic_per_seed(self):
        a = [Backoff(seed=7).delay(i) for i in range(6)]
        b = [Backoff(seed=7).delay(i) for i in range(6)]
        assert a == b

    def test_capped_exponential_with_jitter_bounds(self):
        backoff = Backoff(base=0.1, cap=0.4, seed=0)
        for attempt in range(8):
            raw = min(0.4, 0.1 * 2.0 ** attempt)
            delay = backoff.delay(attempt)
            assert 0.5 * raw <= delay <= raw

    def test_zero_base_never_sleeps(self):
        assert Backoff(base=0.0, cap=0.0).sleep(5) == 0.0

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            Backoff(base=-0.1)


class TestArming:
    @pytest.fixture(autouse=True)
    def cold_plane(self, monkeypatch):
        monkeypatch.setattr(faults, "_PLAN", None)
        monkeypatch.setattr(faults, "_ENV_PARSED", False)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)

    def test_cold_plane_is_free(self):
        assert faults.get_plan() is None

    def test_env_spec_parsed_lazily(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "commit:on=2")
        plan = faults.get_plan()
        assert plan is not None
        assert not plan.on_commit()
        assert plan.on_commit()

    def test_arm_and_disarm_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "commit")
        plan = FaultPlan.parse("garble")
        faults.arm(plan)
        assert faults.get_plan() is plan
        faults.disarm()
        assert faults.get_plan() is None

    def test_armed_block_restores_the_plan_armed_before(self,
                                                         monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "commit")
        inner = FaultPlan.parse("garble")
        with armed(inner):
            assert faults.get_plan() is inner
        outer = faults.get_plan()
        assert [t.kind for t in outer.triggers] == ["commit"]
        with armed(None):
            assert faults.get_plan() is None
        assert faults.get_plan() is outer
        with pytest.raises(KeyError):
            with armed(inner):
                raise KeyError("the block fails")
        assert faults.get_plan() is outer
        faults.disarm()
        with armed(inner):
            pass
        assert faults.get_plan() is None


# -- FaultPolicy (pure unit) -------------------------------------------
class TestFaultPolicy:
    def test_defaults(self):
        policy = FaultPolicy()
        assert policy.deadline == 120.0
        assert policy.retries == 2
        assert policy.degrade is True

    @pytest.mark.parametrize("kwargs", [
        {"deadline": 0.0}, {"deadline": -1.0}, {"retries": -1},
        {"backoff_base": -0.1}, {"backoff_cap": -1.0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)

    def test_unbounded_deadline_is_explicit_none(self):
        assert FaultPolicy(deadline=None).deadline is None

    def test_policy_carries_the_fault_policy_into_the_plan(self,
                                                           answers):
        fp = FaultPolicy(retries=1)
        resolved = ExecutionPolicy(n_shards=2, executor="serial",
                                   fault_policy=fp).resolve(answers)
        assert resolved.fault_policy == fp

    def test_a_lease_naming_no_policy_runs_under_the_defaults(self,
                                                              answers):
        """Recovery belongs to the lease: a strict policy named by one
        lease does not carry into the next.  The second lease's phase
        stalls past the first lease's 1 s deadline and still returns."""
        strict = FaultPolicy(deadline=1.0, retries=0, degrade=False)
        spec = MethodSpec("D&S", seed=0)
        plan = FaultPlan.parse("delay:phase=init_block,on=2,seconds=1.2")
        with armed(plan), ShardRuntime(n_shards=1, max_workers=1) as rt:
            with rt.lease(answers, spec, fault_policy=strict) as lease:
                assert lease.fault_policy is strict
                lease.call("init_block")
            with rt.lease(answers, spec) as lease:
                assert lease.fault_policy == FaultPolicy()
                lease.call("init_block")
                assert not any(lease.fault_events.values())
        assert plan.fired["delay"] == 1


# -- recovery on the live runtime --------------------------------------
class TestKillRecovery:
    def test_scripted_kill_recovers_bit_identical(self, answers,
                                                  reference):
        plan = FaultPlan.parse("kill:shard=1,on=2")
        result, events = runtime_fit(
            answers, plan=plan, policy=FaultPolicy(deadline=30.0))
        assert events["respawns"] >= 1
        assert events["retries"] >= 1
        assert plan.fired["kill"] == 1
        assert np.array_equal(reference.posterior, result.posterior)

    def test_external_sigkill_recovers_bit_identical(self, answers,
                                                     reference):
        """The non-scripted spelling: a real child process dies."""
        spec = MethodSpec.coerce("D&S", {})
        rt = ShardRuntime(n_shards=4, max_workers=2)
        try:
            lease = rt.lease(answers, spec,
                             fault_policy=FaultPolicy(deadline=30.0))
            with lease:
                pids = [worker.pid for worker in rt._workers]
                assert pids, "lease sync must have spawned workers"
                os.kill(pids[-1], signal.SIGKILL)
                result = create(spec).fit(answers, shard_runner=lease)
            assert lease.fault_events["respawns"] >= 1
            assert np.array_equal(reference.posterior, result.posterior)
        finally:
            rt.close()

    def test_fit_stats_surface_the_recovery(self, answers, reference):
        plan = FaultPlan.parse("kill:shard=0,on=2")
        policy = ExecutionPolicy(
            n_shards=4, executor="process", max_workers=2,
            fault_policy=FaultPolicy(deadline=30.0))
        try:
            with armed(plan):
                result = create("D&S", seed=0).fit(answers, policy=policy)
        finally:
            get_runtime_registry().close_all()
        assert result.fit_stats.respawns >= 1
        assert result.fit_stats.retries >= 1
        assert "respawns" in result.fit_stats.summary()
        assert np.array_equal(reference.posterior, result.posterior)


class TestDeadline:
    def test_hung_phase_times_out_and_recovers(self, answers, reference):
        plan = FaultPlan.parse("delay:phase=e_block,seconds=20")
        result, events = runtime_fit(
            answers, plan=plan, policy=FaultPolicy(deadline=1.0))
        assert events["timeouts"] >= 1
        assert events["respawns"] >= 1
        assert np.array_equal(reference.posterior, result.posterior)


class TestDegradation:
    def test_exhausted_retries_degrade_to_serial(self, answers,
                                                 reference):
        plan = FaultPlan.parse("kill:shard=1,count=99")
        result, events = runtime_fit(
            answers, plan=plan,
            policy=FaultPolicy(deadline=30.0, retries=1))
        assert events["degraded"] >= 1
        # Deterministic phases: the degraded-serial execution reads the
        # same segment bytes, so even this path is bit-identical.
        assert np.array_equal(reference.posterior, result.posterior)

    def test_degraded_slot_is_sticky_for_the_lease(self, answers):
        plan = FaultPlan.parse("kill:shard=1,count=99")
        spec = MethodSpec.coerce("D&S", {})
        rt = ShardRuntime(n_shards=4, max_workers=2)
        try:
            with armed(plan), rt.lease(
                    answers, spec, fault_policy=FaultPolicy(
                        deadline=30.0, retries=0)) as lease:
                create(spec).fit(answers, shard_runner=lease)
            first = lease.fault_events["degraded"]
            # One respawn per degraded slot, then the slot stays
            # master-side: degraded phases keep accruing, kills don't.
            assert first >= 2
            assert lease.fault_events["respawns"] >= 1
            # A fresh lease starts healthy again (no armed plan now).
            lease2 = rt.lease(answers, spec,
                              fault_policy=FaultPolicy(deadline=30.0))
            with lease2:
                create(spec).fit(answers, shard_runner=lease2)
            assert lease2.fault_events["degraded"] == 0
        finally:
            rt.close()

    def test_degrade_disabled_raises_worker_crash(self, answers):
        plan = FaultPlan.parse("kill:shard=1,count=99")
        with pytest.raises(WorkerCrashError, match="lost its workers"):
            runtime_fit(answers, plan=plan,
                        policy=FaultPolicy(deadline=30.0, retries=0,
                                           degrade=False))

    def test_degrade_disabled_raises_timeout_on_hangs(self, answers):
        plan = FaultPlan.parse("delay:phase=e_block,seconds=20,count=99")
        with pytest.raises(PhaseTimeoutError, match="timed out"):
            runtime_fit(answers, plan=plan,
                        policy=FaultPolicy(deadline=0.5, retries=0,
                                           degrade=False))

    def test_gibbs_degraded_parity(self, answers):
        """The sampling family: degraded BCC stays within 1e-6 (its
        shard phases are deterministic — every draw is master-side)."""
        ref, events = runtime_fit(answers, method="BCC")
        assert not any(events.values())
        plan = FaultPlan.parse("kill:shard=1,count=999")
        out, events = runtime_fit(
            answers, method="BCC", plan=plan,
            policy=FaultPolicy(deadline=30.0, retries=0))
        assert events["degraded"] >= 1
        assert np.abs(ref.posterior - out.posterior).max() <= 1e-6


class TestStatefulReplay:
    """KOS pins mutable message state (``ops.y``/``ops.x``) in its
    workers, so a respawn must replay the phase log — the configure
    replay alone would leave ``ops.y`` unseeded."""

    def test_kos_kill_mid_rounds_recovers_bit_identically(self, answers):
        ref, events = runtime_fit(answers, method="KOS")
        assert not any(events.values())
        plan = FaultPlan.parse("kill:shard=1,on=4")
        out, events = runtime_fit(
            answers, method="KOS", plan=plan,
            policy=FaultPolicy(deadline=30.0))
        assert plan.fired["kill"] == 1
        assert events["respawns"] >= 1
        assert np.array_equal(ref.posterior, out.posterior)

    def test_kos_degrades_bit_identically(self, answers):
        """Past the retry budget the master replays the same phase log
        onto its own serial ops, so even degraded KOS stays exact."""
        ref, _ = runtime_fit(answers, method="KOS")
        plan = FaultPlan.parse("kill:shard=1,count=999")
        out, events = runtime_fit(
            answers, method="KOS", plan=plan,
            policy=FaultPolicy(deadline=30.0, retries=0))
        assert events["degraded"] >= 1
        assert np.array_equal(ref.posterior, out.posterior)

    @pytest.mark.parametrize("n_rounds", [1, 10])
    def test_kos_round_is_two_dispatches(self, answers, n_rounds):
        """A cold R-round fit is ``prime``, two phases a round and
        ``score``: one message each on a one-worker runtime."""
        spec = MethodSpec.coerce(
            "KOS", {"n_rounds": n_rounds}).with_defaults(seed=0)
        rt = ShardRuntime(n_shards=4, max_workers=1)
        try:
            with armed(None), rt.lease(answers, spec) as lease:
                synced = lease.ipc["messages"]
                create(spec).fit(answers, shard_runner=lease)
                assert lease.ipc["messages"] - synced == 2 * n_rounds + 2
        finally:
            rt.close()

    def test_kos_delta_refits_match_serial(self):
        serial = kos_stream("serial")
        process = kos_stream("process")
        refit = process[-1].fit_stats
        assert refit.mode == "delta"
        assert refit.frozen_shards[0] > 0
        assert refit.verify_passes > 0 and refit.thaws > 0
        assert_same_kos_fits(serial, process)

    @pytest.mark.parametrize("retries, event", [(3, "respawns"),
                                                (0, "degraded")])
    def test_kos_delta_refit_recovers_bit_identically(self, retries,
                                                      event):
        """Shard 1 is frozen in the first refit, so its 12th
        ``task_round`` is that refit's second verify round, where it
        owes two divisors; a kill there replays the phase log into a
        fresh worker, or onto the master once retries run out."""
        count = 1 if retries else 999
        plan = FaultPlan.parse(
            f"kill:shard=1,phase=task_round,on=12,count={count}")
        serial = kos_stream("serial")
        process = kos_stream("process", plan, FaultPolicy(
            deadline=30.0, retries=retries))
        assert plan.fired["kill"] >= 1
        assert process[1].fit_stats.mode == "delta"
        assert getattr(process[1].fit_stats, event) >= 1
        assert_same_kos_fits(serial, process)

    def test_stateless_specs_skip_the_phase_log(self, answers):
        spec = MethodSpec.coerce("D&S", {}).with_defaults(seed=0)
        rt = ShardRuntime(n_shards=4, max_workers=2)
        try:
            with rt.lease(answers, spec) as lease:
                create(spec).fit(answers, shard_runner=lease)
                assert lease._phase_log == []
        finally:
            rt.close()
