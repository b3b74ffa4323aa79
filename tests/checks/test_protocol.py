"""The lease-protocol verifier: state machine, leak ledgers, and the
instrumented runtime."""

import numpy as np
import pytest

from repro.checks import protocol
from repro.checks.protocol import LeaseProtocolVerifier
from repro.core.answers import AnswerSet
from repro.core.tasktypes import TaskType
from repro.exceptions import ProtocolError


@pytest.fixture
def verifier():
    return LeaseProtocolVerifier()


# -- state machine (pure unit) ----------------------------------------
def test_clean_cycle_leaves_empty_ledgers(verifier):
    verifier.segment_created("psm_a")
    verifier.pool_spawned(1)
    verifier.lease_acquired(10, 100)
    verifier.lease_dispatch(10, 100)
    verifier.lease_released(10)
    verifier.pool_shutdown(1)
    verifier.segment_released("psm_a")
    verifier.assert_clean()


def test_double_segment_release_raises(verifier):
    verifier.segment_created("psm_a")
    verifier.segment_released("psm_a")
    with pytest.raises(ProtocolError, match="released twice"):
        verifier.segment_released("psm_a")


def test_double_lease_release_raises(verifier):
    verifier.lease_acquired(10, 100)
    verifier.lease_released(10)
    with pytest.raises(ProtocolError, match="released twice"):
        verifier.lease_released(10)


def test_dispatch_without_lease_raises(verifier):
    with pytest.raises(ProtocolError, match="no live lease"):
        verifier.lease_dispatch(10, 100)


def test_dispatch_by_stale_lease_raises(verifier):
    verifier.lease_acquired(10, 100)
    verifier.lease_released(10)
    verifier.lease_acquired(10, 200)
    with pytest.raises(ProtocolError, match="stale lease"):
        verifier.lease_dispatch(10, 100)


def test_second_concurrent_lease_raises(verifier):
    verifier.lease_acquired(10, 100)
    with pytest.raises(ProtocolError, match="second lease"):
        verifier.lease_acquired(10, 200)


def test_leaked_segment_fails_assert_clean(verifier):
    verifier.segment_created("psm_leak")
    with pytest.raises(ProtocolError, match="psm_leak"):
        verifier.assert_clean()
    verifier.segment_released("psm_leak")
    verifier.assert_clean()


def test_leaked_pool_fails_assert_clean(verifier):
    verifier.pool_spawned(7)
    with pytest.raises(ProtocolError, match="pool"):
        verifier.assert_clean()


def test_lock_ordering_violation_raises(verifier):
    verifier.lock_acquired("runtime", 1)
    with pytest.raises(ProtocolError, match="lock order"):
        verifier.lock_acquired("registry", 0)
    with pytest.raises(ProtocolError, match="lock order"):
        verifier.registry_checkpoint()
    verifier.lock_released("runtime", 1)
    verifier.registry_checkpoint()


def test_lock_holds_are_timed(verifier):
    verifier.lock_acquired("runtime", 1)
    verifier.lock_released("runtime", 1)
    assert len(verifier.lock_holds) == 1
    assert verifier.max_lock_hold() >= 0.0
    verifier.assert_clean()


# -- fault recovery events (pure unit) --------------------------------
def test_pool_respawn_swaps_the_ledger_entry(verifier):
    verifier.pool_spawned(1)
    verifier.pool_respawned(1, 2)
    assert verifier.outstanding()["pools"] == [2]
    verifier.pool_shutdown(2)
    verifier.assert_clean()


def test_respawn_of_an_unknown_pool_raises(verifier):
    with pytest.raises(ProtocolError, match="never spawned"):
        verifier.pool_respawned(9, 10)


def test_phase_retry_requires_the_live_lease(verifier):
    with pytest.raises(ProtocolError, match="no live lease"):
        verifier.phase_retry(10, 100)
    verifier.lease_acquired(10, 100)
    verifier.phase_retry(10, 100)
    verifier.lease_released(10)
    verifier.lease_acquired(10, 200)
    with pytest.raises(ProtocolError, match="stale lease"):
        verifier.phase_retry(10, 100)
    verifier.lease_released(10)
    verifier.assert_clean()


def test_phase_degraded_requires_the_live_lease(verifier):
    with pytest.raises(ProtocolError, match="no live lease"):
        verifier.phase_degraded(10, 100, shard=1)
    verifier.lease_acquired(10, 100)
    verifier.phase_degraded(10, 100, shard=1)
    verifier.lease_released(10)
    verifier.lease_acquired(10, 200)
    with pytest.raises(ProtocolError, match="stale lease"):
        verifier.phase_degraded(10, 100, shard=1)
    verifier.lease_released(10)
    verifier.assert_clean()


def test_verifier_is_opt_in(monkeypatch):
    monkeypatch.delenv("REPRO_CHECKS", raising=False)
    assert protocol.get_verifier() is None
    monkeypatch.setenv("REPRO_CHECKS", "1")
    assert protocol.get_verifier() is not None


# -- instrumented runtime (integration) -------------------------------
@pytest.fixture
def small_answers():
    rng = np.random.default_rng(0)
    records = [
        (int(t), int(w), int(v))
        for t, w, v in zip(rng.integers(0, 30, 200),
                           rng.integers(0, 8, 200),
                           rng.integers(0, 2, 200))
    ]
    return AnswerSet.from_records(records, TaskType.DECISION_MAKING)


@pytest.fixture
def instrumented(monkeypatch):
    """A fresh verifier wired into the runtime hooks, REPRO_CHECKS or
    not — tests must not depend on the environment."""
    from repro.engine import runtime

    verifier = LeaseProtocolVerifier()
    monkeypatch.setattr(runtime, "_VERIFIER", verifier)
    return verifier


def test_runtime_lease_cycle_reports_clean(instrumented, small_answers):
    from repro.engine.runtime import ShardRuntime

    with ShardRuntime(n_shards=2, max_workers=1) as runtime:
        with runtime.lease(small_answers, "D&S") as lease:
            lease.call("init_block")
            out = instrumented.outstanding()
            assert len(out["segments"]) == 3  # tasks/workers/values
            assert len(out["pools"]) == 1
            assert out["leases"] and out["locks"]
            live = instrumented.leases[id(runtime)]
            assert live["dispatches"] == 1
    instrumented.assert_clean()
    assert instrumented.max_lock_hold() > 0.0


def test_runtime_double_release_is_a_protocol_error(
        instrumented, small_answers):
    from repro.engine.runtime import ShardRuntime

    with ShardRuntime(n_shards=2, max_workers=1) as runtime:
        lease = runtime.lease(small_answers, "D&S")
        lease.close()
        # close() is idempotent by contract; forge the guard away to
        # provoke the raw double release the verifier must catch.
        lease._released = False
        with pytest.raises(ProtocolError, match="released twice"):
            lease.close()
    instrumented.assert_clean()


def test_runtime_leaked_segment_is_reported(instrumented, small_answers):
    from repro.engine.runtime import ShardRuntime

    runtime = ShardRuntime(n_shards=2, max_workers=1)
    try:
        runtime.lease(small_answers, "D&S").close()
        with pytest.raises(ProtocolError, match="leaked segment"):
            instrumented.assert_clean()
    finally:
        runtime.close()
    instrumented.assert_clean()
