"""The process tier's transport: pinned workers behind one pipe each.

Contracts:

* a phase is one message per worker slot, a delayed one included, and
  the lease counts what crossed the pipes (messages, pickled bytes,
  worker-side seconds);
* a reply that timed out is never read as a later request's reply;
* a worker-side exception is re-raised on the master with its type and
  message, and the worker keeps serving;
* a reply that cannot cross the pipe comes back as a typed error, and
  the slot serves the next lease;
* a worker owes at most one reply: a second request before it is read
  raises;
* a lease run in a fresh interpreter exits without resource-tracker
  warnings (the tracker is started before any worker is forked).
"""

import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.policy import FaultPolicy, MethodSpec
from repro.core.registry import create
from repro.core.result import FitStats
from repro.core.tasktypes import TaskType
from repro.engine.runtime import ShardRuntime
from repro.exceptions import (
    PhaseTimeoutError,
    ProtocolError,
    WorkerReplyError,
)
from repro.faults import FaultPlan
from tests.fault_arming import armed

SPEC = MethodSpec("D&S", seed=0)


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


def init_blocks(answers, n_shards=2, max_workers=1):
    """``init_block`` on a fresh runtime: the reference replies."""
    with ShardRuntime(n_shards=n_shards, max_workers=max_workers) as rt:
        with rt.lease(answers, SPEC) as lease:
            return lease.call("init_block")


def assert_same_blocks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# -- functions the tests send straight to a worker ---------------------
class _NeedsTwoArgs(Exception):
    """Pickles, but does not unpickle: ``__init__`` wants two args."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


_ORDER: list = []


def _record(tag):
    _ORDER.append(tag)
    return list(_ORDER)


def _raise_value_error():
    raise ValueError("boom 42")


def _return_a_lock():
    return threading.Lock()


def _raise_with_a_lock():
    raise RuntimeError("holding", threading.Lock())


def _raise_unloadable():
    raise _NeedsTwoArgs(1, 2)


class TestOneMessagePerSlot:
    def test_four_shards_on_one_slot_send_one_message(self):
        with ShardRuntime(n_shards=4, max_workers=1) as rt:
            with rt.lease(build_answers(), SPEC) as lease:
                before = dict(lease.ipc)
                blocks = lease.call("init_block")
                after = dict(lease.ipc)
        assert len(blocks) == 4
        assert after["messages"] - before["messages"] == 1
        assert after["bytes_out"] > before["bytes_out"]
        assert after["bytes_in"] > before["bytes_in"]
        assert after["worker_seconds"] > before["worker_seconds"]

    def test_one_message_per_slot_and_none_for_idle_slots(self):
        with ShardRuntime(n_shards=4, max_workers=2) as rt:
            with rt.lease(build_answers(), SPEC) as lease:
                # The lease's sync reached both workers.
                assert lease.ipc["messages"] == 2
                lease.call("init_block")
                assert lease.ipc["messages"] == 4
                # Shards 1 and 3 both live on slot 1: one message.
                lease.call("init_block", only=[1, 3])
                assert lease.ipc["messages"] == 5

    def test_fit_stats_carry_the_lease_counters(self):
        answers = build_answers()
        with ShardRuntime(n_shards=2, max_workers=2) as rt, \
                rt.lease(answers, SPEC) as runner:
            stats = create(SPEC).fit(answers,
                                     shard_runner=runner).fit_stats
            assert stats.ipc == runner.ipc
        assert stats.ipc["messages"] > 2
        assert stats.ipc["bytes_in"] > 0
        assert 0 < stats.ipc["worker_seconds"] <= stats.em_seconds
        assert " ipc " in stats.summary()
        assert stats.as_dict()["ipc"] == stats.ipc

    def test_in_process_fits_report_no_ipc(self):
        stats = create(SPEC).fit(build_answers()).fit_stats
        assert stats.ipc is None
        assert " ipc " not in stats.summary()

    def test_fold_adds_the_counters_and_keeps_the_default_unset(self):
        stats = FitStats(iterations=3)
        assert stats.ipc is None
        runner = types.SimpleNamespace(ipc={
            "messages": 3, "bytes_out": 10, "bytes_in": 20,
            "worker_seconds": 0.5})
        stats.record_runner(runner)
        stats.record_runner(runner)
        assert stats.ipc == {"messages": 6, "bytes_out": 20,
                             "bytes_in": 40, "worker_seconds": 1.0}
        assert "ipc 6 msgs 0.0kB out 0.0kB in worker 1000.0ms" in (
            stats.summary())


class TestLateReplies:
    def test_next_lease_never_reads_a_timed_out_reply(self):
        first, second = build_answers(seed=0), build_answers(seed=1)
        want = init_blocks(second)
        assert not all(np.array_equal(a, b) for a, b in
                       zip(init_blocks(first), want))
        plan = FaultPlan.parse("delay:phase=init_block,seconds=2")
        with ShardRuntime(n_shards=2, max_workers=1) as rt:
            lease = rt.lease(first, SPEC,
                             fault_policy=FaultPolicy(
                                 deadline=1.0, retries=0, degrade=False))
            with armed(plan), pytest.raises(PhaseTimeoutError):
                lease.call("init_block")
            stale_pid = rt._workers[0].pid
            lease.close()
            # Give the stale reply time to land on the old pipe.
            time.sleep(1.5)
            with rt.lease(second, SPEC) as lease2:
                got = lease2.call("init_block")
                assert rt._workers[0].pid != stale_pid
        assert_same_blocks(got, want)


class TestWorkerExceptions:
    def test_phase_exception_keeps_type_message_and_worker(self):
        answers = build_answers()
        with ShardRuntime(n_shards=2, max_workers=1) as rt:
            with rt.lease(answers, SPEC) as lease:
                pid = rt._workers[0].pid
                with pytest.raises(AttributeError,
                                   match="no_such_phase"):
                    lease.call("no_such_phase")
                got = lease.call("init_block")
                assert rt._workers[0].pid == pid
                assert lease.fault_events["respawns"] == 0
        assert_same_blocks(got, init_blocks(answers))

    def test_a_phase_raising_on_every_slot_leaves_no_reply_owed(self):
        answers = build_answers()
        with ShardRuntime(n_shards=2, max_workers=2) as rt:
            with rt.lease(answers, SPEC) as lease:
                with pytest.raises(AttributeError, match="no_such_phase"):
                    lease.call("no_such_phase")
                assert not any(worker.owed for worker in rt._workers)
                got = lease.call("init_block")
                assert not any(lease.fault_events.values())
        assert_same_blocks(got, init_blocks(answers, max_workers=2))

    def test_exception_carries_the_worker_traceback(self):
        with ShardRuntime(n_shards=1, max_workers=1) as rt:
            with rt.lease(build_answers(), SPEC):
                worker = rt._workers[0]
                with pytest.raises(ValueError, match="boom 42") as info:
                    worker.call(_raise_value_error)
                assert "_raise_value_error" in str(info.value.__cause__)
                assert worker.owed == 0 and not worker.lost


class TestUnpicklableReplies:
    @pytest.mark.parametrize("fn, named", [
        (_return_a_lock, "result"),
        (_raise_with_a_lock, "RuntimeError"),
        (_raise_unloadable, "_NeedsTwoArgs"),
    ])
    def test_typed_error_and_the_slot_serves_the_next_lease(self, fn,
                                                            named):
        answers = build_answers()
        with ShardRuntime(n_shards=2, max_workers=1) as rt:
            with rt.lease(answers, SPEC):
                worker = rt._workers[0]
                with pytest.raises(WorkerReplyError, match=named):
                    worker.call(fn, timeout=30.0)
                assert worker.owed == 0 and not worker.lost
            with rt.lease(answers, SPEC) as lease:
                got = lease.call("init_block")
                assert rt._workers[0] is worker
                assert not any(lease.fault_events.values())
        assert_same_blocks(got, init_blocks(answers))


class TestOneReplyOwed:
    def test_a_second_request_before_the_reply_raises(self):
        with ShardRuntime(n_shards=1, max_workers=1) as rt:
            with rt.lease(build_answers(), SPEC):
                worker = rt._workers[0]
                worker.send(_record, "a")
                with pytest.raises(ProtocolError, match="owes"):
                    worker.send(_record, "b")
                assert worker.result(30.0) == ["a"]
                assert not worker.owed
                assert worker.call(_record, "c", timeout=30.0) == ["a", "c"]


class TestDelayedPhase:
    def test_a_delayed_phase_is_one_message(self):
        """The delay rides in the phase message: the worker sleeps for
        the summed delay of its delayed shards, then runs the phase."""
        answers = build_answers()
        plan = FaultPlan.parse("delay:phase=init_block,count=2,seconds=0.2")
        with ShardRuntime(n_shards=2, max_workers=1) as rt:
            with rt.lease(answers, SPEC,
                          fault_policy=FaultPolicy(deadline=30.0)) as lease:
                with armed(plan):
                    started = time.perf_counter()
                    got = lease.call("init_block")
                    waited = time.perf_counter() - started
                # The sync, then the phase with its delay: two messages.
                assert lease.ipc["messages"] == 2
                assert not any(lease.fault_events.values())
        assert plan.fired["delay"] == 2
        assert waited >= 0.4
        assert_same_blocks(got, init_blocks(answers))

    def test_a_delay_past_the_deadline_is_recovered_like_a_hang(self):
        answers = build_answers()
        plan = FaultPlan.parse("delay:phase=init_block,seconds=5")
        with ShardRuntime(n_shards=2, max_workers=1) as rt:
            with rt.lease(answers, SPEC,
                          fault_policy=FaultPolicy(deadline=1.0)) as lease:
                with armed(plan):
                    got = lease.call("init_block")
                events = dict(lease.fault_events)
        # One delayed shard stalls its slot's one message, so both
        # shards of the slot time out; the retry runs undelayed.
        assert plan.fired["delay"] == 1
        assert events["timeouts"] == 2
        assert events["respawns"] == 1
        assert_same_blocks(got, init_blocks(answers))


_TRACKER_SCRIPT = """
import numpy as np
from repro.core.answers import AnswerSet
from repro.core.registry import create
from repro.core.tasktypes import TaskType
from repro.engine.runtime import ShardRuntime

rng = np.random.default_rng(0)
answers = AnswerSet(rng.integers(0, 30, 200), rng.integers(0, 6, 200),
                    rng.integers(0, 2, 200), TaskType.DECISION_MAKING,
                    n_tasks=30, n_workers=6)
with ShardRuntime(n_shards=4, max_workers=2) as runtime:
    for method in ("D&S", "ZC"):
        with runtime.lease(answers, method, {"seed": 0}) as lease:
            create(method, seed=0).fit(answers, shard_runner=lease)
print("OK")
"""


def test_lease_in_a_fresh_interpreter_leaves_no_tracker_warning():
    """Workers are forked before any segment exists; without the
    tracker started first, each would run a tracker of its own that
    reports the master's segments as leaked when the worker exits."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c",
         _TRACKER_SCRIPT],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert "resource_tracker" not in proc.stderr
    assert "leaked" not in proc.stderr
