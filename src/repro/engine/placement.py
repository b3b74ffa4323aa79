"""Shard placement: which answers go to which task-range shard, and when
the cuts are recomputed.

A delta refit is valid only over the exact shard cuts its cached
:class:`~repro.inference.sharded.ShardState` was fitted on, so every
tier that keeps a warm shard layout between fits decides placement
here, by one set of rules (:meth:`Placement._refresh`):

* **reuse** — the same answer object again, or a stream that did not
  grow at all: nothing moves;
* **extend** — the same ``stream_key`` and append-only growth: only the
  new answer tail (possibly empty, when only the task, worker or label
  space grew) is task-sorted, split against the pinned cuts and
  appended as one more *epoch* (new tasks extend the last shard);
* **place** — anything else: fresh answer-balanced cuts over the whole
  answer set, as one epoch.  Growth the pinned cuts no longer hold
  (:func:`cuts_hold`: the stream doubled since they were computed) or
  a layout already holding :data:`MAX_EPOCHS` epochs re-places too;
* **adopt** — a persisted state's pinned cuts over the whole answer
  set, as one epoch (:meth:`Placement.adopt`, the recovery path).

:class:`Placement` keeps that decision, the append-only tripwire and
the counters.  Its storage backends only store what it decides: the
in-process :class:`~repro.engine.runtime.SerialShardSession` keeps
per-shard arrays, the process-tier
:class:`~repro.engine.runtime.ShardRuntime` writes shared-memory
segments and ships each :class:`Layout` change to its workers.  Each
process that runs phases keeps its copy of the layout in one
:class:`_ShardHost` — the session, every pinned worker, and the
master's degraded path — so a shard holds the same bytes, and runs
the same code, wherever it is built.

A shard's arrays are its epoch slices in epoch order.  They hold the
answers ``ShardedAnswerSet(answers, n_shards, task_cuts=cuts)`` would
hold, each task's in arrival order, as a fresh stable task-sort keeps
them; but a shard extended by later epochs is grouped by epoch, not
wholly sorted by task.  A fit over it therefore agrees with a fit over
the freshly sorted shard to the last ulp (per-worker sums run in
another order), not bit for bit.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Sequence

import numpy as np

from ..core.answers import AnswerSet
from ..core.framework import radix_argsort
from ..core.policy import MethodSpec
from ..core.registry import method_class
from ..core.shards import AnswerShard, ShardedAnswerSet
from ..exceptions import EngineError, ProtocolError

#: Epochs a layout may hold.  A shard's arrays are its epoch slices
#: concatenated, so an extend past this re-places instead: one sort
#: compacts the layout back to one epoch.  A placement or an adoption
#: counts as one epoch.
MAX_EPOCHS = 16

#: Order of the answer arrays in every per-shard triple.
FIELDS = ("tasks", "workers", "values")

#: EM specs a :class:`_ShardHost` keeps between fits, the least
#: recently configured evicted first.  A mix of refreshes and reads
#: leases one spec per method and kwargs: ``process_mixed_reads``
#: leases 4 (D&S and KOS, each as a refresher with a tolerance and as
#: a reader with default kwargs), and all 4 stay warm.
MAX_SPECS = 4


def _sizes(answers: AnswerSet) -> tuple[int, int, int]:
    return (answers.n_tasks, answers.n_workers, answers.n_choices)


def cuts_hold(answers: AnswerSet, placed_answers: int, placed_tasks: int,
              base_answers: int) -> bool:
    """Whether cuts placed over ``placed_answers`` answers on
    ``placed_tasks`` tasks, and computed when the stream held
    ``base_answers``, still serve ``answers``.

    They do while the stream only grew and has not doubled since the
    cuts were computed.  Growth under pinned cuts piles into the last
    shard, so past the doubling the layout is re-placed to rebalance.
    """
    return (answers.n_answers >= placed_answers
            and answers.n_tasks >= placed_tasks
            and answers.n_answers <= 2 * max(base_answers, 1))


def cuts_align(ranges, state) -> bool:
    """Whether shard task ``ranges`` lie on ``state``'s pinned cuts (the
    last range may have grown with new tasks): the layout a delta refit
    from the cached :class:`~repro.inference.sharded.ShardState`
    needs."""
    cuts = state.task_cuts
    return (len(ranges) == state.n_shards
            and all(start == cuts[k] for k, (start, _) in enumerate(ranges))
            and all(stop == cuts[k + 1]
                    for k, (_, stop) in enumerate(ranges[:-1])))


@dataclasses.dataclass
class Layout:
    """Where a placed answer set's shards lie.

    ``cuts`` are the ``n_shards + 1`` task-range boundaries and
    ``sizes`` the global ``(n_tasks, n_workers, n_choices)``.
    ``epochs`` list the placed answers in arrival chunks: epoch ``(lo,
    hi, bounds)`` holds positions ``[lo, hi)`` of the stored arrays,
    sorted by task (a single shard keeps arrival order), with shard
    ``k``'s answers at ``bounds[k]``.
    """

    cuts: list[int]
    sizes: tuple[int, int, int]
    epochs: list[tuple[int, int, list[tuple[int, int]]]]

    @property
    def length(self) -> int:
        """Answers placed."""
        return self.epochs[-1][1]

    def grow(self, epoch: tuple, sizes: tuple[int, int, int]) -> None:
        """Fold in one appended epoch (new tasks extend the last
        shard)."""
        self.epochs.append(epoch)
        self.sizes = sizes
        self.cuts[-1] = sizes[0]

    def copy(self) -> "Layout":
        return Layout(list(self.cuts), self.sizes,
                      [(lo, hi, list(bounds))
                       for lo, hi, bounds in self.epochs])

    def slices(self, views, k: int) -> tuple:
        """Shard ``k``'s ``(tasks, workers, values)``: its slice of
        every epoch of the stored flat arrays ``views`` (field -> array),
        concatenated in order (a zero-copy slice for one epoch)."""
        arrays = []
        for field in FIELDS:
            view = views[field]
            pieces = [view[lo:hi] for _, _, bounds in self.epochs
                      for lo, hi in (bounds[k],) if hi > lo]
            arrays.append(pieces[0] if len(pieces) == 1
                          else np.concatenate(pieces) if pieces
                          else view[0:0])
        return tuple(arrays)

    def shard(self, arrays: tuple, k: int) -> AnswerShard:
        """The :class:`AnswerShard` ``k`` over its ``arrays``."""
        tasks, workers, values = arrays
        n_tasks, n_workers, n_choices = self.sizes
        return AnswerShard(
            tasks=tasks, workers=workers, values=values,
            task_start=self.cuts[k], task_stop=self.cuts[k + 1],
            n_tasks=n_tasks, n_workers=n_workers, n_choices=n_choices,
            index=k,
        )


class _ShardHost:
    """One process's copy of a placed layout: the per-shard answer
    arrays, the :class:`AnswerShard`\\ s over them and the EM specs
    kept between fits.

    A shard's arrays are given (:meth:`place`) or sliced from the
    stored flat arrays ``views`` (field -> array) on first use; an
    extend concatenates its epoch onto the arrays held.  Specs are kept
    per :class:`~repro.core.policy.MethodSpec`, at most
    :data:`MAX_SPECS`, and one kept for the same construction is reused
    when it accepts the grown sizes in place
    (:meth:`~repro.inference.sharded.ShardedEMSpec.resize`): its
    per-shard frozen operators then survive the fit boundary.  An
    extend drops only the operators of the shards it touched and a
    placement drops every spec, so a kept spec never reads stale
    arrays.
    """

    def __init__(self, views: dict | None = None) -> None:
        self.views = views if views is not None else {}
        self.layout: Layout | None = None
        self.arrays: dict[int, tuple] = {}
        self._shards: dict[int, AnswerShard] = {}
        #: MethodSpec -> spec, least recently configured first.
        self._specs: dict[MethodSpec, object] = {}
        #: The spec phases run on, made current by :meth:`configure`.
        self.spec = None
        self.spec_reuses = 0

    @property
    def n_shards(self) -> int:
        return len(self.layout.cuts) - 1

    def place(self, layout: Layout | None,
              arrays: Sequence[tuple] = ()) -> None:
        """Adopt a full (re-)placement, shard ``k`` over ``arrays[k]``
        when given.  The shards and specs held belonged to the old
        layout."""
        self.layout = layout
        self.arrays = dict(enumerate(arrays))
        self._shards = {}
        self._specs = {}
        self.spec = None

    def extend(self, epoch: tuple, sizes: tuple[int, int, int],
               tail: Sequence | None = None) -> None:
        """Fold one appended epoch into the layout.

        ``tail`` holds the epoch's ``(tasks, workers, values)`` from
        its first position on (by default its slice of ``views``).
        Held arrays grow by their shard's piece of it; shards are
        rebuilt for the new global sizes and the last shard's grown
        task range.
        """
        self.layout.grow(epoch, sizes)
        start, stop, bounds = epoch
        if tail is None:
            tail = [self.views[field][start:stop] for field in FIELDS]
        for k, (lo, hi) in enumerate(bounds):
            if hi <= lo:
                continue
            for spec in self._specs.values():
                spec.invalidate_shard(k)
            if k in self.arrays:
                self.arrays[k] = tuple(
                    np.concatenate([held, piece[lo - start:hi - start]])
                    for held, piece in zip(self.arrays[k], tail))
        self._shards = {}

    def swap(self, k: int, arrays: tuple) -> None:
        """Hold shard ``k``'s answers in ``arrays`` instead (the same
        bytes stored elsewhere, e.g. a spill file's memory-maps)."""
        self.arrays[k] = arrays
        self._shards.pop(k, None)

    def configure(self, method: MethodSpec | None, build=None):
        """Make ``method``'s EM spec current, and return it.

        The spec kept for ``method`` is reused if it accepts the
        layout's sizes; otherwise ``build(*sizes)`` makes one — by
        default the registry's method rebuilt from ``method``, as every
        process builds it.  A ``None`` method is never kept.
        """
        sizes = self.layout.sizes
        spec = self._specs.pop(method, None)
        if spec is not None and spec.resize(*sizes):
            self.spec_reuses += 1
        else:
            if build is None:
                build = method_class(method.name)(
                    **method.kwargs).make_em_spec
            spec = build(*sizes)
        if method is not None:
            self._specs[method] = spec
            if len(self._specs) > MAX_SPECS:
                del self._specs[next(iter(self._specs))]
        self.spec = spec
        return spec

    def shard(self, k: int) -> AnswerShard:
        """Shard ``k``, built on first use and kept across fits."""
        shard = self._shards.get(k)
        if shard is None:
            if k not in self.arrays:
                self.arrays[k] = self.layout.slices(self.views, k)
            shard = self._shards[k] = self.layout.shard(self.arrays[k], k)
        return shard

    def run(self, k: int, phase: str, args: tuple):
        """Run ``phase`` of the current spec on shard ``k``."""
        shard = self.shard(k)
        return getattr(self.spec, phase)(shard, self.spec.shard_ops(shard),
                                         *args)

    def replay(self, log: Sequence[tuple]) -> None:
        """Re-run a phase log's ``(shard, phase, args)`` entries in
        order.  Phases are deterministic, so the per-shard ``ops``
        they write come back bit for bit; their results are dropped."""
        for k, phase, args in log:
            self.run(k, phase, args)


class Placement:
    """The placement decision for one warm shard layout, shared by its
    storage backends.

    A backend stores what :meth:`_refresh` and :meth:`adopt` decide,
    through two hooks called once the new layout is in ``_layout``:
    ``_store_placed(sharded)`` after a placement or an adoption, with
    the :class:`~repro.core.shards.ShardedAnswerSet` to store, and
    ``_store_tail(tail)`` after an extend, with the new epoch's
    ``(tasks, workers, values)`` sorted by task (epoch position ``p``
    is ``tail[i][p - lo]``).

    Counters, monotonically increasing, for tests and benchmarks:
    ``placements`` (places and adoptions), ``extends`` and ``reuses``;
    ``last_placement`` names the latest decision (``"place"``,
    ``"adopt"``, ``"extend"`` or ``"reuse"``).
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise EngineError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        self.placements = 0
        self.extends = 0
        self.reuses = 0
        self.last_placement: str | None = None
        self._forget()

    def _forget(self) -> None:
        """Drop the layout (its storage is gone)."""
        self._layout: Layout | None = None
        self._base = 0
        self._dtype: np.dtype | None = None
        self._stream_key = None
        # Weak: pinning the caller's full answer set between fits would
        # double its resident footprint; a dead referent merely disables
        # same-object reuse (and, being weak, can never alias a new
        # object the way a recycled id() could).
        self._answers_ref: weakref.ref | None = None
        self._prefix_mark: tuple[int, int, int] = (0, -1, -1)

    def _store_placed(self, sharded: ShardedAnswerSet) -> None:
        raise NotImplementedError

    def _store_tail(self, tail: list) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _refresh(self, answers: AnswerSet, stream_key=None) -> None:
        """Reuse, extend or place the layout for ``answers``.

        ``stream_key`` is the hashable identity of the stream behind
        ``answers``.  Passing the same key again asserts that the new
        answers extend the placed ones element for element (append-only
        growth); callers change the key when that stops being true.
        """
        placed = self._answers_ref() if self._answers_ref else None
        if self._layout is not None and answers is placed:
            self._count("reuse")
            return
        if not self._extends(answers, stream_key):
            self._lay(ShardedAnswerSet(answers, self.n_shards), answers,
                      base=answers.n_answers)
            self._settle(answers, stream_key, "place")
        elif (answers.n_answers > self._layout.length
              or _sizes(answers) != self._layout.sizes):
            self._extend(answers)
            self._settle(answers, stream_key, "extend")
        else:
            self._settle(answers, stream_key, "reuse")

    def adopt(self, answers: AnswerSet, state, *, stream_key=None) -> None:
        """Place ``answers`` under a persisted
        :class:`~repro.inference.sharded.ShardState`'s pinned cuts (the
        recovery path).

        The full arrays are sorted once under the state's cuts, so each
        shard holds the uninterrupted layout's answers, each task's in
        arrival order, as one epoch.  The state's ``base_answers``
        carries forward, so the rebalance rule keeps counting from the
        original placement, and a fit from the state over the adopted
        layout is a true delta refit.
        """
        cuts = state.extended_cuts(answers.n_tasks)
        if len(cuts) - 1 != self.n_shards:
            raise EngineError(
                f"cannot adopt a {len(cuts) - 1}-shard state into a "
                f"{self.n_shards}-shard layout"
            )
        self._lay(ShardedAnswerSet(answers, self.n_shards, task_cuts=cuts),
                  answers, base=state.base_answers)
        self._settle(answers, stream_key, "adopt")

    # ------------------------------------------------------------------
    def _count(self, kind: str) -> None:
        if kind == "extend":
            self.extends += 1
        elif kind == "reuse":
            self.reuses += 1
        else:
            self.placements += 1
        self.last_placement = kind

    def _extends(self, answers: AnswerSet, stream_key) -> bool:
        """Whether ``answers`` may extend the placed layout: the same
        stream, grown in every size and within the pinned cuts, with
        the same value dtype and an epoch to spare."""
        layout = self._layout
        return (layout is not None
                and stream_key is not None
                and stream_key == self._stream_key
                and all(now >= then for now, then
                        in zip(_sizes(answers), layout.sizes))
                and cuts_hold(answers, layout.length, layout.cuts[-1],
                              self._base)
                and answers.values.dtype == self._dtype
                and len(layout.epochs) < MAX_EPOCHS)

    def _settle(self, answers: AnswerSet, stream_key, kind: str) -> None:
        """Record a decision for ``answers``: count it, note the stream
        they belong to, and remember their arrival-order endpoints (the
        extend tripwire's reference points)."""
        self._count(kind)
        self._stream_key = stream_key
        self._answers_ref = weakref.ref(answers)
        n = answers.n_answers
        self._prefix_mark = ((n, int(answers.tasks[0]),
                              int(answers.tasks[n - 1])) if n
                             else (0, -1, -1))

    def _lay(self, sharded: ShardedAnswerSet, answers: AnswerSet,
             base: int) -> None:
        """Lay ``sharded`` out as a one-epoch layout and store it."""
        bounds = []
        offset = 0
        for shard in sharded.shards:
            bounds.append((offset, offset + shard.n_answers))
            offset += shard.n_answers
        cuts = [sharded.shards[0].task_start] + [
            shard.task_stop for shard in sharded.shards]
        self._layout = Layout(cuts, _sizes(answers),
                              [(0, answers.n_answers, bounds)])
        self._base = base
        self._dtype = answers.values.dtype
        self._store_placed(sharded)

    def _extend(self, answers: AnswerSet) -> None:
        """Append the new answer tail as one epoch and store it."""
        # Cheap tripwire for the caller's append-only contract: the
        # placed prefix of the arrival-order arrays must still start and
        # end with the same tasks.  (A full comparison would cost as
        # much as a copy.)
        mark_len, first_task, last_task = self._prefix_mark
        if mark_len and (int(answers.tasks[0]) != first_task
                         or int(answers.tasks[mark_len - 1]) != last_task):
            raise ProtocolError(
                "stream_key reused but the previously placed answers "
                "changed; extension requires append-only growth"
            )
        layout = self._layout
        old = layout.length
        tail = [answers.tasks[old:], answers.workers[old:],
                answers.values[old:]]
        cuts = layout.cuts[:-1] + [answers.n_tasks]
        if len(cuts) > 2:
            # Each shard's piece of the epoch must be one contiguous
            # slice; a single shard keeps arrival order (the plain-path
            # invariant).
            order = radix_argsort(tail[0])
            tail = [array[order] for array in tail]
            pos = np.searchsorted(tail[0], cuts, side="left")
        else:
            pos = [0, len(tail[0])]
        bounds = [(old + int(pos[k]), old + int(pos[k + 1]))
                  for k in range(len(cuts) - 1)]
        layout.grow((old, answers.n_answers, bounds), _sizes(answers))
        self._store_tail(tail)
