"""Production node: the materialised view at the network's root."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..deltas import (
    ColumnDelta,
    Delta,
    as_row_delta,
    interned_bag_insert,
    merged,
)
from .base import Node

if TYPE_CHECKING:
    from ..engine import BatchContext

ChangeCallback = Callable[[Delta], None]


class ProductionNode(Node):
    """Holds the view's bag of result rows and notifies subscribers.

    Outside a batch every applied delta fires the change callbacks
    immediately.  While the engine's :class:`~repro.rete.engine.BatchContext`
    is open, the first non-empty ``apply`` enlists the node in the batch's
    dirty list and buffers its partial output deltas; the engine's merge
    phase then calls :meth:`flush` on the enlisted nodes only, which fires
    the callbacks exactly once with the consolidated net delta — or not at
    all when the batch nets to nothing.  A node with buffered deltas stays
    enlisted until flushed, so changes that reach it from a write issued by
    another view's callback mid-merge join the same net delta.
    """

    def __init__(self, schema, interner=None):
        super().__init__(schema)
        self.results: dict[tuple, int] = {}
        #: result-bag keys are interned through the engine row pool when
        #: given (see :class:`~repro.rete.deltas.RowInterner`)
        self.interner = interner
        #: the owning engine's batch context and this view's registration
        #: rank (the merge flushes in that order); set by the engine
        self.batch: "BatchContext | None" = None
        self.order = 0
        self._callbacks: list[ChangeCallback] = []
        #: buffered partial deltas; non-empty exactly while enlisted
        self._pending: list[Delta] = []

    def on_change(self, callback: ChangeCallback) -> None:
        self._callbacks.append(callback)

    def flush(self) -> None:
        """Fire callbacks once with the buffered net output delta."""
        pending, self._pending = self._pending, []
        net = pending[0] if len(pending) == 1 else merged(pending)
        if net:
            for callback in self._callbacks:
                callback(net)

    def apply(self, delta: "Delta | ColumnDelta", side: int) -> None:
        # transition-sensitive boundary: consolidate columnar batches so a
        # transient delete/insert pair can never trip the negative check
        delta = as_row_delta(delta)
        real = Delta()
        interner = self.interner
        for row, multiplicity in delta.items():
            before = self.results.get(row, 0)
            after = interned_bag_insert(self.results, row, multiplicity, interner)
            if after < 0:
                raise AssertionError(
                    f"view multiplicity went negative for row {row!r}"
                )
            if after != before:
                real.add(row, after - before)
        if not real:
            return
        pending = self._pending
        if pending:
            pending.append(real)
        elif self.batch is not None and self.batch.open:
            pending.append(real)
            self.batch.dirty.append(self)
        else:
            for callback in self._callbacks:
                callback(real)

    def dispose(self) -> None:
        # a view detached mid-merge is not notified of its buffered deltas
        self._pending = []
        if self.interner is not None:
            self.interner.release_all(self.results)

    def multiset(self) -> dict[tuple, int]:
        return dict(self.results)

    def memory_size(self) -> int:
        return len(self.results)

    def memory_cells(self) -> int:
        return sum(len(row) for row in self.results)
