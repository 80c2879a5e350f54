"""Query accounting shared by value and independence oracles.

A ledger belongs to exactly one algorithm run. Oracle handles hold a
reference to it and bump the matching counter on every query, so after a
run the counters are the exact number of oracle invocations. Counters only
ever increase; ``reset`` replaces the ledger for a new run instead.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInputError


@dataclass
class QueryLedger:
    value_queries: int = 0
    independence_queries: int = 0

    def charge_value(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("query counts never decrease")
        self.value_queries += count

    def charge_independence(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("query counts never decrease")
        self.independence_queries += count

    def snapshot(self) -> tuple[int, int]:
        return (self.value_queries, self.independence_queries)


class Counted:
    """A counted oracle handle over ground set ``{0, ..., n - 1}``.

    Holds the ledger its queries charge; clones share the instance data and
    differ only in the ledger they charge.
    """

    def __init__(self, n: int, ledger: Optional[QueryLedger] = None):
        try:
            n = operator.index(n)
        except TypeError:
            raise InvalidInputError(f"ground set size n must be an integer, got {n!r}") from None
        if n < 0:
            raise InvalidInputError("ground set size must be non-negative")
        self.n = n
        self.ledger = ledger if ledger is not None else QueryLedger()

    def _check_id(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise InvalidInputError(f"element id {u} outside ground set of size {self.n}")

    def _id_set(self, ids, field: str) -> frozenset[int]:
        """``ids`` as a set of integer ids of this ground set, else an error naming ``field``."""
        try:
            members = frozenset(map(operator.index, ids))
        except TypeError:
            raise InvalidInputError(f"{field} must hold integer element ids, got {ids!r}") from None
        if any(not 0 <= u < self.n for u in members):
            raise InvalidInputError(f"{field} outside ground set of size {self.n}")
        return members

    def with_ledger(self, ledger: QueryLedger):
        """Shallow clone bound to another ledger (instance data is shared)."""
        clone = _shallow_copy(self)
        clone.ledger = ledger
        return clone

    def uncounted(self):
        """Clone whose queries are not visible to the run's ledger."""
        return self.with_ledger(QueryLedger())

    def ground(self) -> range:
        return range(self.n)


class View(Counted):
    """A handle that answers through another handle, ``_base``.

    The accounting rule for every view: a query answers with exactly one
    query to its base, or, when the view decides alone, charges one query to
    its own ledger. Either way one call costs one tick, through any
    composition of views. The view shares its base's ledger, and a clone
    rebinds the whole chain below it to the new ledger.
    """

    def __init__(self, base: Counted, n: Optional[int] = None):
        self._base = base
        self.n = base.n if n is None else n
        self.ledger = base.ledger

    def with_ledger(self, ledger: QueryLedger):
        clone = _shallow_copy(self)
        clone._base = self._base.with_ledger(ledger)
        clone.ledger = ledger
        return clone


def _shallow_copy(handle):
    """A shallow copy of ``handle``, set attribute by attribute.

    ``copy.copy`` fills the copy's ``__dict__`` in one update, and CPython
    then reads the copy's attributes through that dict instead of the
    compact layout of a normally built instance. A trial's oracle handle is
    such a clone, and the dict-backed form measured about 10% more time per
    coverage query.
    """
    clone = object.__new__(type(handle))
    for name, value in vars(handle).items():
        setattr(clone, name, value)
    return clone
