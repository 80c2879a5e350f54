"""Query accounting shared by value and independence oracles.

A ledger belongs to exactly one algorithm run; each trial gets a fresh one.
Oracle handles hold a reference to it, and every query adds one to the
matching counter, so after a run the counters are the exact number of
oracle invocations.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInputError


def checked_int(value, field: str, least: int = 0) -> int:
    """``value`` as an int of at least ``least``, else InvalidInputError naming ``field``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{field} must be an integer, got {value!r}") from None
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise InvalidInputError(f"{field} must be {bound}")
    return value


def checked_real(
    value, field: str, low: float = -math.inf, high: float = math.inf,
    *, open_low: bool = False, open_high: bool = False,
) -> float:
    """``value`` as a float between ``low`` and ``high``, else InvalidInputError naming ``field``.

    Both ends are closed unless opened. A bool, a string, None, NaN and an
    infinite value are refused whatever the bounds.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        rule = "a real number"
    elif not math.isinf(value) and (low < value if open_low else low <= value) and (
        value < high if open_high else value <= high
    ):
        return float(value)
    # NaN fails both bound tests above, so it is named by the bounds, if any
    elif math.isinf(value) or -low == high == math.inf:
        rule = "finite"
    elif high < math.inf:
        rule = f"in {'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
    elif low == 0.0:
        rule = "positive" if open_low else "non-negative"
    else:
        rule = f"{'above' if open_low else 'at least'} {low:g}"
    raise InvalidInputError(f"{field} must be {rule}, got {value!r}")


@dataclass
class QueryLedger:
    value_queries: int = 0
    independence_queries: int = 0

    def charge_value(self) -> None:
        self.value_queries += 1

    def charge_independence(self) -> None:
        self.independence_queries += 1

    def snapshot(self) -> tuple[int, int]:
        return (self.value_queries, self.independence_queries)


def checked_ledger(ledger) -> QueryLedger:
    """``ledger`` if it is a QueryLedger, else InvalidInputError naming ``ledger``.

    Runs when a handle is built or cloned, never per query.
    """
    if not isinstance(ledger, QueryLedger):
        raise InvalidInputError(f"ledger must be a QueryLedger, got {ledger!r}")
    return ledger


class Counted:
    """A counted oracle handle over ground set ``{0, ..., n - 1}``.

    Holds the ledger its queries charge; clones share the instance data and
    differ only in the ledger they charge.
    """

    def __init__(self, n: int, ledger: Optional[QueryLedger] = None):
        self.n = checked_int(n, "ground set size n")
        self.ledger = QueryLedger() if ledger is None else checked_ledger(ledger)

    def _check_id(self, u) -> int:
        """``u`` as an integer id of this ground set, else InvalidInputError naming it.

        The one place an element-id error is built: loops that test ids
        inline call it on the id that failed.
        """
        try:
            u = operator.index(u)
        except TypeError:
            raise InvalidInputError(f"element id {u!r} is not an integer") from None
        if not 0 <= u < self.n:
            raise InvalidInputError(f"element id {u} outside ground set of size {self.n}")
        return u

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
        clone.ledger = checked_ledger(ledger)
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
    rebinds the whole chain below it to the new ledger. A view with nothing
    to add to a query forwards the caller's members as given, uncopied:
    no handle keeps or mutates a caller's list (a prefix cache stores its
    own copy), so the caller may extend or shrink it after the call.
    """

    def __init__(self, base: Counted, n: Optional[int] = None):
        self._base = base
        self.n = base.n if n is None else n
        self.ledger = base.ledger

    def with_ledger(self, ledger: QueryLedger):
        clone = _shallow_copy(self)
        # the chain below checks ``ledger``: it ends at a Counted.with_ledger
        clone._base = self._base.with_ledger(ledger)
        clone.ledger = ledger
        return clone


class PrefixCached(Counted):
    """A handle that answers from the cache of one prefix ``P``.

    ``_prefix`` is one tuple ``(P, answer for P, state...)``: ``P`` is a list
    copy of a previous query's members-but-last, and the state is the kind's
    own (a coverage union mask, cut gains and total, a per-client best,
    graphic component labels). A list equal to ``P`` returns the stored
    answer; ``P`` plus one id is answered by ``_extend`` once that id passed
    ``_check_id``. Any other query (and a tuple, set or array equal to
    ``P``) first replaces the cache by one for its own members-but-last, or
    for itself when empty. When those are a non-empty ``P`` plus one
    appended id ``v``, and every one of them is a plain int, ``_grow``
    may derive the new tuple from the cached one once ``v`` passed its check;
    otherwise ``_cache`` rebuilds it and checks every id (from the empty
    prefix, a rebuild of one id costs no more). This is the one place where
    a query is compared with a cached one (by ``==``); an id that is not a
    plain int is never matched into a grown prefix, so it is read by the
    rebuild's check, and an id whose ``==`` has no truth value (a numpy
    array) is named by the id check.

    The tuple is replaced whole, only after its ids passed their check, and
    never mutated, so clones that share it stay correct. A grown tuple
    equals the one a rebuild of the same prefix would give in every answer,
    bit for bit. Value oracles answer ``_value`` with this rule, matroids
    ``_indep``.
    """

    _prefix: tuple

    def _answer(self, members: Iterable[int]):
        cache = self._prefix
        prefix = cache[0]
        query = members
        try:
            # only a list is compared as given: an array would compare elementwise
            if members.__class__ is list and members == prefix:
                return cache[1]
            # a copy: the cache keeps it, and callers may extend their list in place
            query = list(members)
            if not query:
                return self._cache(query)[1]
            u = query.pop()
            longer = len(query) - len(prefix)
            if (
                longer == 1
                and prefix
                and query[:-1] == prefix
                # an id that is not a plain int may equal a cached one and
                # still be no id: the rebuild's check reads it
                and set(map(type, query)) == _PLAIN_INT
            ):
                v = query[-1]
                if not 0 <= v < self.n:
                    self._check_id(v)
                cache = self._grow(cache, query, v)
            elif longer or query != prefix:
                cache = self._cache(query)
            # a plain int in range skips the call: this runs on most queries
            if u.__class__ is not int or not 0 <= u < self.n:
                u = self._check_id(u)
        except InvalidInputError:
            raise
        except ValueError:
            # raised by an id whose compare has no truth value: name it
            for v in query:
                self._check_id(v)
            raise
        return self._extend(cache, u)

    _value = _indep = _answer

    def _cache(self, prefix: list) -> tuple:
        """Check the ids of ``prefix``, store its cache as ``_prefix`` and return it."""
        raise NotImplementedError

    def _grow(self, cache: tuple, prefix: list, v: int) -> tuple:
        """Store and return the cache of ``prefix``, ``P`` plus ``v``: by default a rebuild."""
        return self._cache(prefix)

    def _extend(self, cache: tuple, u: int):
        """The answer for ``P`` plus ``u`` from the cache of ``P``."""
        raise NotImplementedError


_PLAIN_INT = {int}


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
