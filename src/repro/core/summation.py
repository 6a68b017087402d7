"""Compensated floating-point accumulation.

The exact algorithms fold up to ``2^|E|`` probability terms — many of
them tiny, some with alternating signs (inclusion–exclusion) — into a
single float.  Naive left-to-right accumulation loses low-order bits in
exactly the regime the paper's exactness claim lives in (reliabilities
within ``1e-12`` of 0 or 1).  Two tools fix that:

* :func:`fsum` — re-export of :func:`math.fsum` (Shewchuk's exact
  adaptive summation): the right call when the terms are already
  materialized.
* :class:`KahanSum` — a Kahan–Babuška–Neumaier running accumulator for
  streaming loops where materializing the term list is undesirable
  (per-sample Monte-Carlo weights, rare-event importance weights).

Lint rule RR102 steers ``core/`` and ``probability/`` code here
whenever it accumulates probability-typed values.
"""

from __future__ import annotations

from math import fsum
from typing import Iterable, Iterator

__all__ = ["KahanSum", "fsum", "prob_fsum"]


class KahanSum:
    """Kahan–Babuška–Neumaier compensated running sum.

    Tracks a correction term alongside the running total so that each
    :meth:`add` loses (almost) no low-order bits regardless of the
    magnitude ordering of the terms.  The final :attr:`value` applies
    the correction.

    >>> acc = KahanSum()
    >>> acc.extend([1e16, 1.0, -1e16]).value
    1.0
    """

    __slots__ = ("_total", "_compensation", "_count")

    def __init__(self, initial: float = 0.0) -> None:
        self._total = float(initial)
        self._compensation = 0.0
        self._count = 1 if initial else 0

    def add(self, term: float) -> "KahanSum":
        """Fold one term in; returns ``self`` for chaining."""
        term = float(term)
        candidate = self._total + term
        if abs(self._total) >= abs(term):
            self._compensation += (self._total - candidate) + term
        else:
            self._compensation += (term - candidate) + self._total
        self._total = candidate
        self._count += 1
        return self

    def extend(self, terms: Iterable[float]) -> "KahanSum":
        """Fold every term of an iterable in."""
        for term in terms:
            self.add(term)
        return self

    @property
    def value(self) -> float:
        """The compensated total."""
        return self._total + self._compensation

    @property
    def count(self) -> int:
        """How many terms have been folded in."""
        return self._count

    def __float__(self) -> float:
        return self.value

    def __iadd__(self, term: float) -> "KahanSum":
        return self.add(term)

    def __repr__(self) -> str:
        return f"KahanSum(value={self.value!r}, count={self._count})"


def prob_fsum(terms: Iterable[float]) -> float:
    """Exactly-rounded sum of probability terms.

    Thin, intention-revealing wrapper over :func:`math.fsum`; the
    iterator is materialized by ``fsum`` itself.
    """
    return fsum(_as_floats(terms))


def _as_floats(terms: Iterable[float]) -> Iterator[float]:
    for term in terms:
        yield float(term)
