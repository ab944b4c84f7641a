"""Partitions, double partitions, and their counting.

A double partition of n (a Segre symbol) is a multiset of ordinary
partitions whose weights sum to n.  It records, per eigenvalue, the sizes of
the Jordan blocks of a matrix; the multiset of all its parts is the block
structure with eigenvalue labels forgotten.

Counting: write p(1, n) = p(n) and p(r, n) for the r-fold analogue.  Then

    sum_n p(r, n) z^n  =  prod_{m>=1} (1 - z^m)^(-p(r-1, m))

and for r = 2 there is an independent convolution

    n * p(2, n) = sum_{k=1}^{n} sigma(k) p(2, n-k),
    sigma(k) = sum_{d | k} d * p(d).

All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Tuple

from .errors import ValidationError


class Partition:
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        try:
            raw = tuple(parts)
            parts = tuple(int(p) for p in raw)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"partition parts must be integers: {parts!r}") from exc
        if parts != raw:
            raise ValidationError(f"partition parts must be integers: {raw!r}")
        if any(p <= 0 for p in parts):
            raise ValidationError(f"partition parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValidationError(f"partition parts must be weakly decreasing: {parts}")
        self.parts = parts

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def conjugate(self) -> "Partition":
        """Ferrers transpose: k-th conjugate part counts parts >= k."""
        if not self.parts:
            return Partition(())
        out = []
        for k in range(1, self.parts[0] + 1):
            out.append(sum(1 for p in self.parts if p >= k))
        return Partition(out)

    def sort_key(self):
        """Canonical order key: weight descending, then lex descending."""
        return (-self.weight, tuple(-p for p in self.parts))


class SegreSymbol:
    """A multiset of partitions, stored in canonical order.

    Canonical order sorts member partitions by weight descending, then by
    lexicographically descending part lists.
    """

    __slots__ = ("members",)

    def __init__(self, members):
        members = [m if isinstance(m, Partition) else Partition(m) for m in members]
        if not members:
            raise ValidationError("a Segre symbol needs at least one partition")
        self.members = tuple(sorted(members, key=Partition.sort_key))

    @property
    def weight(self) -> int:
        return sum(m.weight for m in self.members)

    @property
    def rough_length(self) -> int:
        return len(self.members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]

    def __eq__(self, other):
        return isinstance(other, SegreSymbol) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __repr__(self):
        return "SegreSymbol(%s)" % (" ; ".join(str(list(m.parts)) for m in self.members))

    def to_lists(self):
        return [list(m.parts) for m in self.members]

    @staticmethod
    def from_lists(lists) -> "SegreSymbol":
        return SegreSymbol([Partition(p) for p in lists])


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValidationError("n must be >= 0")
    return [Partition(p) for p in _partition_tuples(n)]


def _partition_tuples(n: int, bound: int | None = None) -> Iterator[Tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    if bound is None or bound > n:
        bound = n
    for first in range(bound, 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


def enumerate_double_partitions(n: int) -> list[SegreSymbol]:
    """All Segre symbols of weight n, in canonical order.

    Members are chosen in weakly decreasing canonical order, so every
    multiset appears exactly once.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    all_parts: list[Partition] = []
    for w in range(n, 0, -1):
        all_parts.extend(enumerate_partitions(w))
    # all_parts is already in canonical order: weight desc, lex desc
    out: list[list[Partition]] = []

    def extend(prefix: list[Partition], remaining: int, start: int):
        if remaining == 0:
            out.append(list(prefix))
            return
        for idx in range(start, len(all_parts)):
            q = all_parts[idx]
            if q.weight > remaining:
                continue
            prefix.append(q)
            extend(prefix, remaining - q.weight, idx)
            prefix.pop()

    extend([], n, 0)
    return [SegreSymbol(mem) for mem in out]


@lru_cache(maxsize=None)
def _p1(n: int) -> int:
    """p(n) by the Euler pentagonal recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * _p1(n - g1)
        if g2 <= n:
            total += sign * _p1(n - g2)
        k += 1
    return total


def _product_coefficients(exponents, N: int) -> list[int]:
    """Coefficients 0..N of prod_m (1 - z^m)^(-exponents(m)).

    Multiplies factor by factor; (1-z^m)^(-e) contributes binomial(e-1+j, j)
    at z^(m j).
    """
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    for m in range(1, N + 1):
        e = exponents(m)
        if e == 0:
            continue
        # dense convolution with the factor series
        factor = [0] * (N + 1)
        factor[0] = 1
        j = 1
        binom = 1
        while m * j <= N:
            binom = binom * (e - 1 + j) // j
            factor[m * j] = binom
            j += 1
        new = [0] * (N + 1)
        for a, ca in enumerate(coeffs):
            if ca == 0:
                continue
            for b in range(0, N + 1 - a, m):
                fb = factor[b]
                if fb:
                    new[a + b] += ca * fb
        coeffs = new
    return coeffs


@lru_cache(maxsize=None)
def _pfold_table(r: int, N: int) -> tuple[int, ...]:
    """p(r, 0..N): fold r's generating function is prod_m (1-z^m)^(-p(r-1, m))."""
    table = tuple(_p1(n) for n in range(N + 1))
    for _ in range(r - 1):
        table = tuple(_product_coefficients(table.__getitem__, N))
    return table


def count_fold_partitions(r: int, n: int) -> int:
    """p(r, n): the number of r-fold partitions of n.

    r = 1 is the ordinary partition count, r = 2 counts Segre symbols.
    """
    if r < 1:
        raise ValidationError("r must be >= 1")
    if n < 0:
        raise ValidationError("n must be >= 0")
    if n == 0:
        return 1
    return _pfold_table(r, n)[n]


def count_double_partitions_sigma(n: int) -> int:
    """p(2, n) by the weighted convolution recursion (independent route)."""
    if n < 0:
        raise ValidationError("n must be >= 0")
    sig = [0] * (n + 1)
    for k in range(1, n + 1):
        s = 0
        for d in range(1, k + 1):
            if k % d == 0:
                s += d * _p1(d)
        sig[k] = s
    p2 = [0] * (n + 1)
    p2[0] = 1
    for m in range(1, n + 1):
        acc = 0
        for k in range(1, m + 1):
            acc += sig[k] * p2[m - k]
        if acc % m != 0:
            raise ArithmeticError(f"sigma recursion produced a non-integer at n={m}")
        p2[m] = acc // m
    return p2[n]


def conjugate_symbol(s: SegreSymbol) -> SegreSymbol:
    """Transpose every member partition (an involution on symbols)."""
    return SegreSymbol([m.conjugate() for m in s.members])


def forgetful(s: SegreSymbol) -> Partition:
    """Multiset union of all parts: block sizes with eigenvalue labels dropped."""
    parts = []
    for m in s.members:
        parts.extend(m.parts)
    parts.sort(reverse=True)
    return Partition(parts)


_GREEK = "αβγδεζηθικλμνξοπρστυφχψω"
_SUPERSCRIPTS = {1: "", 2: "²", 3: "³", 4: "⁴", 5: "⁵", 6: "⁶", 7: "⁷", 8: "⁸", 9: "⁹"}


def mu_string(s: SegreSymbol) -> str:
    """Eigenvalue-letter notation: one Greek letter per member partition,
    one factor per part, exponent = part size (omitted when 1)."""
    out = []
    for i, m in enumerate(s.members):
        letter = _GREEK[i] if i < len(_GREEK) else f"x{i}"
        for p in m.parts:
            if p in _SUPERSCRIPTS:
                out.append(letter + _SUPERSCRIPTS[p])
            else:
                out.append(f"{letter}^{{{p}}}")
    return "".join(out)
