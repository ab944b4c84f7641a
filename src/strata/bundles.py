"""Matrix-bundle strata indexed by Segre symbols.

A bundle is the set of n x n matrices whose Jordan structure is described by
one Segre symbol, with eigenvalue values left free.  The codimension of the
bundle of lambda = {lambda_1; ...; lambda_r} inside matrix space is

    c(lambda) = sum_j (lambda_j1 + 3 lambda_j2 + 5 lambda_j3 + ...) - r,

parts of each member taken in decreasing order.  Moves:

  * Type I merges two member partitions part-by-part (eigenvalue collision);
    it lowers dim by exactly 1.
  * Type II moves one box of one member's Ferrers diagram (more degenerate
    Jordan structure at fixed eigenvalue count).  The admissible box moves
    are the covering moves of the dominance order: an adjacent-part
    transfer, or the staircase drop from part i to part j when
    lambda_i - lambda_j = 2 and all parts strictly between equal
    lambda_i - 1.  Each lowers dim by 2(j - i).

Closure comparison of two symbols is decided by exhaustive downward search;
the general decision problem is NP-complete, which is acceptable at the
small n this package targets.

The Hasse diagram needs no transitive reduction.  A type-I move lowers dim
by exactly 1, so no longer path can imply it.  No move raises the member
count, so a type-II edge could only be implied by box moves within one
member; those are dominance covers, so no such path exists.  The move
graph is therefore already its own transitive reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, ValidationError
from .partitions import Partition, SegreSymbol, enumerate_double_partitions, mu_string
from .subspaces import _clusters, _segre


def codimension(s: SegreSymbol) -> int:
    c = 0
    for m in s.members:
        for k, part in enumerate(m.parts):
            c += (2 * k + 1) * part
    return c - s.rough_length


@dataclass(frozen=True)
class BundleDescriptor:
    symbol: SegreSymbol
    n: int
    codim: int
    dim: int
    is_regular: bool
    is_diagonalizable: bool

    @property
    def label(self) -> str:
        return mu_string(self.symbol)


def describe(s: SegreSymbol) -> BundleDescriptor:
    n = s.weight
    c = codimension(s)
    return BundleDescriptor(
        symbol=s,
        n=n,
        codim=c,
        dim=n * n - c,
        is_regular=all(len(m) == 1 for m in s.members),
        is_diagonalizable=all(all(p == 1 for p in m.parts) for m in s.members),
    )


def _partition_box_moves(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Dominance covering moves of one partition (see module docstring)."""
    out = set()
    L = len(parts)
    # adjacent transfer, target may be a fresh trailing part
    for i in range(L):
        if i + 1 < L:
            if parts[i] >= parts[i + 1] + 2:
                new = list(parts)
                new[i] -= 1
                new[i + 1] += 1
                out.add(tuple(new))
        else:
            if parts[i] >= 2:
                new = list(parts)
                new[i] -= 1
                new.append(1)
                out.add(tuple(new))
    # staircase drop
    for i in range(L):
        for j in range(i + 2, L + 1):
            lam_j = parts[j] if j < L else 0
            if parts[i] - lam_j != 2:
                continue
            if any(parts[k] != parts[i] - 1 for k in range(i + 1, j)):
                continue
            new = list(parts)
            new[i] -= 1
            if j < L:
                new[j] += 1
            else:
                new.append(1)
            out.add(tuple(new))
    return sorted(out, reverse=True)


def elementary_moves(s: SegreSymbol) -> list[tuple[str, SegreSymbol]]:
    """All symbols one move below s, tagged "I" (merge) or "II" (box move)."""
    results: dict[SegreSymbol, str] = {}
    members = s.members
    r = len(members)
    for i in range(r):
        for j in range(i + 1, r):
            a, b = members[i].parts, members[j].parts
            merged = tuple(
                (a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                for k in range(max(len(a), len(b)))
            )
            rest = [members[k] for k in range(r) if k != i and k != j]
            results.setdefault(SegreSymbol(rest + [Partition(merged)]), "I")
    for i in range(r):
        for moved in _partition_box_moves(members[i].parts):
            rest = [members[k] for k in range(r) if k != i]
            results.setdefault(SegreSymbol(rest + [Partition(moved)]), "II")
    dim_s = describe(s).dim
    out = sorted(results.items(), key=lambda kv: [m.sort_key() for m in kv[0].members])
    for sym, _kind in out:
        if describe(sym).dim >= dim_s:
            raise AssertionError("elementary move failed to decrease dimension")
    return [(kind, sym) for sym, kind in out]


def closure_leq(a: SegreSymbol, b: SegreSymbol) -> bool:
    """True iff the bundle of a lies in the closure of the bundle of b.

    Decided by breadth-first downward search from b, pruning at dim(a);
    moves strictly decrease dim, so the search is finite.
    """
    if a.weight != b.weight:
        raise ShapeError(f"symbols of different weight: {a.weight} vs {b.weight}")
    dim_a = describe(a).dim
    seen = {b}
    frontier = [b]
    while frontier:
        nxt = []
        for s in frontier:
            if s == a:
                return True
            if describe(s).dim <= dim_a:
                continue
            for _kind, t in elementary_moves(s):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return False


@dataclass
class HasseDiagram:
    n: int
    symbols: list[SegreSymbol]
    edges: list[tuple[int, int]] = field(default_factory=list)
    # edge (i, j): symbols[i] is one move below symbols[j]

    def dims(self) -> list[int]:
        return [describe(s).dim for s in self.symbols]

    def to_dot(self) -> str:
        lines = ["digraph bundle_closure {"]
        for i, s in enumerate(self.symbols):
            d = describe(s)
            lines.append(f'  v{i} [label="{mu_string(s)}\\ndim {d.dim}"];')
        for i, j in self.edges:
            lines.append(f"  v{i} -> v{j};")
        lines.append("}")
        return "\n".join(lines)


def hasse_diagram(n: int) -> HasseDiagram:
    """Vertices: all symbols of weight n in canonical order; one directed
    edge (result, source) per single elementary move."""
    symbols = enumerate_double_partitions(n)
    index = {s: i for i, s in enumerate(symbols)}
    edges = []
    for j, s in enumerate(symbols):
        for _kind, t in elementary_moves(s):
            edges.append((index[t], j))
    edges.sort()
    return HasseDiagram(n=n, symbols=symbols, edges=edges)


@dataclass
class ClassificationResult:
    symbol: SegreSymbol
    eigenvalues: list[complex]        # one cluster center per member, same order
    ill_conditioned: bool
    cluster_gap: float | None         # smallest distance between cluster centers;
                                      # None when there is only one cluster


def classify_matrix_detailed(A, tol: float = 1e-8) -> ClassificationResult:
    """Segre symbol of a constant matrix.

    Eigenvalues are clustered by single linkage at threshold tol * scale
    (subspaces._clusters); per cluster of size m, the Segre characteristic
    comes from the rank drops of (A - mu I)^k, k <= m (subspaces._segre).
    A cluster whose drops are inconsistent reads as [1] * m, so the symbol
    always has weight n.  Such a cluster, or two clusters separated by less
    than 10x the clustering threshold, set the ill_conditioned flag.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n == 0:
        raise ValidationError("empty matrix")
    eigs = np.linalg.eigvals(A)
    if not np.all(np.isfinite(eigs)):
        raise ValidationError("the eigenvalues are beyond the float range")
    clusters, thr = _clusters(eigs, tol)
    # an overflowing mean or shift is non-finite, and _segre refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        centers = [complex(np.mean(eigs[c])) for c in clusters]
        shifts = [A - center * np.eye(n) for center in centers]
    gap = float("inf")
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            gap = min(gap, abs(centers[i] - centers[j]))
    ill = gap < 10.0 * thr

    members = []
    for shift, comp in zip(shifts, clusters):
        parts = _segre(shift, len(comp), tol)
        if parts is None:
            parts = (1,) * len(comp)
            ill = True
        members.append(Partition(parts))

    # the symbol stores its members stably sorted by sort_key; order the
    # centers the same way
    order = sorted(range(len(members)), key=lambda k: members[k].sort_key())
    return ClassificationResult(
        symbol=SegreSymbol(members),
        eigenvalues=[centers[k] for k in order],
        ill_conditioned=ill,
        cluster_gap=gap if len(centers) > 1 else None,
    )


def classify_matrix(A, tol: float = 1e-8) -> SegreSymbol:
    return classify_matrix_detailed(A, tol).symbol
