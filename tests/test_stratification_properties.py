"""Differential properties of the stratification layer.

Jordan matrices built from a random Segre symbol must classify back to
that symbol, and the Segre data at each reported center must agree with
the member of the symbol; the closure order on symbols must be a partial
order that strictly raises the bundle dimension.  The runs are
derandomized, so the suite draws the same cases every time.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strata.bundles import classify_matrix_detailed, closure_leq, describe
from strata.families import segre_at_eigenvalue
from strata.partitions import SegreSymbol, enumerate_double_partitions

PROPS = settings(derandomize=True, deadline=None, max_examples=100, database=None)

SYMBOLS = {n: enumerate_double_partitions(n) for n in range(1, 8)}


def jordan(blocks):
    """Block-diagonal matrix of Jordan blocks J_p(lam), (lam, p) in order."""
    n = sum(p for _, p in blocks)
    a = np.zeros((n, n))
    k = 0
    for lam, p in blocks:
        a[k:k + p, k:k + p] = lam * np.eye(p) + np.eye(p, k=1)
        k += p
    return a


@st.composite
def jordan_matrices(draw):
    """A symbol, distinct integer eigenvalues in [-6, 6], one Jordan block
    per part, blocks in shuffled order along the diagonal."""
    symbol = draw(st.sampled_from(SYMBOLS[draw(st.integers(1, 7))]))
    values = draw(st.permutations(range(-6, 7)))[: len(symbol)]
    blocks = [(lam, p) for lam, member in zip(values, symbol) for p in member]
    return symbol, jordan(draw(st.permutations(blocks)))


def S(*lists):
    return SegreSymbol.from_lists(list(lists))


@PROPS
@given(case=jordan_matrices())
# n powers of the scaled A - mu I lost these to the rank cutoff; the
# multiplicity's powers keep them
@example(case=(S([4], [1], [1]), jordan([(-4, 4), (-5, 1), (6, 1)])))
@example(case=(S([3], [2], [1, 1]), jordan([(5, 1), (-5, 3), (5, 1), (6, 2)])))
@example(case=(S([2, 1, 1], [1], [1], [1]),
               jordan([(6, 1), (-6, 1), (-6, 2), (-6, 1), (-5, 1), (0, 1)])))
def test_jordan_matrix_classifies_to_its_symbol(case):
    symbol, a = case
    res = classify_matrix_detailed(a)
    assert res.symbol == symbol
    assert not res.ill_conditioned
    for member, center in zip(res.symbol.members, res.eigenvalues):
        assert segre_at_eigenvalue(a, center, member.weight) == member.parts


def below(s):
    return [t for t in SYMBOLS[s.weight] if closure_leq(t, s)]


@PROPS
@given(data=st.data(), n=st.integers(1, 5))
def test_closure_is_a_partial_order_raising_dimension(data, n):
    c = data.draw(st.sampled_from(SYMBOLS[n]))
    b = data.draw(st.sampled_from(below(c)))
    a = data.draw(st.sampled_from(below(b)))
    assert closure_leq(c, c)
    assert closure_leq(a, c)
    for lo, hi in ((a, b), (b, c)):
        assert lo == hi or describe(lo).dim < describe(hi).dim
