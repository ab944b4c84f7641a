"""Differential checks of the exact kernel-sheaf route on drawn families.

Two independent routes give the limit of a branch's generalized
eigenspace along a path: the exact kernel-sheaf value of the powered
family restricted to the path (kernel_sheaf_limit) and the numerical
gap-metric limit of sampled root spaces (limit_along_path).  Wherever the
numerical route converges they must agree in dimension and within a gap
of 1e-6, on the fixture families and on drawn upper-triangular d = 1
families whose linear diagonals have distinct slopes, so that at deep
samples the other branches lie only ~t away.

The truncation order of the exact route is tested on families built
from a Smith form U diag((x - c)^e_1, .., (x - c)^e_r, 0, ..) V with U and
V unitriangular: the space of v(0) stops shrinking by order N (V_N equals
V_2N), and V_N is V(c)^-1 {w : w_i = 0 for i <= r}.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strata.errors import CoalescencePathError
from strata.families import (
    MatrixFamily,
    _order_bound,
    _truncated_values,
    default_paths,
    kernel_sheaf_limit,
    kernel_sheaf_value_1d,
    limit_along_path,
)
from strata.polynomials import Poly, _matmul
from strata.scalars import to_exact
from strata.subspaces import gap_distance

GAP = 1e-6

_SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


def _line(d0, d1):
    return Poly(1, {(0,): d0, (1,): d1}, True)


@st.composite
def _upper_families(draw):
    """Upper-triangular d = 1 families with branches a_i + b_i x, b_i distinct.

    Values a_i in {0, 1} make the center 0 a coalescence point; two branches
    with a_i != a_j meet at |x| = 1 / |b_i - b_j| >= 1/6, off every sample.
    """
    n = draw(st.integers(2, 4))
    slopes = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n, unique=True))
    diag = [_line(draw(st.integers(0, 1)), b) for b in slopes]
    zero = Poly(1, None, True)
    entries = [
        [diag[i] if i == j
         else _line(draw(_SMALL), draw(_SMALL)) if i < j and draw(st.booleans())
         else zero
         for j in range(n)]
        for i in range(n)
    ]
    return MatrixFamily(1, n, entries, [(p, 1) for p in diag])


def _agree(family, branch, path, seen):
    """Compare both routes on one probe; seen records whether the numerical one converged."""
    lim = limit_along_path(family, branch, path)
    seen.append(lim is not None)
    if lim is not None:
        sheaf = kernel_sheaf_limit(family, branch, path)
        assert lim.dim == sheaf.dim
        assert gap_distance(lim, sheaf) <= GAP


def test_drawn_upper_triangular_limits_match_sheaf_values():
    seen = []

    def check(family):
        t = Poly.variable(1, 0, True)
        for branch in range(family.n):
            _agree(family, branch, [t], seen)

    settings(max_examples=30, deadline=None, derandomize=True)(given(_upper_families())(check))()
    # most probes converge, so the agreement above is not vacuous
    assert len(seen) >= 60 and sum(seen) >= 0.8 * len(seen)


@pytest.mark.parametrize("name, centers", [
    ("family_upper_3x3", [[0], [Fraction(1, 2)]]),
    ("family_block_swap_4x4", [[0]]),
    ("family_planar_3x3", [[0, 0], [0, 1], [1, 1]]),
    ("family_single_bundle", [[0], [1]]),
])
def test_fixture_limits_match_sheaf_values(name, centers, request):
    family = request.getfixturevalue(name)
    seen = []
    for x0 in centers:
        for path in default_paths(family.d, x0):
            for branch in range(len(family.branches)):
                try:
                    _agree(family, branch, path, seen)
                except CoalescencePathError:
                    break  # the path lies in the coalescence locus
    assert seen and sum(seen) >= 0.75 * len(seen)


# -- the truncation order -----------------------------------------------------------


def _poly(draw, deg):
    return Poly(1, {(k,): draw(st.integers(-2, 2)) for k in range(deg + 1)}, True)


@st.composite
def _smith_families(draw):
    """(family, center, r, V) with A = U diag((x-c)^e_1, .., (x-c)^e_r, 0, ..) V."""
    n = draw(st.integers(2, 4))
    r = draw(st.integers(0, n))
    c = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]))
    shifted = Poly(1, {(0,): -c, (1,): 1}, True)
    one, zero = Poly.constant(1, 1, True), Poly(1, None, True)
    diag = [shifted ** draw(st.integers(0, 2)) if i < r else zero for i in range(n)]
    U = [[one if i == j else _poly(draw, 1) if i > j else zero for j in range(n)]
         for i in range(n)]
    V = [[one if i == j else _poly(draw, 1) if i < j else zero for j in range(n)]
         for i in range(n)]
    D = [[diag[i] if i == j else zero for j in range(n)] for i in range(n)]
    return MatrixFamily(1, n, _matmul(_matmul(U, D), V), None, validate=False), c, r, V


def test_values_stop_shrinking_by_the_order_bound():
    shrinking = []

    def check(case):
        family, c, r, V = case
        N = _order_bound(family)
        x0 = to_exact(c)
        dims = [len(_truncated_values(family, x0, k)) for k in (1, N, 2 * N)]
        # V_2N <= V_N, so equal dimensions make them equal
        assert dims[1] == dims[2] == family.n - r
        shrinking.append(dims[0] > dims[1])
        s = kernel_sheaf_value_1d(family, c)
        vc = np.array([[complex(p.eval([c])) for p in row] for row in V])
        assert s.dim == family.n - r
        assert np.max(np.abs(vc[:r] @ s.basis), initial=0.0) <= 1e-9

    settings(max_examples=30, deadline=None, derandomize=True)(given(_smith_families())(check))()
    # some drawn values still shrink after order 1, so later orders matter
    assert any(shrinking)
