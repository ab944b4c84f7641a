"""Gap metric on subspaces and numerical kernels."""

import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strata.errors import ShapeError, ValidationError
from strata.subspaces import (
    Subspace,
    _numerical_rank,
    gap_distance,
    generalized_eigenspace,
    intertwiner_dimension,
    kernel_subspace,
    sum_subspace,
)


def span(*vectors):
    return Subspace.from_spanning(np.array(vectors, dtype=complex).T)


def rand_subspace(rng, n):
    k = rng.integers(0, n + 1)
    if k == 0:
        return Subspace.zero(n)
    m = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return Subspace.from_spanning(m)


class TestGapDistance:
    def test_exact_values(self):
        e1 = span([1, 0])
        e2 = span([0, 1])
        diag = span([1, 1])
        assert gap_distance(e1, e1) == 0.0
        assert abs(gap_distance(e1, e2) - 1.0) <= 1e-12
        assert abs(gap_distance(e1, diag) - 1 / math.sqrt(2)) <= 1e-12

    def test_metric_axioms_random(self):
        rng = np.random.default_rng(7)
        n = 5
        for _ in range(60):
            a, b, c = (rand_subspace(rng, n) for _ in range(3))
            dab, dba = gap_distance(a, b), gap_distance(b, a)
            assert abs(dab - dba) <= 1e-10
            assert dab <= 1.0 + 1e-10
            assert gap_distance(a, c) <= dab + gap_distance(b, c) + 1e-10
            if dab < 1.0 - 1e-10:
                assert a.dim == b.dim
            if a.dim != b.dim:
                assert dab >= 1.0 - 1e-10

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(11)
        s = rand_subspace(rng, 4)
        # a different orthonormal basis of the same space
        q = s.basis @ np.linalg.qr(
            rng.standard_normal((s.dim, s.dim))
            + 1j * rng.standard_normal((s.dim, s.dim))
        )[0]
        assert gap_distance(s, Subspace(q)) <= 1e-10

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            gap_distance(span([1, 0]), span([1, 0, 0]))


class TestSubspace:
    def test_from_spanning_drops_dependent_columns(self):
        m = np.array([[1.0, 2.0], [1.0, 2.0]])
        s = Subspace.from_spanning(m)
        assert s.dim == 1
        assert s.contains(np.array([3.0, 3.0]))

    def test_zero_and_full(self):
        z = Subspace.zero(3)
        f = Subspace.full(3)
        assert z.dim == 0 and f.dim == 3
        assert gap_distance(z, f) == 1.0
        assert z.leq(f)

    def test_projector_idempotent(self):
        s = span([1, 2, 0], [0, 1, 1])
        p = s.projector()
        assert np.allclose(p @ p, p)
        assert np.allclose(p.conj().T, p)

    def test_sum_subspace(self):
        s = sum_subspace([span([1, 0, 0]), span([0, 1, 0])])
        assert s.dim == 2
        assert s.contains(np.array([1.0, 1.0, 0.0]))
        assert not s.contains(np.array([0.0, 0.0, 1.0]))


class TestKernels:
    def test_kernel_fixtures(self):
        s = kernel_subspace(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert s.dim == 1 and s.contains(np.array([1.0, 0.0]))
        assert kernel_subspace(np.zeros((2, 2))).dim == 2
        s = kernel_subspace(np.ones((2, 2)))
        assert s.dim == 1 and s.contains(np.array([1.0, -1.0]) / math.sqrt(2))

    def test_kernel_threshold_is_relative(self):
        # scaling the matrix must not change the kernel verdict
        m = np.array([[1e-14, 0.0], [0.0, 1.0]])
        assert kernel_subspace(m).dim == 1
        assert kernel_subspace(m * 1e12).dim == 1

    def test_span_threshold_is_relative(self):
        # a span's dimension is the rank rule of the kernel, so it does not
        # depend on the scale of the spanning vectors
        m = np.array([[1.0, 1.0], [1e-14, 0.0]])
        for scale in (1e-11, 1.0, 1e11):
            assert Subspace.from_spanning(scale * m).dim == 1
            assert Subspace.from_spanning(scale * m[:, :1]).dim == 1

    def test_generalized_eigenspace_fixtures(self):
        j2 = np.array([[3.0, 1.0], [0.0, 3.0]])
        assert generalized_eigenspace(j2, 3.0).dim == 2
        s = generalized_eigenspace(np.diag([1.0, 2.0]), 1.0)
        assert s.dim == 1 and s.contains(np.array([1.0, 0.0]))

    def test_generalized_eigenspace_limit_plane(self):
        # family [[z,1,0],[0,z^2,z],[0,0,z^2]] at branch z^2: the planes
        # converge in gap distance to span{e1, (0,1,-1)/sqrt(2)}
        def plane(z):
            a = np.array([[z, 1, 0], [0, z * z, z], [0, 0, z * z]], dtype=complex)
            return generalized_eigenspace(a, z * z)

        target = span([1, 0, 0], [0, 1, -1])
        gaps = [gap_distance(plane(10.0 ** (-k)), target) for k in (2, 3, 4)]
        assert plane(0.1).dim == 2
        assert gaps[2] < gaps[0] and gaps[2] <= 1e-3


class TestIntertwiner:
    def test_fixtures(self):
        assert intertwiner_dimension(np.eye(2), np.eye(2)) == 4
        j = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert intertwiner_dimension(j, j) == 2
        assert intertwiner_dimension(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0

    def test_centralizer_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.standard_normal((3, 3))
            assert intertwiner_dimension(a, a) >= 3


class TestFiniteValueGuard:
    """Every LAPACK call refuses a matrix, or a result, beyond the float range."""

    def test_rank_one_matrix_with_overflowing_norm(self):
        # the largest singular value overflows, so the SVD runs on the
        # matrix times 2^-1024 (exact); a rank cutoff relative to inf would
        # read the rank as 0 and the kernel as all of C^2
        a = np.full((2, 2), 1e308)
        assert kernel_subspace(a).dim == 1
        assert _numerical_rank(a, 1e-10) == 1
        assert Subspace.from_spanning(a).dim == 1

    def test_overflowing_shift_is_refused(self):
        with pytest.raises(ValidationError):
            generalized_eigenspace(np.array([[1e308, 1.0], [0.0, -1e308]]), 1e308)

    def test_infinite_entry_is_refused_before_lapack(self):
        # LAPACK's complex SVD of this matrix does not return
        m = np.diag([np.inf, 1.0, 1.0]).astype(complex)
        before = time.process_time()
        with pytest.raises(ValidationError):
            kernel_subspace(m)
        assert time.process_time() - before < 1.0

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(m=st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=n, max_size=n)),
        k=st.integers(-1021, 1021))
    @example(m=[[3] * 4] * 4, k=1021)
    def test_kernel_dimension_survives_power_of_two_scaling(self, m, k):
        m = np.array(m, dtype=float)
        try:
            dim = kernel_subspace(2.0**k * m).dim
        except ValidationError:
            return
        assert dim == kernel_subspace(m).dim


SRC = Path(__file__).resolve().parents[1] / "src" / "strata"


def _stray_linalg(path):
    """Uses of numpy.linalg in a module other than the allowed ones: a routine
    passed as _lapack's first argument, matrix_power, the one-argument vector
    norms of Subspace.contains, and LinAlgError inside _lapack."""
    tree = ast.parse(path.read_text())
    parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(node):
            stray.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
        if not (isinstance(node, ast.Attribute) and node.attr == "linalg"):
            continue
        ref = fn = parent[node]  # np.linalg.<name>, and then its enclosing function
        while not isinstance(fn, (ast.FunctionDef, ast.Module)):
            fn = parent[fn]
        name, use, where = getattr(ref, "attr", None), parent.get(ref), getattr(fn, "name", None)
        called = isinstance(use, ast.Call) and use.func is ref
        guarded = (isinstance(use, ast.Call) and bool(use.args) and use.args[0] is ref
                   and getattr(use.func, "id", None) == "_lapack")
        if not (guarded or called and name == "matrix_power"
                or called and name == "norm" and where == "contains"
                and len(use.args) == 1 and not use.keywords
                or name == "LinAlgError" and where == "_lapack"):
            stray.append(f"{path.name}:{node.lineno} {ast.unparse(use if called else node)}")
    return stray


def test_every_lapack_call_goes_through_the_guard():
    assert [s for path in sorted(SRC.glob("*.py")) for s in _stray_linalg(path)] == []
