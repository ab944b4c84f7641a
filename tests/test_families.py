"""Matrix families: coalescence, kernel sheaves, Jordanizability probing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from strata.bundles import classify_matrix_detailed
from strata.errors import CoalescencePathError, ExactnessError, ShapeError, ValidationError
from strata.families import (
    MatrixFamily,
    default_paths,
    jordanizability_report,
    kernel_sheaf_limit,
    kernel_sheaf_value_1d,
    limit_along_path,
    segre_at_eigenvalue,
)
from strata.partitions import Partition, SegreSymbol
from strata.polynomials import Poly
from strata.subspaces import Subspace, gap_distance


def X(d, a):
    return Poly.variable(d, a, exact=True)


def C(d, v):
    return Poly.constant(d, v, exact=True)


def Z(d):
    return Poly(d, None, True)


def span(*vectors):
    return Subspace.from_spanning(np.array(vectors, dtype=complex).T)


class TestFamilyBasics:
    def test_eval_and_branch_values(self, family_upper_3x3):
        a = family_upper_3x3.eval([0.5])
        assert a[0][0] == 0.5 and a[1][2] == 0.5
        vals = family_upper_3x3.branch_values([0.5])
        assert vals == [0.5, 0.25]

    def test_branch_validation_catches_wrong_eigenvalues(self):
        x = X(1, 0)
        with pytest.raises(Exception):
            MatrixFamily(1, 2, [[x, Z(1)], [Z(1), x]], [(x + C(1, 1), 2)])

    def test_coalescence_detection(self, family_planar_3x3):
        assert family_planar_3x3.is_coalescence_point([0.0, 0.7])
        assert not family_planar_3x3.is_coalescence_point([0.5, 0.5])

    def test_restrict_to_path(self, family_planar_3x3):
        t = X(1, 0)
        line = family_planar_3x3.restrict_to_path([t, t])
        assert line.d == 1 and line.n == 3
        assert line.eval([0.25])[0][2] == 0.25


class TestSegreHelpers:
    def test_segre_at_eigenvalue(self):
        j = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        assert segre_at_eigenvalue(j, 2.0, 3) == (2, 1)
        assert segre_at_eigenvalue(np.diag([1.0, 1.0]), 1.0, 2) == (1, 1)

    @pytest.mark.parametrize("a", [
        np.diag([1.0, 2.0, 3.0]),
        np.array([[5.0, 1.0], [0.0, 5.0]]),
        np.eye(3),
        np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 7.0, 1.0], [0.0, 0.0, 0.0, 7.0]]),
    ])
    def test_segre_agrees_with_classify_matrix(self, a):
        # the Jordan fixtures of test_bundles: each member of the symbol
        # is the Segre characteristic at its cluster center
        res = classify_matrix_detailed(a)
        for member, center in zip(res.symbol.members, res.eigenvalues):
            assert segre_at_eigenvalue(a, center, member.weight) == member.parts


class TestKernelSheaf:
    def test_fixture_diag(self):
        x = X(1, 0)
        fam = MatrixFamily(1, 2, [[x, Z(1)], [Z(1), C(1, 1)]], None, validate=False)
        assert kernel_sheaf_value_1d(fam, 0).dim == 0

    def test_fixture_free_column(self):
        x = X(1, 0)
        fam = MatrixFamily(1, 2, [[x, Z(1)], [Z(1), Z(1)]], None, validate=False)
        s = kernel_sheaf_value_1d(fam, 0)
        assert s.dim == 1 and s.contains(np.array([0.0, 1.0]))

    def test_planar_example_on_slanted_line(self, family_planar_3x3):
        # along (t, c t) the eigenvalue-0 sheaf value is span (-c, -c, 1)
        for c in (1, 3):
            t = X(1, 0)
            s = kernel_sheaf_limit(family_planar_3x3, 1, [t, t * C(1, c)])
            norm = math.sqrt(2 * c * c + 1)
            assert s.dim == 1
            assert s.contains(np.array([-c, -c, 1.0]) / norm)

    def test_sheaf_value_contained_in_pointwise_kernel(self):
        x = X(1, 0)
        fam = MatrixFamily(1, 2, [[x, x], [Z(1), Z(1)]], None, validate=False)
        s = kernel_sheaf_value_1d(fam, 0)
        # pointwise kernel at 0 is everything; the sheaf value is smaller
        assert s.dim == 1
        assert s.contains(np.array([1.0, -1.0]) / math.sqrt(2))

    @pytest.mark.parametrize("branch", [-1, 2, 5])
    def test_branch_index_out_of_range(self, family_planar_3x3, branch):
        t = X(1, 0)
        with pytest.raises(ValidationError):
            kernel_sheaf_limit(family_planar_3x3, branch, [t, t])

    def test_float_input_refused(self):
        x = Poly.variable(1, 0, exact=False)
        fam = MatrixFamily(1, 1, [[x]], None, validate=False)
        with pytest.raises(ExactnessError):
            kernel_sheaf_value_1d(fam, 0)


class TestLimitAlongPath:
    def test_constant_kernel_limit(self, family_upper_3x3):
        t = X(1, 0)
        s = limit_along_path(family_upper_3x3, 0, [t])
        assert s is not None and s.dim == 1
        assert s.contains(np.array([1.0, 0.0, 0.0]))

    def test_planar_two_paths_disagree(self, family_planar_3x3):
        t = X(1, 0)
        s_diag = limit_along_path(family_planar_3x3, 1, [t, t])
        s_axis = limit_along_path(family_planar_3x3, 1, [t, Z(1)])
        assert s_diag is not None and s_axis is not None
        assert s_diag.contains(np.array([-1.0, -1.0, 1.0]) / math.sqrt(3))
        assert s_axis.contains(np.array([0.0, 0.0, 1.0]))
        assert gap_distance(s_diag, s_axis) > 0.5

    def test_path_inside_locus_rejected(self, family_planar_3x3):
        # x1 = 0 keeps both branches equal: every sample sits on the locus
        t = X(1, 0)
        with pytest.raises(CoalescencePathError):
            limit_along_path(family_planar_3x3, 1, [Z(1), t])

    def test_limit_matches_sheaf_value(self, family_planar_3x3):
        t = X(1, 0)
        path = [t, t]
        lim = limit_along_path(family_planar_3x3, 1, path)
        sheaf = kernel_sheaf_limit(family_planar_3x3, 1, path)
        assert lim is not None
        assert gap_distance(lim, sheaf) <= 1e-6

    def test_default_paths_shape(self):
        paths = default_paths(2, [0, 1])
        assert len(paths) == 3
        for p in paths:
            assert len(p) == 2
            assert complex(p[0].eval([0.0])) == 0.0
            assert complex(p[1].eval([0.0])) == 1.0


class TestJordanizability:
    def test_upper_3x3_fails_direct_sum(self, family_upper_3x3):
        rep = jordanizability_report(family_upper_3x3, [0])
        assert rep.cond1 and all(rep.cond2)
        assert not rep.cond3
        assert not rep.verdict

    def test_block_swap_fails_constancy(self, family_block_swap_4x4):
        rep = jordanizability_report(family_block_swap_4x4, [0])
        assert not rep.cond1
        assert not rep.verdict

    def test_planar_at_origin_fails_limits(self, family_planar_3x3):
        rep = jordanizability_report(family_planar_3x3, [0, 0])
        assert not all(rep.cond2)
        assert not rep.verdict

    def test_planar_off_origin_fails_spanning(self, family_planar_3x3):
        rep = jordanizability_report(family_planar_3x3, [0, 1])
        assert all(rep.cond2)
        assert not rep.cond3
        assert not rep.verdict

    def test_generic_points_pass(self, family_upper_3x3, family_planar_3x3):
        # z = 1/2 keeps the branches z and z^2 apart
        rep = jordanizability_report(family_upper_3x3, [Fraction(1, 2)])
        assert rep.verdict
        rep = jordanizability_report(family_planar_3x3, [1, 1])
        assert rep.verdict

    def test_single_bundle_always_true(self, family_single_bundle):
        for x0 in ([0], [1], [-2]):
            rep = jordanizability_report(family_single_bundle, x0)
            assert rep.verdict

    def test_report_serialization(self, family_upper_3x3):
        d = jordanizability_report(family_upper_3x3, [0]).to_dict()
        assert d["verdict"] is False and d["cond3"] is False
        assert isinstance(d["probes"], list) and d["probes"]

    def test_probe_point_shape_checked(self, family_upper_3x3):
        with pytest.raises(ShapeError):
            jordanizability_report(family_upper_3x3, [0, 0])
