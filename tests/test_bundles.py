"""Bundle strata: codimension, moves, closure order, Hasse diagram, classification."""

import numpy as np
import pytest

from strata.bundles import (
    classify_matrix,
    classify_matrix_detailed,
    closure_leq,
    codimension,
    describe,
    elementary_moves,
    hasse_diagram,
)
from strata.errors import ShapeError
from strata.partitions import Partition, SegreSymbol


def S(*lists):
    return SegreSymbol.from_lists(list(lists))


def test_codimension_formula():
    # regular symbols (one part per member) have codimension 0
    assert codimension(S([1], [1], [1])) == 0
    assert codimension(S([3])) == 2          # 3*1 - 1
    assert codimension(S([1, 1, 1])) == 8    # 1 + 3 + 5 - 1
    assert codimension(S([2, 2])) == 7       # 2 + 6 - 1
    assert codimension(S([1, 1], [2])) == 4  # (1+3-1) + (2-1)


def test_describe_dim_and_flags():
    d = describe(S([1], [1]))
    assert d.n == 2 and d.codim == 0 and d.dim == 4
    assert d.is_regular and d.is_diagonalizable
    d = describe(S([2]))
    assert d.is_regular and not d.is_diagonalizable
    d = describe(S([1, 1]))
    assert not d.is_regular and d.is_diagonalizable
    assert d.dim == 4 - codimension(S([1, 1]))


def test_type_i_move_merges_partitions():
    moves = elementary_moves(S([1], [1]))
    assert [(k, m.to_lists()) for k, m in moves] == [("I", [[2]])]
    # merge is part-by-part
    kinds = dict((m, k) for k, m in elementary_moves(S([2, 1], [1])))
    assert kinds[S([3, 1])] == "I"


def test_type_ii_move_is_dominance_cover():
    moves = elementary_moves(S([2]))
    assert [(k, m.to_lists()) for k, m in moves] == [("II", [[1, 1]])]
    # staircase drop: (3) -> (2,1) only, never (1,1,1) in one move
    targets = {m for _k, m in elementary_moves(S([3]))}
    assert S([2, 1]) in targets and S([1, 1, 1]) not in targets


def test_moves_strictly_decrease_dimension():
    for s in (S([2], [1], [1]), S([2, 2]), S([3, 1])):
        dim = describe(s).dim
        for _kind, t in elementary_moves(s):
            assert describe(t).dim < dim


def test_closure_partial_order():
    bottom = S([1, 1, 1, 1])
    top = S([1], [1], [1], [1])
    assert closure_leq(bottom, top)
    assert not closure_leq(top, bottom)
    assert closure_leq(top, top)
    with pytest.raises(ShapeError):
        closure_leq(S([1]), S([1], [1]))


def test_closure_type_i_single_move():
    # one eigenvalue collision: [2,2] below [1,1];[1,1]
    a = S([2, 2])
    b = S([1, 1], [1, 1])
    assert closure_leq(a, b)
    assert ("I", a) in elementary_moves(b)


def test_hasse_diagram_n4():
    h = hasse_diagram(4)
    assert len(h.symbols) == 14
    assert sorted(set(h.dims()), reverse=True) == [16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 1]
    index = {s: i for i, s in enumerate(h.symbols)}
    bottom = index[S([1, 1, 1, 1])]
    # the most degenerate symbol lies below every other one
    for s in h.symbols:
        assert closure_leq(h.symbols[bottom], s)
    # every edge decreases dimension
    dims = h.dims()
    for i, j in h.edges:
        assert dims[i] < dims[j]


def test_hasse_dot_output():
    h = hasse_diagram(3)
    dot = h.to_dot()
    assert dot.startswith("digraph bundle_closure {")
    assert dot.rstrip().endswith("}")
    assert dot.count("label=") == len(h.symbols)
    assert dot.count("->") == len(h.edges)


@pytest.mark.parametrize("n", range(1, 9))
def test_hasse_edges_are_their_own_transitive_reduction(n):
    # no edge (i, j) is implied by a longer path i -> k -> ... -> j
    h = hasse_diagram(n)
    up = {i: set() for i in range(len(h.symbols))}
    for i, j in h.edges:
        up[i].add(j)
    dims, above = h.dims(), {}
    # edges raise dim, so visiting by decreasing dim settles successors first
    for i in sorted(up, key=lambda v: -dims[v]):
        above[i] = set().union(*(above[k] | {k} for k in up[i]))
    for i, j in h.edges:
        assert not any(j in above[k] for k in up[i] if k != j), (i, j)


def test_classify_matrix_fixtures():
    assert classify_matrix(np.diag([1.0, 2.0, 3.0])) == S([1], [1], [1])
    j2 = np.array([[5.0, 1.0], [0.0, 5.0]])
    assert classify_matrix(j2) == S([2])
    assert classify_matrix(np.eye(3)) == S([1, 1, 1])
    block = np.zeros((4, 4))
    block[0, 1] = 1.0
    block[2, 3] = 1.0
    block[2, 2] = block[3, 3] = 7.0
    assert classify_matrix(block) == S([2], [2])


def test_classify_matrix_detailed_reports_eigenvalues():
    res = classify_matrix_detailed(np.diag([2.0, 2.0, 5.0]))
    assert res.symbol == S([1, 1], [1])
    vals = sorted(v.real for v in res.eigenvalues)
    assert np.allclose(vals, [2.0, 5.0])


def test_classification_respects_closure():
    # a small perturbation of a nilpotent Jordan block classifies into a
    # bundle whose closure contains the unperturbed symbol
    a = np.array([[0.0, 1.0], [1e-3, 0.0]])
    s = classify_matrix(a)
    assert closure_leq(S([2]), s)
