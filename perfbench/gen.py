"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` and returns plain JSON-ready
data in the document shapes of SCHEMAS.md, so the same seed always gives
byte-identical documents.  This module does not import ``strata``: the
program sees only the generated documents, decoded at set-up time.

The value distributions follow the generator of acceptance criterion 5
(``tests/test_acceptance.py``): fractions ``randint(-3, 3) / randint(1, 5)``
for F0 and base points, denominators up to 4 for the exponents ``b``.
"""

from __future__ import annotations

import random
from fractions import Fraction


def rq(rng: random.Random, lo: int = -3, hi: int = 3, den: int = 5, nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if v or not nonzero:
            return v


def scalar(v: Fraction, exact: bool):
    """A real scalar leaf: a fraction string when exact, a JSON float otherwise."""
    return str(v) if exact else float(v)


def poly_doc(coeffs: dict, exact: bool) -> list:
    """Polynomial document from an {exponent tuple: Fraction} map."""
    return [
        {"exps": list(e), "re": scalar(c, exact), "im": scalar(Fraction(0), exact)}
        for e, c in sorted(coeffs.items())
        if c != 0
    ]


def variable(d: int, a: int) -> dict:
    return {tuple(1 if i == a else 0 for i in range(d)): Fraction(1)}


def de_doc(d: int, n: int, x0, f, b, F0, exact: bool) -> dict:
    """Flat-system problem document with F0 (SCHEMAS.md, "Flat-system problem")."""
    return {
        "d": d,
        "n": n,
        "x0": [scalar(v, exact) for v in x0],
        "f": [poly_doc(p, exact) for p in f],
        "b": [scalar(v, exact) for v in b],
        "F0": [[scalar(v, exact) for v in row] for row in F0],
    }


# -- flat-system problems ------------------------------------------------------------


def coalescent_de(rng: random.Random, exact: bool = True) -> dict:
    """d=3, n=3 problem coalescent in the pair (0, 1), shaped like the
    criterion 6 fixture: f = (x0, x1, x2) at x_o = (0, 0, 1).

    b and F0 are drawn as in criterion 5's coalescent instance, with every
    off-diagonal F0 entry nonzero as in the fixture.  A zero entry makes
    the jet sparse and the pipeline several times cheaper, so allowing
    zeros would spread the per-op cost over an order of magnitude.
    """
    while True:
        b = [rq(rng, den=4) for _ in range(3)]
        k01 = b[1] - b[0] - 1
        k10 = b[0] - b[1] - 1
        if k01 == 0 or k10 == 0:
            continue
        db = b[1] - b[0]
        if db.denominator == 1 and db != 0:
            continue
        F0 = [[Fraction(0) if i == j else rq(rng, nonzero=True) for j in range(3)] for i in range(3)]
        F0[0][1] = F0[0][2] * F0[2][1] / k01
        F0[1][0] = F0[1][2] * F0[2][0] / k10
        x0 = [Fraction(0), Fraction(0), Fraction(1)]
        f = [variable(3, a) for a in range(3)]
        return de_doc(3, 3, x0, f, b, F0, exact)


def regular_de(rng: random.Random, n: int, d: int) -> dict:
    """Criterion 5's regular instance for a given (n, d): each f_i is a
    constant plus linear terms plus one quadratic monomial.

    Criterion 5 adds the quadratic monomial with probability 0.6 and allows
    zero coefficients; here the monomial is always present and every
    coefficient and off-diagonal F0 entry is nonzero, for the reason given
    in coalescent_de, so problems of one shape cost about the same.  The
    caller rejects draws the program refuses or finds coalescent.
    """
    def rpoly():
        p = {(0,) * d: rq(rng, nonzero=True)}
        for a in range(d):
            p[tuple(int(i == a) for i in range(d))] = rq(rng, nonzero=True)
        a, c = rng.randrange(d), rng.randrange(d)
        p[tuple((i == a) + (i == c) for i in range(d))] = rq(rng, nonzero=True)
        return p

    f = [rpoly() for _ in range(n)]
    x0 = [rq(rng) for _ in range(d)]
    b = [rq(rng, den=4) for _ in range(n)]
    F0 = [[Fraction(0) if i == j else rq(rng, nonzero=True) for j in range(n)] for i in range(n)]
    return de_doc(d, n, x0, f, b, F0, True)


def closed_form_de(rng: random.Random) -> dict:
    """Criterion 5's closed-form problem: n=2, d=2, f = (x0, x1) at x_o = (0, 1),
    b = (0, 1/2), with a drawn F0."""
    F0 = [[Fraction(0), rq(rng, nonzero=True)], [rq(rng, nonzero=True), Fraction(0)]]
    return de_doc(2, 2, [Fraction(0), Fraction(1)], [variable(2, 0), variable(2, 1)],
                  [Fraction(0), Fraction(1, 2)], F0, True)


# jets-batch: one round visits every regular (n, d, K) once, puts a
# coalescent d=3, n=3 problem in every fourth of those slots, and adds
# CLOSED_FORM_CASES closed-form problems at order CLOSED_FORM_K, so each
# round does the same mix of ring sizes whatever the seed.
#
# The random problems' costs spread over two decades with a gap in the
# middle, where the median op then falls; the closed-form cases cost the
# same for every F0 and sit inside that gap, which keeps op_p50_ms from
# jumping between seeds.
REGULAR_SHAPES = [(n, d, K) for n in (2, 3) for d in (1, 2, 3) for K in (2, 3, 4)]
CLOSED_FORM_CASES = 5
CLOSED_FORM_K = 8


def _jets_round() -> list:
    slots = []
    for i, shape in enumerate(REGULAR_SHAPES):
        slots.append(("regular",) + shape)
        if i % 3 == 2:
            slots.append(("coalescent", 3, 3, (2, 3, 4)[(i // 3) % 3]))
    slots += [("closed-form", 2, 2, CLOSED_FORM_K)] * CLOSED_FORM_CASES
    return slots


JETS_ROUND = _jets_round()


# -- constant matrices for bundles classify -----------------------------------------


def jordan_matrix(blocks) -> list:
    """Upper-triangular Jordan form from (eigenvalue, block size) pairs.

    Kept triangular: a similarity transform would perturb a defective
    eigenvalue by about sqrt(machine epsilon), which is the clustering
    threshold, and make the classification depend on rounding.
    """
    n = sum(size for _, size in blocks)
    m = [[0] * n for _ in range(n)]
    pos = 0
    for lam, size in blocks:
        for k in range(size):
            m[pos + k][pos + k] = lam
            if k + 1 < size:
                m[pos + k][pos + k + 1] = 1
        pos += size
    return m


def classify_matrices(rng: random.Random) -> dict:
    """One matrix per stratum kind the classify command is exercised on."""
    lam, mu = rng.sample(range(-4, 5), 2)
    return {
        "distinct": jordan_matrix([(v, 1) for v in rng.sample(range(-6, 7), 4)]),
        "repeated": jordan_matrix([(lam, 1), (lam, 1), (mu, 1)]),
        "jordan": jordan_matrix([(lam, 2), (lam, 1), (mu, 1)]),
        # a single eigenvalue: prints "cluster_gap": Infinity at the seed
        "single-eigenvalue": jordan_matrix([(lam, rng.choice((2, 3)))]),
    }
