"""Linear subspaces of C^n and the gap metric between them.

A subspace is stored as an orthonormal column basis; the zero subspace is
the n x 0 matrix.  The gap distance is the spectral norm of the
difference of orthogonal projectors, which metrizes the usual topology
on the full Grassmannian: distance strictly below 1 forces equal
dimensions.  The module also owns the spectral decisions on numeric
matrices: numerical rank, eigenvalue clusters and Segre data.

It owns every LAPACK call in strata as well: each SVD, eigenvalue, solve,
QR and matrix 2-norm goes through _lapack, which refuses a
non-finite matrix before LAPACK sees it (LAPACK may print to fd 1 or not
return on one) and a non-finite result after, as ValidationError.  The
SVDs behind rank and kernel decisions go through _svd, which answers a
finite matrix whose singular values overflow by an exact power-of-two
scaling instead of refusing it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError
from .partitions import Partition

_ORTHO_TOL = 1e-10
_SV_TOL = 1e-10  # a singular value counts in a rank when above this share of the largest


def _lapack(routine, a, *args, what: str = "the matrix", **kw):
    """routine(a, *args, **kw) for a numpy.linalg routine, finite values only.

    Non-finite arrays in or out, and LinAlgError, raise ValidationError
    naming what; finite results are numpy's own, bit for bit.
    """
    if not _finite((a, *args)):
        raise ValidationError(f"{what} is beyond the float range")
    try:
        out = routine(a, *args, **kw)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"{routine.__name__} failed on {what}: {exc}") from None
    if not _finite(out if isinstance(out, tuple) else (out,)):
        raise ValidationError(f"{what} is beyond the float range")
    return out


def _finite(values) -> bool:
    """Every entry of each array or number in values is finite: one ufunc
    call and one reduction method per value, without np.all's dispatch."""
    return all([np.isfinite(x).all() for x in values])


def _svd(a: np.ndarray, **kw):
    """_lapack's SVD of a, decomposing 2^-e a when a is finite but refused.

    A finite a is refused when its singular values pass the float range (or
    LAPACK fails on it); 2^e is the binade of a's largest part.  The scaling
    is exact in binary floating point, so the singular vectors and the
    ratios of the singular values, all that rank and kernel decisions read,
    are a's own.  Every a that decomposes unscaled keeps numpy's result bit
    for bit.
    """
    try:
        return _lapack(np.linalg.svd, a, **kw)
    except ValidationError:
        if not np.all(np.isfinite(a)):
            raise
    e = np.frexp(max(np.max(np.abs(a.real)), np.max(np.abs(a.imag))))[1]
    return _lapack(np.linalg.svd, np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e), **kw)


class Subspace:
    """An orthonormal-basis representation of a subspace of C^n."""

    __slots__ = ("basis",)

    def __init__(self, basis: np.ndarray):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 2:
            raise ShapeError("basis must be a 2-d array (columns span the subspace)")
        n, k = basis.shape
        if k > n:
            raise ShapeError(f"{k} columns cannot be independent in C^{n}")
        if k > 0:
            gram = basis.conj().T @ basis
            if np.max(np.abs(gram - np.eye(k))) > _ORTHO_TOL:
                raise ValidationError(
                    "basis is not orthonormal; use Subspace.from_spanning to orthonormalize"
                )
        self.basis = basis

    @staticmethod
    def from_spanning(vectors: np.ndarray, tol: float = _SV_TOL) -> "Subspace":
        """Orthonormalize a (possibly dependent) spanning set via SVD; its
        dimension is the _cutoff_rank of the singular values at tol."""
        vectors = np.asarray(vectors, dtype=complex)
        if vectors.ndim == 1:
            vectors = vectors.reshape(-1, 1)
        if vectors.ndim != 2:
            raise ShapeError("spanning set must be a 2-d array")
        u, s, _ = _svd(vectors, full_matrices=False, what="the spanning set")
        return Subspace(u[:, :_cutoff_rank(s, tol)])

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(np.zeros((n, 0), dtype=complex))

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(np.eye(n, dtype=complex))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        return self.basis @ self.basis.conj().T

    def contains(self, vector: np.ndarray, tol: float = 1e-8) -> bool:
        v = np.asarray(vector, dtype=complex).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise ShapeError("vector dimension mismatch")
        nrm = np.linalg.norm(v)
        if nrm == 0:
            return True
        resid = v - self.projector() @ v
        return bool(np.linalg.norm(resid) <= tol * nrm)

    def leq(self, other: "Subspace", tol: float = 1e-8) -> bool:
        """Containment self <= other as subspaces."""
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        if self.dim == 0:
            return True
        resid = self.basis - other.projector() @ self.basis
        return bool(_lapack(np.linalg.norm, resid, 2) <= tol)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def gap_distance(a: Subspace, b: Subspace) -> float:
    """Spectral-norm distance between orthogonal projectors."""
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError("subspaces of different ambient spaces")
    diff = a.projector() - b.projector()
    if diff.shape[0] == 0:
        return 0.0
    return float(_lapack(np.linalg.norm, diff, 2))


def sum_subspace(parts: list) -> Subspace:
    """Span of the union of the given subspaces."""
    if not parts:
        raise ValidationError("need at least one subspace")
    n = parts[0].ambient_dim
    for p in parts:
        if p.ambient_dim != n:
            raise ShapeError("ambient dimension mismatch")
    return Subspace.from_spanning(np.hstack([p.basis for p in parts]))


def kernel_subspace(a: np.ndarray, tol: float = _SV_TOL) -> Subspace:
    """Numerical kernel via the small right singular vectors."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ShapeError("matrix expected")
    return _kernel_svd(a, tol)[0]


def _kernel_svd(a: np.ndarray, tol: float):
    """kernel_subspace of a, with the singular values (of a or, where _svd
    scales, of 2^-e a) and numerical rank."""
    m, n = a.shape
    if m == 0 or n == 0:
        return Subspace.full(n), np.zeros(0), 0
    _, s, vh = _svd(a)
    rank = _cutoff_rank(s, tol)
    return Subspace(vh[rank:, :].conj().T), s, rank


def _unit_shift(a: np.ndarray, mu: complex) -> np.ndarray:
    """A - mu I scaled to unit 2-norm, so that its powers stay in the float
    range and a relative tolerance keeps its meaning."""
    with np.errstate(over="ignore", invalid="ignore"):  # _lapack refuses the inf
        m = a - complex(mu) * np.eye(a.shape[0])
    scale = _lapack(np.linalg.norm, m, 2, what="the shifted matrix")
    if scale > 0:  # part by part: complex division by a subnormal scale overflows
        m = m.real / scale + 1j * (m.imag / scale)
    return m


def _root_space(a: np.ndarray, lam: complex, power: int, tol: float):
    """_kernel_svd of _unit_shift(A, lam)^power."""
    return _kernel_svd(np.linalg.matrix_power(_unit_shift(a, lam), power), tol)


def generalized_eigenspace(a: np.ndarray, lam: complex, tol: float = 1e-10) -> Subspace:
    """Kernel of (A - lam I)^n, the maximal root space at lam."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ShapeError("square matrix expected")
    return _root_space(a, lam, n, tol)[0]


def _cutoff_rank(s: np.ndarray, tol: float) -> int:
    """Number of singular values s (descending) above tol times the largest.

    The cutoff is relative: powered non-normal matrices can have tiny
    norms, so it never goes absolute; an exactly zero matrix has rank 0.
    """
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > tol * s[0]))


def _numerical_rank(m: np.ndarray, tol: float) -> int:
    """_cutoff_rank of the singular values of m."""
    return _cutoff_rank(_svd(m, compute_uv=False), tol)


def _power_ranks(m: np.ndarray, powers: int, tol: float) -> list:
    """[rank m^0, rank m^1, ..., rank m^powers] by _numerical_rank."""
    n = m.shape[0]
    ranks = [n]
    p = np.eye(n, dtype=complex)
    for _ in range(powers):
        p = p @ m
        ranks.append(_numerical_rank(p, tol))
    return ranks


def _segre(a: np.ndarray, mu: complex, multiplicity: int, tol: float):
    """Jordan block sizes of the eigenvalue mu of a, of known multiplicity.

    The rank drops of m^0 .. m^multiplicity, m = _unit_shift(a, mu), count
    the blocks of size >= k; their conjugate is the weakly decreasing tuple
    of block sizes.  Returns None when the drops are not nonnegative and
    nonincreasing or do not sum to multiplicity.
    """
    ranks = _power_ranks(_unit_shift(a, mu), multiplicity, tol)
    drops = [ranks[k - 1] - ranks[k] for k in range(1, multiplicity + 1)]
    if drops[-1] < 0 or any(b > a for a, b in zip(drops, drops[1:])):
        return None
    if sum(drops) != multiplicity:
        return None
    return Partition([dk for dk in drops if dk > 0]).conjugate().parts


def _clusters(values, tol: float):
    """Single-linkage clusters of complex values, and the linkage threshold.

    Two values are linked when they lie within tol * max(1, max |v|); the
    clusters are the connected components, as lists of indices into values,
    each starting at its smallest index.  A distance that overflows to
    infinity does not link.
    """
    thr = tol * max(1.0, float(np.max(np.abs(values))))
    unassigned = list(range(len(values)))
    clusters: list[list[int]] = []
    with np.errstate(over="ignore"):
        while unassigned:
            seed = unassigned.pop(0)
            comp = [seed]
            grew = True
            while grew:
                grew = False
                for k in list(unassigned):
                    if any(abs(values[k] - values[c]) <= thr for c in comp):
                        comp.append(k)
                        unassigned.remove(k)
                        grew = True
            clusters.append(comp)
    return clusters, thr


def intertwiner_dimension(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> int:
    """dim{ X : A X = X B } via the Sylvester operator's kernel."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError("first matrix must be square")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ShapeError("second matrix must be square")
    n, m = a.shape[0], b.shape[0]
    # vec(AX - XB) = (I_m (x) A - B^T (x) I_n) vec(X), columns stacked
    op = np.kron(np.eye(m), a) - np.kron(b.T, np.eye(n))
    return kernel_subspace(op, tol).dim
