"""Finite-dimensional Hermitian calculus: eigensolvers, f(A), positive map
families, operator means, and the matrix entropies.  Each matrix entropy,
von Neumann's or Tsallis', is the classical entropy of the spectrum: a
batch of one of the one entropy row kernel ``classical_entropy._cross_rows``.

Every eigensolve of the library goes through one LAPACK pair, the private
``_eigh`` / ``_eigvalsh`` over ``numpy.linalg.eigh`` / ``eigvalsh``: the
spectral functions, the entropies and the verification margins.  Applied
to a stack, each matrix gets the same bits as on its own
(tests/test_operator_calculus.py::TestLapackEigh::test_stack_bitwise_matches_single_calls).

The in-tree eigensolver is kept as the independent oracle.  It is a
complex Jacobi iteration with explicit 2x2 Hermitian rotations
(``eigh_stack``, ``eigvals_stack``, ``jacobi_eigh``) in round-robin order:
the circle method splits each sweep's d(d-1)/2 pivot pairs into d - 1
rounds (d for odd d) of floor(d/2) disjoint pairs.  Disjoint rotations
commute, so a round computes all its angles from the current matrix and
applies them to rows, columns and eigenvectors at once; the ordering keeps
the quadratic convergence of the cyclic method (Brent & Luk, SIAM J. Sci.
Stat. Comput. 6(1), 1985).  Stacks are keyed by the circle's ring size
n = d + d % 2: an odd d's rounds are those of d + 1 without the pairs on
index d, so its matrices ride zero-padded with those of d + 1 (the
``dims`` of ``eigh_stack``), and their pad pairs hold exact zeros and
never rotate.  The private ``_jacobi`` takes matrices of any dimensions,
one ring stack per ring size when its two dimensions fit one chunk, else
one stack per dimension.  A stack runs in chunks of
max(64, 16384 // n**2) matrices (cache-sized temporaries at large n, a
round loop shared by many matrices at small n): each matrix gets its own
rotation angles while sharing the (data-independent) schedule, reduces its
stopping test over its own d x d block, and stops rotating once it has
converged, so neither the stack, its padding nor its chunking changes a
matrix's bits
(tests/test_operator_calculus.py::TestJacobiEigh::test_stack_bitwise_matches_single_calls
and ::test_mixed_dimensions_match_single_calls_bitwise).  ``eigvals_stack``
is ``eigh_stack``'s eigenvalues.  The ``eigensolver`` suite checks
Jacobi's residuals, and ``eigensolver_crosscheck`` compares its
eigenvalues with LAPACK's.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classical_entropy import _cross_rows
from .errors import ConvergenceError, DomainError, ShapeError
from .functions import FunctionSpec, Interval, _is_int

__all__ = [
    "HERMITIAN_TOL",
    "is_hermitian",
    "assert_hermitian",
    "hermitize",
    "assert_density",
    "eigh_stack",
    "jacobi_eigh",
    "eigvals_stack",
    "apply_function",
    "apply_function_stack",
    "spectrum_in",
    "WeightedConjugation",
    "KrausMap",
    "NormalizedTrace",
    "MapFamily",
    "apply_map_family",
    "sqrtm_psd",
    "invsqrtm_pd",
    "mat_power",
    "mat_log",
    "natural_power_mean",
    "tsallis_relative_operator_entropy",
    "relative_operator_entropy",
    "von_neumann_entropy",
    "quantum_tsallis_entropy",
    "von_neumann_entropy_from_evals",
    "tsallis_entropy_from_evals",
    "trace_distance_l1",
    "rand_unitary",
    "rand_density",
    "rand_hermitian_spectrum_in",
    "matrix_to_json",
    "matrix_from_json",
]

HERMITIAN_TOL = 1e-12
OFF_DIAG_TARGET = 1e-14
MAX_SWEEPS = 100
EIG_FLOOR = 1e-12


def _frob(A: np.ndarray) -> float:
    return float(np.linalg.norm(A))


def _check_finite(A: np.ndarray, name: str = "matrix") -> None:
    """DomainError naming A's first non-finite entries, before arithmetic on them warns."""
    if not np.isfinite(A).all():
        where = [tuple(ix) for ix in np.argwhere(~np.isfinite(A))[:4].tolist()]
        raise DomainError(f"{name} has non-finite entries at {where}")


def is_hermitian(A: np.ndarray) -> bool:
    """Square, finite and ||A - A*||_F <= HERMITIAN_TOL max(1, ||A||_F)."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.isfinite(A).all():
        return False
    return _frob(A - A.conj().T) <= HERMITIAN_TOL * max(1.0, _frob(A))


def assert_hermitian(A, name: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {A.shape}")
    _check_finite(A, name)
    if not is_hermitian(A):
        raise DomainError(f"{name} is not Hermitian (residual {_frob(A - A.conj().T):.3e})")
    return A


def hermitize(A: np.ndarray) -> np.ndarray:
    """Symmetrize (A + A*)/2 over the last two axes, so a matrix or a stack,
    after a DomainError naming any non-finite entries, or the largest drift
    ||A - A*||_F above 1e-8 max(1, ||A||_F) among the matrices.  The sum is
    elementwise, so a matrix gets the same bits in any stack."""
    A = np.asarray(A, dtype=complex)
    _check_finite(A)
    AH = np.swapaxes(A, -1, -2).conj()
    drift = _frob_rows(A - AH)
    bad = drift > 1e-8 * np.maximum(1.0, _frob_rows(A))
    if bad.any():
        raise DomainError(f"matrix drifted too far from Hermitian: {drift[bad].max():.3e}")
    return (A + AH) / 2.0


def _frob_rows(A: np.ndarray):
    """Frobenius norm of each matrix of a stack (..., d, d)."""
    flat = A.reshape(A.shape[:-2] + (-1,))
    return np.sqrt(np.einsum("...i,...i->...", flat.conj(), flat).real)


def assert_density(rho, name: str = "density matrix") -> np.ndarray:
    return _density_evals(rho, name)[0]


def _density_evals(rho, name: str = "density matrix"):
    """(rho, ascending spectrum) of a checked density matrix."""
    rho = assert_hermitian(rho, name)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-10:
        raise DomainError(f"{name} must have unit trace, got {tr}")
    evals = _eigvalsh(rho[None])[0]
    if evals.min() < -1e-10:
        raise DomainError(f"{name} has a negative eigenvalue {evals.min():.3e}")
    return rho, evals


# ---------------------------------------------------------------------------
# LAPACK eigensolver (the library's hot path)
# ---------------------------------------------------------------------------


def _checked_stack(mats) -> np.ndarray:
    A = np.asarray(mats, dtype=complex)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ShapeError(f"expected a stack (k, d, d), got {A.shape}")
    if not np.isfinite(A).all():
        # NaN off-diagonal mass compares as converged in Jacobi, and LAPACK
        # returns NaN or fails; neither is a spectrum
        raise DomainError("eigensolver input has non-finite entries")
    return A


def _lapack_stack(mats) -> np.ndarray:
    # LAPACK reads one triangle only; (A + A*)/2 gives both triangles a say
    # and leaves an exactly Hermitian matrix bit for bit unchanged
    A = _checked_stack(mats)
    return (A + np.swapaxes(A, 1, 2).conj()) / 2.0


def _eigh(mats):
    """Eigendecompositions (w ascending, V unitary) of a stack (k, d, d) of
    Hermitian matrices by LAPACK."""
    try:
        w, V = np.linalg.eigh(_lapack_stack(mats))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc
    return w, V


def _eigvalsh(mats) -> np.ndarray:
    """Ascending eigenvalues of a stack of Hermitian matrices by LAPACK."""
    try:
        return np.linalg.eigvalsh(_lapack_stack(mats))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigvalsh did not converge: {exc}") from exc


def _eigh_one(A):
    """(w, V) of one matrix, asserted Hermitian first."""
    w, V = _eigh(assert_hermitian(A)[None])
    return w[0], V[0]


# ---------------------------------------------------------------------------
# round-robin complex Jacobi eigensolver (stack-native; the oracle)
# ---------------------------------------------------------------------------

# matrix entries per chunk: a stack is solved max(64, 16384 // n**2)
# matrices at a time, so a round's (k, 2n, n/2) temporaries stay in cache on
# large stacks while small n still amortizes the round loop over many matrices
_JACOBI_CHUNK_ENTRIES = 16384


def _jacobi_chunk_size(n: int) -> int:
    """Matrices per chunk of an n x n Jacobi stack: max(64, 16384 // n**2)."""
    return max(64, _JACOBI_CHUNK_ENTRIES // max(n * n, 1))


def eigh_stack(mats: np.ndarray, dims=None):
    """Eigendecompositions of a stack (k, n, n) of Hermitian matrices.

    Returns (evals, vecs) with evals (k, n) ascending and vecs (k, n, n)
    unitary columns satisfying A = V diag(w) V*.  Each sweep visits every
    pivot pair once, in n - 1 rounds (n for odd n) of floor(n/2) disjoint
    pairs that are rotated together.  Sweeps stop once a matrix has
    off-diagonal Frobenius mass <= 1e-14 * ||A||_F; exceeding MAX_SWEEPS
    raises ConvergenceError with the worst residual of the stack.  The
    stack is solved in chunks of max(64, 16384 // n**2) matrices.

    ``dims`` holds one dimension per matrix, n - 1 or n (default n): a
    matrix of dimension d = n - 1 is its leading d x d block, zero-padded.
    Its rounds are those of d + 1 without the pairs on index d, and those
    pairs hold exact zeros, so they never rotate.  Its eigenvalues are
    w[:d] and its eigenvectors V[:d, :d]; the pad keeps its eigenpair
    (0, e_d) last.  Every matrix gets its own angles, reduces its stopping
    test over its own block and stops on its own, so neither the chunking,
    the rest of the stack nor the padding changes its result.
    """
    A = _checked_stack(mats)
    k, n, _ = A.shape
    if dims is None:
        dims = np.full(k, n)
    else:
        dims = np.asarray(dims)
        if dims.shape != (k,) or not ((dims == n) | ((dims == n - 1) & (n > 0))).all():
            raise ShapeError(f"dims must give {n - 1} or {n} for each of {k} matrices")
        pad = dims < n
        if pad.any() and (A[pad, n - 1].any() or A[pad, :, n - 1].any()):
            raise DomainError(f"a matrix of dimension {n - 1} must be zero-padded to {n}")
    chunk = _jacobi_chunk_size(n)
    # an empty stack still runs one (empty) chunk, for the output shapes
    parts = [_jacobi_chunk(A[s:s + chunk], dims[s:s + chunk]) for s in range(0, max(k, 1), chunk)]
    _raise_unconverged([res for _, _, res in parts if res is not None])
    return np.concatenate([w for w, _, _ in parts]), np.concatenate([v for _, v, _ in parts])


def _raise_unconverged(residuals):
    if residuals:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge in {MAX_SWEEPS} sweeps",
            residual=max(residuals))


def _jacobi(mats) -> list:
    """(w, V) of each Hermitian matrix of the sequence ``mats``, of any
    dimensions.  The matrices of a ring size n = d + d % 2 of the circle
    method share one ``eigh_stack`` when both dimensions n - 1 and n are
    present and fit one chunk (the odd d zero-padded, through ``dims``);
    otherwise each dimension gets its own stack, since a chunk holding both
    pads every odd-d matrix in it.  Each matrix gets the bits of its own
    ``eigh_stack(M[None])``; exceeding the sweep cap raises
    ConvergenceError with the worst residual of all stacks."""
    rings = defaultdict(list)
    for j, M in enumerate(mats):
        shape = np.shape(M)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {shape}")
        rings[shape[0] + shape[0] % 2].append(j)
    out = [None] * len(mats)
    residuals = []
    # the largest ring first, while no other ring's results are held: the
    # peak of a call is its largest ring's working set
    for n in sorted(rings, reverse=True):
        idxs = rings[n]
        parts = [[j for j in idxs if len(mats[j]) == d] for d in (n, n - 1)]
        stacks = ([idxs] if all(parts) and len(idxs) <= _jacobi_chunk_size(n)
                  else [p for p in parts if p])
        for stack in stacks:
            dims = [len(mats[j]) for j in stack]
            size = max(dims)
            A = np.zeros((len(stack), size, size), dtype=complex)
            for i, (j, d) in enumerate(zip(stack, dims)):
                A[i, :d, :d] = mats[j]
            try:
                w, V = eigh_stack(A, dims)
            except ConvergenceError as err:
                residuals.append(err.residual)
                continue
            for i, (j, d) in enumerate(zip(stack, dims)):
                out[j] = w[i, :d], V[i, :d, :d]
    _raise_unconverged(residuals)
    return out


@functools.lru_cache(maxsize=None)
def _round_robin(d: int):
    """One sweep's rounds for dimension d by the circle method: a tuple of
    (P, Q, PQ, QP) index arrays with P < Q elementwise, PQ = P ++ Q and
    QP = Q ++ P.  Every pair p < q appears in exactly one round, and the
    pairs of a round are disjoint.  For odd d a dummy index pads the circle
    and the pair holding it is dropped, so one index idles each round: the
    rounds are those of d + 1 without the pairs on index d."""
    n = d + d % 2
    ring = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = sorted((min(a, b), max(a, b))
                       for a, b in zip(ring[:n // 2], ring[::-1][:n // 2])
                       if max(a, b) < d)
        P = np.array([p for p, _ in pairs])
        Q = np.array([q for _, q in pairs])
        rounds.append((P, Q, np.concatenate([P, Q]), np.concatenate([Q, P])))
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return tuple(rounds)


def _jacobi_chunk(A, dims):
    """(evals, V, residual) of a chunk A (k, n, n) of ``eigh_stack``'s stack
    with dimensions ``dims``, rotated on the schedule of its largest
    dimension m: a chunk of dimension n - 1 alone is solved unpadded.  A
    sits on top of V in one (k, 2m, m) buffer, so one column update rotates
    both.  The residual is None on convergence, else the worst relative
    off-diagonal mass left after MAX_SWEEPS sweeps."""
    k, n, _ = A.shape
    m = int(dims.max()) if k else n
    AV = np.zeros((k, 2 * m, m), dtype=complex)
    AV[:, :m] = A[:, :m, :m]
    idx = np.arange(m)
    AV[:, m + idx, idx] = 1.0
    # a matrix's norms reduce over its own d x d block: a padded reduction
    # would sum its rows in another order
    groups = [(np.flatnonzero(dims == d), d) for d in sorted(set(dims.tolist()))]
    if len(groups) == 1:
        groups = [(slice(None), m)]
    scale = np.empty(k)
    for g, d in groups:
        scale[g] = np.linalg.norm(A[g, :d, :d], axis=(1, 2))
    scale = np.maximum(scale, 1e-300)

    def off_mass():
        out = np.empty(k)
        for g, d in groups:
            mass = np.abs(AV[g, :d, :d]) ** 2
            mass[:, idx[:d], idx[:d]] = 0.0
            out[g] = np.sqrt(mass.sum(axis=(1, 2)))
        return out

    rounds = _round_robin(m)
    converged = False
    for _ in range(MAX_SWEEPS):
        # a converged matrix gets no more rotations, so its result does not
        # depend on the other matrices of the stack
        active = off_mass() > OFF_DIAG_TARGET * scale
        if not active.any():
            converged = True
            break
        thresh = np.where(active, 1e-18 * scale, np.inf)[:, None]
        for P, Q, PQ, QP in rounds:
            # the pairs of a round are disjoint, so no rotation touches
            # another's a_pp, a_qq or a_pq: all angles come from the current
            # A, and the round equals its rotations applied one by one
            h = len(P)
            apq = AV[:, P, Q]
            mag = np.abs(apq)
            live = mag > thresh
            if not live.any():
                continue
            diag = AV[:, PQ, PQ].real
            safe = np.where(live, mag, 1.0)
            phase = np.where(live, apq / safe, 1.0)
            tau = (diag[:, h:] - diag[:, :h]) / (2.0 * safe)
            sgn = np.where(tau >= 0.0, 1.0, -1.0)
            t = sgn / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = np.where(live, t * c, 0.0)
            c = np.where(live, c, 1.0)[..., None]
            sp = (s * phase)[..., None]
            spc = np.conj(sp)

            # fancy indexing gathers a copy, so rp, rq (cp, cq) stay the old
            # rows (columns) while P and Q are overwritten; the columns run
            # down A and V alike
            rows_pq = AV[:, PQ, :]
            rp, rq = rows_pq[:, :h], rows_pq[:, h:]
            AV[:, P, :] = c * rp - sp * rq
            AV[:, Q, :] = spc * rp + c * rq
            cp = AV[:, :, P]
            cq = AV[:, :, Q]
            c, sp, spc = (np.swapaxes(x, 1, 2) for x in (c, sp, spc))
            AV[:, :, P] = c * cp - spc * cq
            AV[:, :, Q] = sp * cp + c * cq
            AV[:, PQ, QP] = 0.0
            AV[:, PQ, PQ] = AV[:, PQ, PQ].real
    residual = None
    if not converged and np.any(off_mass() > OFF_DIAG_TARGET * scale):
        residual = float((off_mass() / scale).max())

    # each matrix sorts its own eigenpairs; a pad keeps (0, e_d) last
    evals = np.diagonal(AV[:, :m], axis1=1, axis2=2).real.copy()
    w = np.zeros((k, n))
    V = np.zeros((k, n, n), dtype=complex)
    pad = dims < n
    if pad.any():
        V[pad, n - 1, n - 1] = 1.0
    for g, d in groups:
        order = np.argsort(evals[g, :d], axis=1, kind="stable")
        w[g, :d] = np.take_along_axis(evals[g, :d], order, axis=1)
        V[g, :d, :d] = np.take_along_axis(AV[g, m:m + d, :d], order[:, None, :], axis=2)
    return w, V, residual


def jacobi_eigh(A):
    """Eigendecomposition (evals ascending, unitary) of one Hermitian matrix."""
    A = assert_hermitian(A)
    w, V = eigh_stack(A[None])
    return w[0], V[0]


def eigvals_stack(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of Hermitian matrices by Jacobi."""
    return eigh_stack(mats)[0]


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------


def _recompose(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    out = V @ (w[..., :, None] * np.swapaxes(V, -1, -2).conj())
    return (out + np.swapaxes(out, -1, -2).conj()) / 2.0


def apply_function_stack(f, mats) -> np.ndarray:
    """f applied spectrally to each matrix in a stack.

    f is a FunctionSpec or a vectorized scalar callable; with a FunctionSpec
    the spectra must sit inside its domain (1e-10 slack, else DomainError;
    eigenvalues clipped back onto the boundary before evaluation).
    """
    w, V = _eigh(mats)
    if isinstance(f, FunctionSpec) and w.size:
        lo, hi = f.domain.m, f.domain.M
        if w.min() < lo - 1e-10 or w.max() > hi + 1e-10:
            bad = float(w.min() if w.min() < lo - 1e-10 else w.max())
            raise DomainError(
                f"eigenvalue {bad!r} outside the function domain [{lo}, {hi}]"
            )
    return _function_image(f, w, V)


def _function_image(f, w: np.ndarray, V: np.ndarray):
    """f(A) recomposed from A's (w, V), a single matrix's or a stack's; a
    FunctionSpec's spectra are clipped onto its domain, which the caller has
    checked them against."""
    if isinstance(f, FunctionSpec):
        w = np.clip(w, f.domain.m, f.domain.M)
    fw = np.asarray(f(w), dtype=float)
    return _recompose(fw, V)


def apply_function(f, A) -> np.ndarray:
    """Spectral image f(A) = U diag(f(lambda)) U* of a Hermitian matrix."""
    A = assert_hermitian(A)
    return apply_function_stack(f, A[None])[0]


def spectrum_in(A, iv: Interval) -> bool:
    """True iff all eigenvalues lie in [m - 1e-10, M + 1e-10]."""
    A = assert_hermitian(A)
    w = _eigvalsh(A[None])[0]
    return bool(w.min() >= iv.m - 1e-10 and w.max() <= iv.M + 1e-10)


# ---------------------------------------------------------------------------
# positive linear map families
# ---------------------------------------------------------------------------


# A family of n maps is stacked as its kinds, one class per map, and its
# params: each map's fields, stacked over the k families, in map order and
# flat.  That is weights (k,) and unitaries (k, d, d) for a
# WeightedConjugation, weights (k,) for a NormalizedTrace, and operator
# stacks (k, m, d_in, d_out) for a KrausMap.  ``kind._apply_stack(X,
# *fields)`` is (Phi_j(X_j)) for the k maps of one kind on a stack X (k, d,
# d).  Every step treats each matrix on its own (BLAS per matrix, with the
# operands laid out as for a single matrix, and elementwise arithmetic), so a
# matrix gets the same bits in any stack.


class PositiveMap:
    """A positive linear map kind; Phi(X) is a batch of one of ``_apply_stack``."""

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self._apply_stack(np.asarray(X)[None], *self._fields())[0]

    def _fields(self) -> tuple:
        """Its fields as stacks of one."""
        return tuple(np.array([getattr(self, f.name)]) for f in dataclasses.fields(self))


@dataclass(frozen=True)
class WeightedConjugation(PositiveMap):
    """X -> weight * U* X U for a positive weight and unitary U."""

    weight: float
    unitary: np.ndarray

    @staticmethod
    def _apply_stack(X, weight, unitary) -> np.ndarray:
        w = np.asarray(weight, dtype=float)[:, None, None]
        return w * (unitary.conj().swapaxes(-1, -2) @ X @ unitary)

    def out_dim(self, dim: int) -> int:
        return dim


@dataclass(frozen=True)
class KrausMap(PositiveMap):
    """X -> sum_k V_k* X V_k for a list of dim_in x dim_out operators."""

    operators: tuple

    @staticmethod
    def _apply_stack(X, operators) -> np.ndarray:
        # Python's sum, from 0, over each map's k-th operators in k order
        return sum(V.conj().swapaxes(-1, -2) @ X @ V for V in operators.swapaxes(0, 1))

    def out_dim(self, dim: int) -> int:
        return self.operators[0].shape[1]


@dataclass(frozen=True)
class NormalizedTrace(PositiveMap):
    """X -> weight * Tr(X)/dim as a 1x1 matrix."""

    weight: float

    @staticmethod
    def _apply_stack(X, weight) -> np.ndarray:
        w = np.asarray(weight, dtype=float)
        return (w * np.trace(X, axis1=-2, axis2=-1) / X.shape[-1]).astype(complex)[:, None, None]

    def out_dim(self, dim: int) -> int:
        return 1


@dataclass(frozen=True)
class MapFamily:
    """A tuple of positive linear maps Phi_i.  Unitality, sum_i Phi_i(I) = I, is
    a hypothesis that the map-sum and Jensen kernels check per family stack."""

    maps: tuple
    input_dim: int

    def __post_init__(self):
        if len(self.maps) == 0:
            raise ShapeError("MapFamily needs at least one map")

    @property
    def output_dim(self) -> int:
        return self.maps[0].out_dim(self.input_dim)

    def unital_residual(self) -> float:
        """||sum_i Phi_i(I) - I||_F: its map sum on identities, less I."""
        d = self.input_dim
        eyes = np.broadcast_to(np.eye(d), (1, len(self.maps), d, d))
        total = _map_family_sums(*_family_stack(self), eyes)[0]
        return float(_frob_rows(total - np.eye(total.shape[-1])))


@functools.lru_cache(maxsize=None)
def _arity(kind) -> int:
    """The number of a map kind's fields: its params in a family stack."""
    return len(dataclasses.fields(kind))


def _family_stack(family: MapFamily):
    """(kinds, params) of a family, as a stack of one."""
    return tuple(map(type, family.maps)), tuple(p for phi in family.maps for p in phi._fields())


def _family_of(kinds, params, dim: int) -> MapFamily:
    """The family of row 0 of a family stack, on dim x dim matrices."""
    maps, at = [], 0
    for kind in kinds:
        arity = _arity(kind)
        maps.append(kind(*(p[0].tolist() if p.ndim == 1 else p[0] for p in params[at:at + arity])))
        at += arity
    return MapFamily(tuple(maps), dim)


def _map_family_sums(kinds, params, mats) -> np.ndarray:
    """hermitize(sum_i Phi_i(A_i)) of each family of a family stack (kinds,
    params) on its row of the (k, n, d, d) stack ``mats``, as a (k, e, e)
    stack.  Each map index i runs one ``_apply_stack`` of its k maps on the
    stack of the k A_i's, the terms are added in map order, and the sum is
    hermitized in one stack (with a drift threshold per matrix), so a
    family's sum does not depend on the rest of the stack.  A non-finite sum
    raises ``hermitize``'s DomainError, not numpy's warnings."""
    out, at = None, 0
    with np.errstate(invalid="ignore", over="ignore"):
        for i, kind in enumerate(kinds):
            arity = _arity(kind)
            term = kind._apply_stack(mats[:, i], *params[at:at + arity])
            out, at = term if out is None else out + term, at + arity
    return hermitize(out)


def _family_operands(family: MapFamily, mats) -> list:
    """``mats`` as complex arrays, after a ShapeError unless they are one
    input_dim x input_dim matrix per map: the map-family boundary check."""
    if len(mats) != len(family.maps):
        raise ShapeError(f"family has {len(family.maps)} maps but got {len(mats)} matrices")
    mats = [np.asarray(A, dtype=complex) for A in mats]
    for A in mats:
        if A.shape != (family.input_dim, family.input_dim):
            raise ShapeError(f"matrix shape {A.shape} does not match dim {family.input_dim}")
    return mats


def apply_map_family(family: MapFamily, mats: Sequence[np.ndarray]) -> np.ndarray:
    """sum_i Phi_i(A_i) for matching lists of maps and Hermitian matrices,
    hermitized: a batch of one of ``_map_family_sums``, the kernel that the
    map-sum and Jensen suites run on their family stacks."""
    mats = np.stack(_family_operands(family, mats))[None]
    return _map_family_sums(*_family_stack(family), mats)[0]


# ---------------------------------------------------------------------------
# means and entropies
# ---------------------------------------------------------------------------


def _check_pd(w: np.ndarray, what: str) -> None:
    """DomainError unless every spectrum of w (..., d) is positive definite
    relative to its own scale: lambda_max > 0 and lambda_min > EIG_FLOOR
    lambda_max, so that c A passes for every c > 0 that A passes for."""
    lo, hi = w.min(axis=-1), w.max(axis=-1)
    bad = ~((hi > 0.0) & (lo > EIG_FLOOR * hi))  # so NaN fails
    if bad.any():
        j = np.unravel_index(np.argmax(bad), bad.shape)
        raise DomainError(f"{what} needs a positive definite matrix, eigenvalues above "
                          f"{EIG_FLOOR} times the largest; got [{lo[j]:.3e}, {hi[j]:.3e}]")


def _power_of_psd(w: np.ndarray, r: float) -> np.ndarray:
    _check_pd(w, "a matrix power")
    return w ** r


def _sqrt_of_psd(w: np.ndarray) -> np.ndarray:
    if w.min() < -1e-10:
        raise DomainError(f"sqrtm needs a PSD matrix, min eigenvalue {w.min():.3e}")
    return np.sqrt(np.maximum(w, 0.0))


def _invsqrt_of_pd(w: np.ndarray) -> np.ndarray:
    _check_pd(w, "invsqrtm")
    return 1.0 / np.sqrt(w)


def _log_of_pd(w: np.ndarray) -> np.ndarray:
    _check_pd(w, "log")
    return np.log(w)


def sqrtm_psd(A: np.ndarray) -> np.ndarray:
    w, V = _eigh_one(A)
    return _recompose(_sqrt_of_psd(w), V)


def invsqrtm_pd(A: np.ndarray) -> np.ndarray:
    w, V = _eigh_one(A)
    return _recompose(_invsqrt_of_pd(w), V)


def mat_power(A: np.ndarray, r: float) -> np.ndarray:
    """A^r for positive definite A (any finite real r)."""
    if not np.isfinite(r):
        raise DomainError(f"mat_power needs a finite r, got {r}")
    w, V = _eigh_one(A)
    return _recompose(_power_of_psd(w, r), V)


def mat_log(A: np.ndarray) -> np.ndarray:
    w, V = _eigh_one(A)
    return _recompose(_log_of_pd(w), V)


def _z_relative(Z, Xs):
    """((w, V) of Z, [hermitize(Z^(-1/2) X Z^(-1/2)) for X in Xs]) from one
    decomposition of the positive definite Z."""
    w, V = _eigh(Z[None])
    zis = _recompose(_invsqrt_of_pd(w), V)[0]
    return (w[0], V[0]), [hermitize(zis @ np.asarray(X, dtype=complex) @ zis) for X in Xs]


def _mean_step(zw, zV, w, V, weights, rs) -> np.ndarray:
    """hermitize(Z^(1/2) (sum_i w_i A_i^r) Z^(1/2)) of each row, from the
    (w, V) of its Z, (k, d) and (k, d, d), and of its Z-relative tuple
    A_1..A_n, (k, n, d) and (k, n, d, d), with its weights (k, n) and its r;
    r = None takes log A_i for A_i^r (the r -> 0 limits).  The powers are
    taken on the sub-stack of each r (a scalar exponent and an array of them
    may round differently), the roots and images recomposed in one stack and
    each sum taken in i order from 0, as Python's ``sum`` is.  Every step
    treats a matrix on its own, so a row gets the bits of a batch of one."""
    k, n, d = w.shape
    spectra = w.reshape(-1, d)
    keys = {r: j for j, r in enumerate(dict.fromkeys(rs))}
    row_key = np.repeat([keys[r] for r in rs], n)
    images = np.empty_like(spectra)
    for r, j in keys.items():
        rows = row_key == j
        images[rows] = _log_of_pd(spectra[rows]) if r is None else _power_of_psd(spectra[rows], r)
    X = _recompose(np.concatenate([_sqrt_of_psd(zw), images]),
                   np.concatenate([zV, V.reshape(-1, d, d)]))
    zs, X = X[:k], X[k:].reshape(k, n, d, d)
    return hermitize(zs @ sum(weights[:, i, None, None] * X[:, i] for i in range(n)) @ zs)


def _mean_of_one(X, Y, r) -> np.ndarray:
    """``_mean_step`` on the batch of one (X, Y, r): X #_r Y, or
    X^(1/2) log(X^(-1/2) Y X^(-1/2)) X^(1/2) for r = None."""
    X = assert_hermitian(X, "X")
    Y = assert_hermitian(Y, "Y")
    if X.shape != Y.shape:
        raise ShapeError("X and Y must share a dimension")
    (wx, Vx), (mid,) = _z_relative(X, [Y])
    w, V = _eigh(mid[None])
    return _mean_step(wx[None], Vx[None], w[None], V[None], np.ones((1, 1)), [r])[0]


def natural_power_mean(X: np.ndarray, Y: np.ndarray, r: float) -> np.ndarray:
    """X^(1/2) (X^(-1/2) Y X^(-1/2))^r X^(1/2) for positive definite X, Y.

    For r in [0, 1] this is the weighted geometric mean; r = 0 gives X and
    r = 1 gives Y.  r must be finite.
    """
    if not np.isfinite(r):
        raise DomainError(f"natural power mean needs a finite r, got {r}")
    return _mean_of_one(X, Y, r)


def tsallis_relative_operator_entropy(X: np.ndarray, Y: np.ndarray, r: float) -> np.ndarray:
    """(X natural_r Y - X)/r, with the r -> 0 branch
    X^(1/2) log(X^(-1/2) Y X^(-1/2)) X^(1/2)."""
    if abs(r) < 1e-12:
        return relative_operator_entropy(X, Y)
    return (natural_power_mean(X, Y, r) - np.asarray(X, dtype=complex)) / r


def relative_operator_entropy(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return _mean_of_one(X, Y, None)


def _spectrum_row(w) -> np.ndarray:
    """w as one row (1, d), rejecting an empty spectrum and a non-finite
    entry or one below -1e-10, the slack of ``_density_evals``: no density
    matrix has such a spectrum."""
    W = np.asarray(w, dtype=float).reshape(1, -1)
    if not W.size:
        raise DomainError("a spectrum needs at least one entry")
    bad = ~np.isfinite(W) | (W < -1e-10)
    if bad.any():
        raise DomainError(f"spectrum entries must be finite and >= -1e-10, got {W[bad][0]}")
    return W


def von_neumann_entropy_from_evals(w) -> float:
    """-sum w log w over the positive entries of a spectrum (0 log 0 = 0): a
    batch of one of the entropy row kernel ``_cross_rows(W, W)``."""
    W = _spectrum_row(w)
    return float(_cross_rows(W, W)[0])


def tsallis_entropy_from_evals(w, r: float) -> float:
    """sum w ln_r(1/w) = (sum w^(1-r) - sum w)/r over the positive entries
    of a spectrum, for r in (0, 1]: a batch of one of the entropy row kernel
    ``_cross_rows(W, W, r)``, accurate as r -> 0."""
    if not 0.0 < r <= 1.0:
        raise DomainError(f"Tsallis entropy needs r in (0, 1], got {r}")
    W = _spectrum_row(w)
    return float(_cross_rows(W, W, r)[0])


def von_neumann_entropy(rho) -> float:
    """-Tr[rho log rho] with 0 log 0 = 0; lives in [0, log dim]."""
    return von_neumann_entropy_from_evals(_density_evals(rho)[1])


def quantum_tsallis_entropy(rho, r: float) -> float:
    """(Tr[rho^(1-r)] - 1)/r for r in (0, 1]; nonnegative, 0 on pure states."""
    return tsallis_entropy_from_evals(_density_evals(rho)[1], r)


def trace_distance_l1(A, B) -> float:
    """Tr|A - B| = sum of absolute eigenvalues of the difference."""
    A = assert_hermitian(A, "A")
    B = assert_hermitian(B, "B")
    if A.shape != B.shape:
        raise ShapeError("A and B must share a dimension")
    w = _eigvalsh((A - B)[None])[0]
    return float(np.abs(w).sum())


# ---------------------------------------------------------------------------
# random ensembles: drawn, then built in stacks
# ---------------------------------------------------------------------------
# A random matrix is made in two steps.  The draw makes the rng calls: a
# complex Gaussian G, and for a spectrum its uniform eigenvalues.  The build
# turns a stack of draws, with any leading batch axes (say, one block of
# equal shape per trial), into matrices, one stacked step each: a QR with
# its phase fix, U diag(w) U*, G G*/tr and hermitize.  Each step treats
# every matrix of a stack on its own (LAPACK and BLAS per matrix,
# elementwise arithmetic otherwise), so a matrix gets the same bits in any
# stack, and the public ensembles are batches of one
# (tests/test_operator_calculus.py::TestEnsembleBuild).


def _gaussian(dim: int, rng: np.random.Generator, k: int | None = None) -> np.ndarray:
    """The draw of every ensemble: a complex Gaussian (dim, dim) matrix, or
    k of them as a (k, dim, dim) stack from one rng call, the numbers of k draws.
    dim must be an integer >= 1, else DomainError."""
    if not _is_int(dim) or dim < 1:
        raise DomainError(f"need an integer dim >= 1, got {dim!r}")
    X = rng.standard_normal((2, dim, dim) if k is None else (k, 2, dim, dim))
    return X[0] + 1j * X[1] if k is None else X[:, 0] + 1j * X[:, 1]


def _draw_spectrum(dim: int, iv: Interval, rng: np.random.Generator):
    """The draw of ``rand_hermitian_spectrum_in``: a Gaussian G and a
    spectrum w uniform in iv (DomainError, before any draw, where iv's
    width overflows)."""
    _width(iv.m, iv.M)
    return _gaussian(dim, rng), rng.uniform(iv.m, iv.M, size=dim)


def _width(lo: float, hi: float) -> float:
    """hi - lo, the width of a uniform draw on [lo, hi]; DomainError where it
    overflows a float, where numpy's uniform sampler raises OverflowError."""
    if not math.isfinite(hi - lo):
        raise DomainError(f"the width of [{lo}, {hi}] overflows a float")
    return hi - lo


def _unitaries(G: np.ndarray) -> np.ndarray:
    """Q of the QR of each matrix in the stack G, with each column's phase
    fixed by R's diagonal (Haar unitaries for Gaussian G)."""
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag))[..., None, :]


def _build_haar(Gu: np.ndarray, Gs: np.ndarray, w: np.ndarray):
    """(unitaries (..., a, d, d), Hermitian matrices (..., b, d, d)) of
    stacked draws: the unitaries of the Gaussians Gu, and U diag(w) U* for
    the Gaussians Gs with spectra w (..., b, d), from one QR over Gu and Gs."""
    a = Gu.shape[-3]
    U = _unitaries(np.concatenate([Gu, Gs], axis=-3))
    V = U[..., a:, :, :]
    return U[..., :a, :, :], hermitize(V @ (w[..., :, None] * np.swapaxes(V, -1, -2).conj()))


def _build_densities(G: np.ndarray) -> np.ndarray:
    """Density matrices G G*/Tr(G G*) of a stack of Gaussians G."""
    rho = G @ np.swapaxes(G, -1, -2).conj()
    return hermitize(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None])


def rand_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary via orthonormalization of a complex Gaussian matrix."""
    return _unitaries(_gaussian(dim, rng)[None])[0]


def rand_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix G G*/Tr(G G*) from a complex Gaussian G."""
    return _build_densities(_gaussian(dim, rng)[None])[0]


def rand_hermitian_spectrum_in(dim: int, iv: Interval, rng: np.random.Generator) -> np.ndarray:
    """U diag(uniform[m, M]) U* for a random unitary U."""
    G, w = (x[None] for x in _draw_spectrum(dim, iv, rng))
    return _build_haar(G[:0], G, w)[1][0]


# ---------------------------------------------------------------------------
# JSON exchange format
# ---------------------------------------------------------------------------


def matrix_to_json(A: np.ndarray) -> dict:
    """{dim, re, im} with row-major entry lists."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got {A.shape}")
    return {
        "dim": int(A.shape[0]),
        "re": [float(v) for v in A.real.ravel()],
        "im": [float(v) for v in A.imag.ravel()],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """The matrix of a {dim, re, im} object: DomainError for a missing key,
    a dim that is not an integer >= 1 or a non-finite entry, ShapeError for
    re or im not of dim^2 entries."""
    if not isinstance(obj, dict) or not {"dim", "re", "im"} <= obj.keys():
        raise DomainError("matrix JSON must be an object with the keys dim, re and im")
    dim = obj["dim"]
    if not _is_int(dim) or dim < 1:
        raise DomainError(f"matrix JSON needs an integer dim >= 1, got {dim!r}")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.size != dim * dim or im.size != dim * dim:
        raise ShapeError(f"re/im length must be dim^2 = {dim * dim}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise DomainError("matrix entries must be finite")
    return (re + 1j * im).reshape(dim, dim)
