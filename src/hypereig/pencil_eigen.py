"""Eigen-analysis of linear matrix pencils ``A − λB``.

For a (possibly non-square) pencil the *generic rank* is the maximal rank of
``A − λB`` over λ, attained off a finite set.  A λ where the rank drops below
the generic rank is *essential* (there are finitely many); a λ where the
pencil is merely column-rank-deficient without a drop is *quasi* (for a wide
pencil that is every other λ — a continuum, so quasi is a classification,
never an enumeration).

Real essential eigenvalues are located as real roots of the Gram determinant
``p(λ) = det[(A−λB)(A−λB)ᵀ]``, a polynomial of degree at most twice the row
count: it is evaluated on Chebyshev nodes over a bracketing interval, fitted
exactly, and every candidate root is verified by an independent rank check
before being reported.  When the determinant underflows at every node or
overflows at one, both sides are scaled by a power of two, which keeps the
roots, and the scan is repeated.  Square pencils delegate to the QZ
algorithm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg as sla

__all__ = [
    "DegeneratePencilError",
    "EigenClass",
    "EigenSolution",
    "Pencil",
    "classify",
    "essential_eigenvalues_real",
    "generic_rank",
    "kernel_basis",
    "numerical_rank",
    "psi_reduction",
    "solution_at",
    "square_pencil_eigen",
    "svd_rank",
]

#: Multiplier on the machine-epsilon rank threshold (see :func:`svd_rank`).
RANK_TOL_SCALE = 1e3

#: Random λ values at which :func:`generic_rank` takes the rank.
_RANK_PROBES = 5

#: Number of adaptive widenings of the root-search interval.
_MAX_WIDENINGS = 2


class DegeneratePencilError(RuntimeError):
    """A square pencil with det(A − λB) identically zero (no discrete spectrum)."""


@dataclass(frozen=True)
class Pencil:
    """Linear pencil ``A − λB`` with equally shaped ``A`` and ``B``."""

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        if a.shape != b.shape:
            raise ValueError(f"pencil sides have different shapes {a.shape} != {b.shape}")
        if a.size == 0:
            raise ValueError("pencil must be non-empty")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("pencil entries must be finite")
        for m in (a, b):
            m.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def is_square(self) -> bool:
        return self.a.shape[0] == self.a.shape[1]

    def at(self, lam: float | complex) -> np.ndarray:
        """The matrix ``A − λB``."""
        return self.a - lam * self.b


class EigenClass(Enum):
    """Classification of an eigenvalue of a pencil."""

    ESSENTIAL = "essential"
    QUASI = "quasi"


@dataclass(frozen=True)
class EigenSolution:
    """An eigenvalue with its orthonormal kernel basis and residual bound."""

    lam: complex
    eigen_class: EigenClass
    kernel: tuple[np.ndarray, ...] = field(repr=False)
    residual: float = 0.0


def svd_rank(
    svals: np.ndarray, shape: tuple[int, ...], rank_tol: float | None = None
) -> int:
    """Count of singular values (descending) of a ``shape`` matrix above the rank threshold.

    The threshold is ``max(shape)·ε·σ_max·RANK_TOL_SCALE``, or an explicit
    ``rank_tol``; a matrix with no positive singular value has rank 0.
    """
    if not (svals.size and svals[0] > 0.0):
        return 0
    tol = (
        max(shape) * np.finfo(float).eps * svals[0] * RANK_TOL_SCALE
        if rank_tol is None
        else float(rank_tol)
    )
    return int(np.count_nonzero(svals > tol))


def numerical_rank(m: np.ndarray, rank_tol: float | None = None) -> int:
    """Rank by SVD with the :func:`svd_rank` threshold."""
    mat = np.atleast_2d(np.asarray(m, dtype=float))
    if mat.size == 0:
        return 0
    return svd_rank(np.linalg.svd(mat, compute_uv=False), mat.shape, rank_tol)


def generic_rank(p: Pencil, seed: int = 42, rank_tol: float | None = None) -> int:
    """Maximal numerical rank of ``A − λB`` over seeded random probe values of λ.

    ``_RANK_PROBES`` probes are drawn uniformly from ``[−1, 1]``; the generic
    rank is attained off a finite set, so a handful of probes suffices and the
    fixed seed keeps results reproducible.
    """
    rng = np.random.default_rng(seed)
    lams = rng.uniform(-1.0, 1.0, size=_RANK_PROBES)
    return max(numerical_rank(p.at(lam), rank_tol) for lam in lams)


def classify(
    p: Pencil,
    lam: float | complex,
    rg: int | None = None,
    tol: float | None = None,
) -> EigenClass | None:
    """Classify λ: ``ESSENTIAL`` (rank drop), ``QUASI`` (column deficiency only), or ``None``."""
    if rg is None:
        rg = generic_rank(p, rank_tol=tol)
    rank = numerical_rank(p.at(lam), tol)
    ncols = p.shape[1]
    if rank < rg:
        return EigenClass.ESSENTIAL
    if rank < ncols:
        return EigenClass.QUASI
    return None


def square_pencil_eigen(p: Pencil) -> np.ndarray:
    """All generalized eigenvalues of a square pencil via QZ (complex, possibly infinite).

    Raises :class:`DegeneratePencilError` when the pencil is singular
    (``det(A − λB)`` identically zero), which has no discrete spectrum.
    """
    if not p.is_square:
        raise ValueError(f"pencil is not square: shape {p.shape}")
    alpha, beta = sla.eig(p.a, p.b, right=False, homogeneous_eigvals=True)
    scale = max(float(np.linalg.norm(p.a)), float(np.linalg.norm(p.b)), 1.0)
    degenerate = (np.abs(alpha) <= 1e-12 * scale) & (np.abs(beta) <= 1e-12)
    if np.any(degenerate):
        raise DegeneratePencilError(
            "det(A - lam*B) vanishes identically; the pencil has no discrete spectrum"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        lams = np.where(np.abs(beta) > 0, alpha / beta, np.inf + 0j)
    return lams


def _select_rows(p: Pencil, rg: int, seed: int = 42) -> np.ndarray:
    """Indices of ``rg`` rows achieving the generic rank (pivoted QR at a probe λ)."""
    rng = np.random.default_rng(seed + 1)
    lam0 = rng.uniform(-1.0, 1.0)
    m = p.at(lam0)
    _, _, piv = sla.qr(m.T, mode="economic", pivoting=True)
    return np.sort(piv[:rg])


def essential_eigenvalues_real(
    p: Pencil,
    rank_tol: float | None = None,
    seed: int = 42,
) -> list[float]:
    """Real essential eigenvalues of a wide or square pencil, rank-verified.

    Square pencils delegate to :func:`square_pencil_eigen` and keep the real
    finite eigenvalues that drop the rank below generic.  Wide pencils locate
    real roots of the Gram determinant ``det[(A−λB)(A−λB)ᵀ]`` by exact
    polynomial fitting on Chebyshev nodes over an adaptive interval; if the
    generic rank is below the row count, a maximal independent row subset is
    selected first.  Every candidate is verified by an independent rank check
    (and a local σ_min polish) before being reported.
    """
    m, n = p.shape
    if m > n:
        raise ValueError(f"pencil must be wide or square, got shape {p.shape}")
    rg = generic_rank(p, seed=seed, rank_tol=rank_tol)
    if rg == 0:
        return []  # no rank can drop below 0

    def verified(cands: list[float]) -> list[float]:
        out: list[float] = []
        for lam in cands:
            lam = _polish_rank_drop(p, lam, rg)
            if numerical_rank(p.at(lam), rank_tol) < rg:
                if not any(abs(lam - prev) <= 1e-6 * max(1.0, abs(prev)) for prev in out):
                    out.append(lam)
        return sorted(out)

    if p.is_square:
        try:
            lams = square_pencil_eigen(p)
        except DegeneratePencilError:
            lams = None
        if lams is not None:
            reals = [
                float(lam.real)
                for lam in lams
                if np.isfinite(lam) and abs(lam.imag) <= 1e-8 * max(1.0, abs(lam))
            ]
            return verified(reals)
        # Degenerate square pencil: fall through to the Gram scan on the
        # row-reduced pencil, which still isolates the rank-dropping λ.

    work = p
    if rg < m:
        rows = _select_rows(p, rg, seed=seed)
        work = Pencil(p.a[rows], p.b[rows])

    rows_count = work.shape[0]
    deg = 2 * rows_count
    rho = float(np.linalg.norm(p.a, 2)) / max(float(np.linalg.norm(p.b, 2)), np.finfo(float).tiny)
    radius = 10.0 * max(rho, np.finfo(float).tiny)
    rescaled = False

    for _ in range(_MAX_WIDENINGS + 1):
        nodes = np.cos(np.pi * (2 * np.arange(deg + 1) + 1) / (2 * (deg + 1))) * radius
        vals, peak = _gram_scan(work, nodes)
        if not 0.0 < peak < np.inf and not rescaled:
            # The determinant under- or overflowed at the pencil's own scale.
            work, rescaled = _power_of_two_scaled(work), True
            vals, peak = _gram_scan(work, nodes)
        if peak == 0.0:
            # Gram determinant identically zero: row selection failed to fix
            # the rank; nothing to report from this scan.
            return []
        if not peak < np.inf:
            raise ValueError("the Gram determinant of the pencil overflows even after rescaling")
        coeffs = np.polynomial.chebyshev.chebfit(nodes / radius, vals / peak, deg)
        fit_err = float(
            np.max(np.abs(np.polynomial.chebyshev.chebval(nodes / radius, coeffs) - vals / peak))
        )
        if fit_err > 1e-6:
            warnings.warn(
                f"Gram-determinant fit is ill-conditioned (max node error {fit_err:.2e}); "
                "root candidates may be unreliable",
                RuntimeWarning,
                stacklevel=2,
            )
        roots = np.polynomial.chebyshev.chebroots(coeffs) * radius
        reals = [
            float(r.real)
            for r in roots
            if abs(r.imag) <= 1e-7 * max(1.0, abs(r))
        ]
        # Roots just beyond the interval suggest a too-small bracket; roots
        # orders of magnitude outside are artifacts of a vanishing leading
        # coefficient and carry no information.
        widen = any(0.9 * radius < abs(r) <= 20.0 * radius for r in reals)
        # A root of multiplicity k scatters into a ring of radius ~ε^(1/k);
        # the ring's centroid recovers the root far more accurately than any
        # single member, so cluster centroids join the candidate list.
        cands = [r for r in reals if abs(r) <= 1.5 * radius]
        cands.extend(_cluster_centroids(roots, radius))
        if not widen:
            break
        radius *= 4.0
    return verified(cands)


def _gram_scan(p: Pencil, nodes: np.ndarray) -> tuple[np.ndarray, float]:
    """Gram determinants at the nodes and their largest magnitude (0, inf or nan on failure)."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        vals = np.array([float(np.linalg.det(m @ m.T)) for m in map(p.at, nodes)])
        return vals, float(np.max(np.abs(vals)))


def _power_of_two_scaled(p: Pencil) -> Pencil:
    """Both sides times the power of two that brings the largest entry into [0.5, 1).

    Scaling by a power of two is exact and keeps every eigenvalue; it
    divides the Gram determinant of ``k`` rows by ``4^(k·exponent)``.
    """
    top = max(float(np.max(np.abs(p.a))), float(np.max(np.abs(p.b))))
    exponent = math.frexp(top)[1]
    return Pencil(np.ldexp(p.a, -exponent), np.ldexp(p.b, -exponent))


def _cluster_centroids(roots: np.ndarray, radius: float) -> list[float]:
    """Near-real centroids of single-linkage root clusters (size ≥ 2)."""
    pts = list(roots)
    if len(pts) < 2:
        return []
    threshold = 0.05 * radius
    parent = list(range(len(pts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(pts[i] - pts[j]) <= threshold:
                parent[find(i)] = find(j)
    clusters: dict[int, list[complex]] = {}
    for i, r in enumerate(pts):
        clusters.setdefault(find(i), []).append(complex(r))
    out = []
    for members in clusters.values():
        if len(members) < 2:
            continue
        centroid = sum(members) / len(members)
        if abs(centroid.imag) <= 1e-6 * max(1.0, radius):
            out.append(float(centroid.real))
    return out


def _polish_rank_drop(p: Pencil, lam: float, rg: int) -> float:
    """Locally minimize the σ_rg singular value around a candidate root.

    Polynomial root candidates (especially multiple roots) carry ~√ε error,
    while the strict rank threshold needs the root to near machine precision.
    Golden-section search has no √ε x-resolution floor (unlike parabolic
    scalar minimizers tuned for smooth objectives), so it can pin the kink of
    the V-shaped singular-value curve to ~1e-15 relative accuracy.
    """

    def sigma(l: float) -> float:
        svals = np.linalg.svd(p.at(l), compute_uv=False)
        idx = min(max(rg, 1), svals.size) - 1
        return float(svals[idx])

    span = 1e-2 * max(1.0, abs(lam))
    lo, hi = lam - span, lam + span
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - ratio * (hi - lo)
    d = lo + ratio * (hi - lo)
    fc, fd = sigma(c), sigma(d)
    for _ in range(120):
        if hi - lo <= 1e-15 * max(1.0, abs(lam)):
            break
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = sigma(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = sigma(d)
    best = c if fc <= fd else d
    return float(best) if sigma(best) < sigma(lam) else lam


def _kernel_rows(m: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the numerical null space of ``m``, one vector per row."""
    _, svals, vh = np.linalg.svd(m)
    return vh[svd_rank(svals, m.shape, rank_tol) :].conj()


def kernel_basis(
    p: Pencil,
    lam: float | complex,
    rank_tol: float | None = None,
) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of ``A − λB`` (possibly empty)."""
    m = p.at(lam)
    if np.iscomplexobj(m) and np.max(np.abs(m.imag)) == 0.0:
        m = m.real
    kernel = _kernel_rows(m, rank_tol)
    if np.iscomplexobj(kernel) and not kernel.imag.any():
        kernel = kernel.real
    # Copies, so that a kernel vector does not keep the whole Vᴴ alive.
    return [v.copy() for v in kernel]


def solution_at(
    p: Pencil,
    lam: float | complex,
    rg: int | None = None,
    rank_tol: float | None = None,
) -> EigenSolution | None:
    """Bundle classification + kernel basis + residual at λ (``None`` if not an eigenvalue)."""
    eigen_class = classify(p, lam, rg=rg, tol=rank_tol)
    if eigen_class is None:
        return None
    kernel = tuple(kernel_basis(p, lam, rank_tol))
    residual = max(
        (float(np.linalg.norm(p.at(lam) @ v)) for v in kernel),
        default=0.0,
    )
    return EigenSolution(lam=lam, eigen_class=eigen_class, kernel=kernel, residual=residual)


def psi_reduction(p: Pencil) -> tuple[np.ndarray, np.ndarray]:
    """Right-inverse reduction: ``Ψ = Bᵀ(BBᵀ)⁻¹`` and the reduced matrix ``AΨ``.

    Requires ``B`` of full row rank.  If ``v`` is an eigenvector of ``AΨ``
    with eigenvalue λ, then ``Ψv`` lies in the kernel of ``A − λB``.
    """
    b = p.b
    gram = b @ b.T
    if numerical_rank(gram) < gram.shape[0]:
        raise ValueError("B must have full row rank for the Ψ-reduction")
    psi = np.linalg.solve(gram, b).T
    return psi, p.a @ psi
