"""Eigen-analysis of linear matrix pencils ``A − λB``.

For a (possibly non-square) pencil the *generic rank* is the maximal rank of
``A − λB`` over λ, attained off a finite set.  A λ where the rank drops below
the generic rank is *essential* (there are finitely many); a λ where the
pencil is merely column-rank-deficient without a drop is *quasi* (for a wide
pencil that is every other λ — a continuum, so quasi is a classification,
never an enumeration).  Both are rank decisions, and every rank here, of a
probe, a candidate or a kernel, is taken with :func:`svd_rank`'s threshold,
relative to the largest singular value.

Real essential eigenvalues are located as real roots of the Gram determinant
``p(λ) = det[(A−λB)(A−λB)ᵀ]``, a polynomial of degree at most twice the row
count: it is evaluated on Chebyshev nodes over a bracketing interval, fitted
exactly, and every candidate root is verified by an independent rank check
before being reported.  That check follows a golden-section polish of the
candidate; a candidate whose singular values, by Weyl's inequality, keep
the generic rank everywhere the polish could move it is rejected without
one.  Candidates are verified in order, and a polish stops early once it is
bound to end within the deduplication tolerance of a λ already accepted:
such a candidate can only be a duplicate or be rejected, so stopping it
changes no result.  When the determinant underflows at every node or
overflows at one, both sides are scaled by a power of two, which keeps the
roots, and the scan is repeated.  Square pencils delegate to the QZ
algorithm.

The singular values come from the LAPACK gufunc behind
``np.linalg.svd(compute_uv=False)``, called without NumPy's wrapper, whose
cost is a large share of a small SVD; the results are the same bits.
:func:`_lstsq` does the same for ``np.linalg.lstsq``, for a whole stack of
least-squares systems at once (the Gauss–Newton steps of ``u_eigen``).
``scipy.linalg`` is imported only by the QZ and row-selection paths, so that
importing the package does not pay for it.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

try:
    from numpy.linalg._umath_linalg import lstsq as _lstsq_gufunc, svd as _svd_gufunc
except ImportError:  # NumPy 1.x splits them into lstsq_m/lstsq_n and svd_m/svd_n
    _lstsq_gufunc = _svd_gufunc = None

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

#: Half-width of :func:`_polish_rank_drop`'s search interval, relative to max(1, |λ|).
_POLISH_SPAN = 1e-2


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


def svd_rank(svals: np.ndarray, shape: tuple[int, ...]) -> int:
    """Count of singular values (descending) of a ``shape`` matrix above the rank threshold.

    The threshold is ``max(shape)·ε·σ_max·RANK_TOL_SCALE``, relative to the
    largest singular value, so the rank does not depend on the matrix's
    scale; a matrix with no positive singular value has rank 0.
    """
    if not (svals.size and svals[0] > 0.0):
        return 0
    tol = max(shape) * np.finfo(float).eps * svals[0] * RANK_TOL_SCALE
    return int(np.count_nonzero(svals > tol))


def _linalg_errstate(message: str) -> np.errstate:
    """The floating-point error state that ``np.linalg`` enters around a LAPACK gufunc.

    A LAPACK failure sets the invalid flag, which then raises
    ``LinAlgError(message)``.
    """

    def fail(err: str, flag: int) -> None:
        raise np.linalg.LinAlgError(message)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


def _svd_errstate() -> np.errstate:
    """The error state that ``np.linalg.svd`` enters around its gufunc."""
    return _linalg_errstate("SVD did not converge")


def _svals(m: np.ndarray) -> np.ndarray:
    """Singular values, descending, of a float or complex matrix or of each matrix of a stack.

    Bit for bit ``np.linalg.svd(m, compute_uv=False)``: the same gufunc,
    without NumPy's wrapper.  Call it inside :func:`_svd_errstate`, so that a
    loop of SVDs enters the error state once.
    """
    if _svd_gufunc is None:
        return np.linalg.svd(m, compute_uv=False)
    return _svd_gufunc(m, signature="D->d" if np.iscomplexobj(m) else "d->d")


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution of each real system ``a[i] · x = b[i]`` of a stack.

    ``a`` is a ``(k × F × m)`` stack and ``b`` a ``(k × F)`` one; row ``i``
    of the ``(k × m)`` result is bit for bit
    ``np.linalg.lstsq(a[i], b[i], rcond=None)[0]``.  All ``k`` systems go
    through one call of the gufunc that ``np.linalg.lstsq`` calls for one,
    with its arguments and error state, so each one meets the same LAPACK
    ``gelsd`` call with the same workspace as it would alone.  A system with
    a NaN or infinite entry in ``a`` raises the same ``LinAlgError``.
    """
    if _lstsq_gufunc is None:
        steps = [np.linalg.lstsq(ai, bi, rcond=None)[0] for ai, bi in zip(a, b)]
        return np.array(steps).reshape(len(a), a.shape[-1])
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    with _linalg_errstate("SVD did not converge in Linear Least Squares"):
        x = _lstsq_gufunc(a, b[..., None], rcond, signature="ddd->ddid")[0]
    return x[..., 0]


def numerical_rank(m: np.ndarray) -> int:
    """Rank of a real or complex matrix by SVD with the :func:`svd_rank` threshold."""
    mat = np.atleast_2d(np.asarray(m, dtype=complex if np.iscomplexobj(m) else float))
    if mat.size == 0:
        return 0
    with _svd_errstate():
        return svd_rank(_svals(mat), mat.shape)


def generic_rank(p: Pencil, seed: int = 42) -> int:
    """Maximal numerical rank of ``A − λB`` over seeded random probe values of λ.

    ``_RANK_PROBES`` probes are drawn uniformly from ``[−1, 1]``; the generic
    rank is attained off a finite set, so a handful of probes suffices and the
    fixed seed keeps results reproducible.
    """
    rng = np.random.default_rng(seed)
    lams = rng.uniform(-1.0, 1.0, size=_RANK_PROBES)
    return max(svd_rank(svals, p.shape) for svals in _stacked_svals(p, lams))


def classify(p: Pencil, lam: float | complex, rg: int | None = None) -> EigenClass | None:
    """Classify λ: ``ESSENTIAL`` (rank drop), ``QUASI`` (column deficiency only), or ``None``."""
    if rg is None:
        rg = generic_rank(p)
    rank = numerical_rank(p.at(lam))
    ncols = p.shape[1]
    if rank < rg:
        return EigenClass.ESSENTIAL
    if rank < ncols:
        return EigenClass.QUASI
    return None


def square_pencil_eigen(p: Pencil) -> np.ndarray:
    """All generalized eigenvalues of a square pencil via QZ (complex, possibly infinite).

    Raises :class:`DegeneratePencilError` when the pencil is singular
    (``det(A − λB)`` identically zero), which has no discrete spectrum: some
    eigenvalue pair ``α/β`` has both parts at rounding level, ``|α|`` against
    ``‖A‖`` and ``|β|`` against ``‖B‖``, so the test does not depend on the
    pencil's scale.
    """
    import scipy.linalg as sla

    if not p.is_square:
        raise ValueError(f"pencil is not square: shape {p.shape}")
    alpha, beta = sla.eig(p.a, p.b, right=False, homogeneous_eigvals=True)
    degenerate = (np.abs(alpha) <= 1e-12 * float(np.linalg.norm(p.a))) & (
        np.abs(beta) <= 1e-12 * float(np.linalg.norm(p.b))
    )
    if np.any(degenerate):
        raise DegeneratePencilError(
            "det(A - lam*B) vanishes identically; the pencil has no discrete spectrum"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        lams = np.where(np.abs(beta) > 0, alpha / beta, np.inf + 0j)
    return lams


def _select_rows(p: Pencil, rg: int, seed: int = 42) -> np.ndarray:
    """Indices of ``rg`` rows achieving the generic rank (pivoted QR at a probe λ)."""
    import scipy.linalg as sla

    rng = np.random.default_rng(seed + 1)
    lam0 = rng.uniform(-1.0, 1.0)
    m = p.at(lam0)
    _, _, piv = sla.qr(m.T, mode="economic", pivoting=True)
    return np.sort(piv[:rg])


def essential_eigenvalues_real(p: Pencil, seed: int = 42, rg: int | None = None) -> list[float]:
    """Real essential eigenvalues of a wide or square pencil, rank-verified.

    ``rg`` is the pencil's generic rank if the caller has taken it, else
    :func:`generic_rank` takes it with ``seed``.  Square pencils delegate to
    :func:`square_pencil_eigen` and keep the real finite eigenvalues that
    drop the rank below generic.  Wide pencils locate real roots of the Gram
    determinant ``det[(A−λB)(A−λB)ᵀ]`` by exact polynomial fitting on
    Chebyshev nodes over an adaptive interval; if the generic rank is below
    the row count, a maximal independent row subset is selected first.
    Every candidate is verified by an independent rank check after a local
    σ_min polish; a candidate that Weyl's inequality proves keeps the generic
    rank everywhere the polish can reach is rejected without one (see
    :func:`_weyl_rejected`).
    """
    m, n = p.shape
    if m > n:
        raise ValueError(f"pencil must be wide or square, got shape {p.shape}")
    if rg is None:
        rg = generic_rank(p, seed=seed)
    if rg == 0:
        return []  # no rank can drop below 0

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
            return _verified(p, reals, rg)
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
    return _verified(p, cands, rg)


def _gram_scan(p: Pencil, nodes: np.ndarray) -> tuple[np.ndarray, float]:
    """Gram determinants at the nodes and their largest magnitude (0, inf or nan on failure).

    One stack of ``A − λB`` for all nodes; each determinant has the bits of
    ``det(m @ m.T)`` for the single matrix ``m = p.at(λ)``.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ms = p.a - nodes[:, None, None] * p.b
        vals = np.linalg.det(ms @ ms.swapaxes(1, 2))
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


def _verified(p: Pencil, cands: list[float], rg: int) -> list[float]:
    """The candidates whose polished λ drops the rank below ``rg``, deduplicated, ascending.

    Candidates that :func:`_weyl_rejected` proves rejected are dropped
    unpolished.  The others are polished and rank-checked one by one, in
    candidate order; a polished λ within ``1e-6·max(1, |prev|)`` of an
    accepted ``prev`` is a duplicate.  Each polish is handed the λ accepted
    so far and σ_rg(λ₀) from the Weyl test's stacked SVD (the same bits as
    its own), and it stops early only when it is bound to return a duplicate
    or a rejected λ (see :func:`_polish_rank_drop`).  So the result is that
    of polishing and checking every candidate in turn, to the bit.
    """
    if not cands:
        return []
    lams = np.array(cands)
    svals = _stacked_svals(p, lams)
    rejected = _weyl_rejected(p, lams, rg, svals)
    out: list[float] = []
    for lam, sigma0, skip in zip(cands, svals[:, rg - 1], rejected):
        if skip:
            continue
        lam = _polish_rank_drop(p, lam, rg, float(sigma0), out)
        if lam is None or any(abs(lam - prev) <= 1e-6 * max(1.0, abs(prev)) for prev in out):
            continue
        if numerical_rank(p.at(lam)) < rg:
            out.append(lam)
    return sorted(out)


def _weyl_rejected(
    p: Pencil, lams: np.ndarray, rg: int, svals: np.ndarray | None = None
) -> np.ndarray:
    """Mask of the candidates λ₀ that keep rank ``rg`` wherever the polish can move them.

    :func:`_polish_rank_drop` returns a point within ``s = _POLISH_SPAN·max(1, |λ₀|)``
    of λ₀, and by Weyl's inequality no singular value of ``A − λB`` moves by
    more than ``|λ − λ₀|·‖B‖₂ ≤ s·‖B‖₂`` on that interval.  So when
    ``σ_rg(λ₀) − s·‖B‖₂`` exceeds twice the largest threshold that
    :func:`svd_rank` can use there, plus an allowance for the rounding of
    forming and factoring ``A − λB``, the rank check after the polish finds
    rank ``rg`` and rejects the candidate.  ``svals``, if given, holds
    ``_stacked_svals(p, lams)``.
    """
    if svals is None:
        svals = _stacked_svals(p, lams)
    eps = np.finfo(float).eps
    b_norm = float(np.linalg.norm(p.b, 2))
    drift = _POLISH_SPAN * np.maximum(1.0, np.abs(lams)) * b_norm
    tol = max(p.shape) * eps * RANK_TOL_SCALE * (svals[:, 0] + drift)
    rounding = 8 * max(p.shape) * eps * (svals[:, 0] + drift + np.abs(lams) * b_norm)
    return svals[:, rg - 1] - drift > 2.0 * tol + rounding


def _stacked_svals(p: Pencil, lams: np.ndarray) -> np.ndarray:
    """Singular values of ``A − λB`` at each λ, one row each, bit for bit those of ``p.at(λ)``."""
    with _svd_errstate():
        return _svals(p.a - lams[:, None, None] * p.b)


def _polish_rank_drop(
    p: Pencil,
    lam: float,
    rg: int,
    sigma0: float | None = None,
    accepted: Sequence[float] = (),
) -> float | None:
    """Locally minimize the σ_rg singular value around a candidate root.

    Polynomial root candidates (especially multiple roots) carry ~√ε error,
    while the strict rank threshold needs the root to near machine precision.
    Golden-section search has no √ε x-resolution floor (unlike parabolic
    scalar minimizers tuned for smooth objectives), so it can pin the kink of
    the V-shaped singular-value curve to ~1e-15 relative accuracy.  It
    returns the better of its bracket's two points if that beats σ_rg(λ₀),
    else λ₀.

    ``sigma0`` is σ_rg(λ₀) when the caller has it.  Given the λ already
    ``accepted``, the search returns ``None`` as soon as it is bound to end
    within half of :func:`_verified`'s deduplication tolerance of one of them,
    where it could only be a duplicate or be rejected: the best σ_rg
    found only falls, so once it is below σ_rg(λ₀) the result is a point of
    the current bracket, and the bracket only shrinks.
    """
    a, b = p.a, p.b
    idx = min(max(rg, 1), min(p.shape)) - 1
    halves = [(prev, 0.5e-6 * max(1.0, abs(prev))) for prev in accepted]
    span = _POLISH_SPAN * max(1.0, abs(lam))
    lo, hi = lam - span, lam + span
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - ratio * (hi - lo)
    d = lo + ratio * (hi - lo)
    with _svd_errstate():
        if sigma0 is None:
            sigma0 = float(_svals(a - lam * b)[idx])
        fc, fd = float(_svals(a - c * b)[idx]), float(_svals(a - d * b)[idx])
        for _ in range(120):
            if hi - lo <= 1e-15 * max(1.0, abs(lam)):
                break
            if (
                halves
                and min(fc, fd) < sigma0
                and any(prev - half <= lo and hi <= prev + half for prev, half in halves)
            ):
                return None
            if fc <= fd:
                hi, d, fd = d, c, fc
                c = hi - ratio * (hi - lo)
                fc = float(_svals(a - c * b)[idx])
            else:
                lo, c, fc = c, d, fd
                d = lo + ratio * (hi - lo)
                fd = float(_svals(a - d * b)[idx])
    # σ_rg at the better point is min(fc, fd) itself: the same matrix, the same bits.
    return float(c if fc <= fd else d) if min(fc, fd) < sigma0 else lam


def _kernel_rows(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical null space of ``m``, one vector per row."""
    _, svals, vh = np.linalg.svd(m)
    return vh[svd_rank(svals, m.shape) :].conj()


def kernel_basis(p: Pencil, lam: float | complex) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space of ``A − λB`` (possibly empty)."""
    m = p.at(lam)
    if np.iscomplexobj(m) and np.max(np.abs(m.imag)) == 0.0:
        m = m.real
    kernel = _kernel_rows(m)
    if np.iscomplexobj(kernel) and not kernel.imag.any():
        kernel = kernel.real
    # Copies, so that a kernel vector does not keep the whole Vᴴ alive.
    return [v.copy() for v in kernel]


def solution_at(p: Pencil, lam: float | complex, rg: int | None = None) -> EigenSolution | None:
    """Bundle classification + kernel basis + residual at λ (``None`` if not an eigenvalue)."""
    eigen_class = classify(p, lam, rg=rg)
    if eigen_class is None:
        return None
    kernel = tuple(kernel_basis(p, lam))
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
