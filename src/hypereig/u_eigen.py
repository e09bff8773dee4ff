"""Eigenvalue/eigenvector drivers for equilateral hypermatrices.

The eigenproblem ``A·x = λ·𝓑(x)`` pairs a flattened hypermatrix ``A`` with a
multilinear *type map* 𝓑 given by factor matrices ``B_j`` (each ``n × n^r``),
whose composition ``B̃`` satisfies ``B̃·xˢ = (B_1 x) ⊗ … ⊗ (B_s x)``.  Raising
(anchored Ξ selection) and lowering (index-selection ``E`` maps, valid on
diagonal monic arguments) convert both sides to a common power of the
unknown, turning the problem into a linear pencil in ``ξ``.

One driver, :func:`solve`, enumerates the anchor cases of the problem's
mode once, builds each case's original equation and pencil, records the
pencil's generic rank and, from :func:`essential_eigenvalues_real` given
that rank, its real essential eigenvalues, and searches the pencil kernels
for structured eigenvectors.  Every rank, kernel dimension included, is
judged relative to the largest singular value (``pencil_eigen.svd_rank``);
no option sets it.  Every case is one equation ``A·x^lhs = λ·B̃·x^rhs``
over a tuple ``x`` of monic components, where ``x^k`` is the Kronecker
product of the tuple repeated ``k`` times:

* U mode — decomposable witnesses ``x_1 ⊗ … ⊗ x_r``, over
  ``x = (x_1, …, x_r)`` with powers ``(1, s)`` (one case per tuple of
  component leading indices);
* D mode — diagonal witnesses ``z ⊗ … ⊗ z``, over ``x = (z,)`` with powers
  ``(p, q)``: a U-eigenvector whose components are tied (one case per
  leading index of ``z``).

It returns the per-case pencil facts and the witnesses.  :func:`d_solve`,
:func:`u_solve` (witnesses only, in a fixed mode) and :func:`case_pencil`
(one case's pencil) are thin entry points into the same code.

The kernel search is deliberately not exhaustive (decomposable points of a
subspace form a polynomial variety): it decomposes kernel basis vectors and
two-vector combinations, refines with damped Gauss–Newton projection, and
additionally runs multi-start Gauss–Newton on the original equation with λ
free.  Every candidate is verified against the *original* equation before
being reported, and witnesses are returned monic.  Each tactic works on a
batch: a stack of kernel vectors or of Gauss–Newton points, one per row.
Every row is computed with the same floating-point operations as the row
alone (elementwise products, one matrix-vector or dot kernel per row, one
least-squares solve per row in a stacked LAPACK call), so the witnesses do
not depend on the batching, bit for bit.

A witness that annihilates both sides satisfies the equation for every λ and
is reported once, with λ canonicalized to 0.

:func:`iterate_least_squares` implements the alternating least-squares
iteration: a closed-form λ update, projection of the current diagonal power
onto the diagonal-consistent kernel, and extraction of the next component.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from collections.abc import Callable, Sequence

import numpy as np

from .hypermatrix import Hypermatrix, IndexPartition, _reals, _whole
from .hypervector import (
    DEFAULT_RECON_TOL,
    MonicDecomposition,
    _decompose_rows,
    _leading,
    _xi_slice,
    diagonal_index,
    extract_component,
    index_join,
    index_split,
    is_diagonal,
    mu,
)
from .pencil_eigen import (
    Pencil,
    _kernel_rows,
    _lstsq,
    essential_eigenvalues_real,
    generic_rank,
    kernel_basis,
)
from .stp_core import (
    MAX_RESULT_ENTRIES,
    SizeLimitError,
    _check_size,
    _dots,
    _norms,
    _outer,
    kron,
    stp_power,
)

__all__ = [
    "CaseFacts",
    "EigenWitness",
    "IterationBreakdown",
    "IterationState",
    "SolveOptions",
    "SolveResult",
    "TypeMap",
    "UEigenProblem",
    "build_d_pencil",
    "case_pencil",
    "compose_type",
    "d_solve",
    "iterate_least_squares",
    "lower_power_E",
    "named_type",
    "options_from_dict",
    "problem_from_dict",
    "problem_to_dict",
    "raise_power",
    "solve",
    "type_h",
    "type_inner_product",
    "type_markov",
    "u_solve",
]

NAMED_TYPES = ("identity-power", "H", "markov", "inner-product")


class IterationBreakdown(RuntimeError):
    """The least-squares iteration cannot proceed (λ undefined or kernel collapse)."""


# ---------------------------------------------------------------------------
# Type maps
# ---------------------------------------------------------------------------


def compose_type(Bs: Sequence[np.ndarray | Sequence], n: int, r: int) -> np.ndarray:
    """Compose factor matrices into ``B̃`` with ``B̃·xˢ = (B_1 x) ⊗ … ⊗ (B_s x)``.

    ``B̃ = B_1 ⊗ … ⊗ B_s``, of shape ``n^s × n^{rs}``: by the mixed-product
    rule this equals the STP chain ``B_1 ⋉ (I_{n^r} ⊗ B_2) ⋉ … ⋉
    (I_{n^{(s−1)r}} ⊗ B_s)``.
    """
    n, r = int(n), int(r)
    mats = [np.atleast_2d(np.asarray(b, dtype=float)) for b in Bs]
    if not mats:
        raise ValueError("need at least one factor matrix")
    for j, b in enumerate(mats, start=1):
        if b.shape != (n, n**r):
            raise ValueError(
                f"factor {j} has shape {b.shape}, expected {(n, n**r)}"
            )
    return functools.reduce(kron, mats)


def type_h(n: int, r: int) -> np.ndarray:
    """Power type: ``B·zʳ = (z_1ʳ, …, z_nʳ)ᵀ`` — rows select the diagonal indices."""
    n, r = int(n), int(r)
    b = np.zeros((n, n**r))
    for k in range(1, n + 1):
        b[k - 1, diagonal_index(k, n, r) - 1] = 1.0
    return b


def type_markov(n: int, r: int) -> np.ndarray:
    """Sum-power type: ``B·zʳ = (z_1 + … + z_n)^{r−1} · z``.

    Each multinomial weight is placed on a single representative column: for
    a size-``(r−1)`` multiset ``J`` and row ``i``, the column of
    ``sorted(J + (i,))`` when ``i ≥ min(J)``, else the column of ``J + (i,)``.
    On diagonal arguments the placement is immaterial.
    """
    n, r = int(n), int(r)
    if r < 2:
        raise ValueError("sum-power type needs degree r >= 2")
    b = np.zeros((n, n**r))
    for j_multi in itertools.combinations_with_replacement(range(1, n + 1), r - 1):
        weight = math.factorial(r - 1)
        for _, group in itertools.groupby(j_multi):
            weight //= math.factorial(len(list(group)))
        for i in range(1, n + 1):
            if i >= j_multi[0]:
                col_tuple = tuple(sorted(j_multi + (i,)))
            else:
                col_tuple = j_multi + (i,)
            col = index_join(col_tuple, n, r)
            b[i - 1, col - 1] += float(weight)
    return b


def type_inner_product(n: int, r: int = 3) -> np.ndarray:
    """Norm-scaling type: ``B·z³ = (zᵀz)·z`` (cubic form only).

    Each quadratic term ``z_j²·z_i`` sits on the single representative column
    of the sorted index triple.
    """
    n, r = int(n), int(r)
    if r != 3:
        raise ValueError("the norm-scaling type is defined for degree r = 3 only")
    b = np.zeros((n, n**3))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            col = index_join(tuple(sorted((i, j, j))), n, 3)
            b[i - 1, col - 1] = 1.0
    return b


def _require_finite_norm(m: np.ndarray, what: str) -> None:
    """Reject a matrix whose norm is not finite, without NumPy's overflow warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(m))
    if not math.isfinite(norm):
        raise ValueError(f"{what} has a non-finite norm (entries too large or not finite)")


def _check_type_shape(n: int, r: int, s: int, kind: str) -> None:
    """Reject non-positive sizes and a composed ``n^s × n^{rs}`` matrix past the entry cap.

    The exponents are bounded first (with ``n ≥ 2`` any larger one is over
    the cap), so a huge degree is rejected without raising ``n`` to it.
    """
    if n < 1 or r < 1 or s < 1:
        raise ValueError(f"need positive n, r, s; got n={n}, r={r}, s={s}")
    in_power = s if kind == "identity-power" else r * s
    if s + in_power > MAX_RESULT_ENTRIES.bit_length():
        raise SizeLimitError(f"type map degrees r={r}, s={s} are too large")
    _check_size(n**s, n**in_power)


@dataclass(frozen=True)
class TypeMap:
    """Multilinear right-hand-side map: ``s`` factor matrices over degree-``r`` input.

    ``composed`` is ``B̃``, built from the factors.  ``kind == "identity-power"``
    is the special map whose right-hand side is ``zˢ`` itself (no factor
    matrices; ``composed`` is the identity).
    """

    n: int
    r: int
    s: int
    kind: str = "explicit"
    factors: tuple[np.ndarray, ...] = field(default=(), repr=False)
    composed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, r, s = int(self.n), int(self.r), int(self.s)
        _check_type_shape(n, r, s, self.kind)
        factors = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in self.factors)
        if self.kind == "identity-power":
            if factors:
                raise ValueError("the identity-power type has no factor matrices")
            composed = np.eye(n**s)
        else:
            if len(factors) != s:
                raise ValueError(f"expected s={s} factor matrices, got {len(factors)}")
            # Overflow or inf·0 leaves inf/nan entries, which the norm check rejects.
            with np.errstate(over="ignore", invalid="ignore"):
                composed = compose_type(factors, n, r)
        _require_finite_norm(composed, "the composed type map")
        for m in factors + (composed,):
            m.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "composed", composed)

    @property
    def input_power(self) -> int:
        """Degree of the right-hand side in the base variable ``z``."""
        return self.s if self.kind == "identity-power" else self.r * self.s

    @property
    def output_dim(self) -> int:
        return self.n**self.s


def named_type(name: str, n: int, r: int, s: int = 1) -> TypeMap:
    """Build one of the named type maps ("identity-power", "H", "markov", "inner-product")."""
    if name == "identity-power":
        return TypeMap(n=n, r=r, s=s, kind="identity-power")
    builders: dict[str, Callable[[int, int], np.ndarray]] = {
        "H": type_h,
        "markov": type_markov,
        "inner-product": type_inner_product,
    }
    if name not in builders:
        raise ValueError(f"unknown type name {name!r} (expected one of {NAMED_TYPES})")
    _check_type_shape(int(n), int(r), int(s), name)
    factor = builders[name](n, r)
    return TypeMap(n=n, r=r, s=int(s), kind=name, factors=(factor,) * int(s))


# ---------------------------------------------------------------------------
# Problems and witnesses
# ---------------------------------------------------------------------------


def _int_log(value: int, base: int) -> int | None:
    if base < 2:
        return 1 if value == base else None
    power, acc = 0, 1
    while acc < value:
        acc *= base
        power += 1
    return power if acc == value else None


@dataclass(frozen=True)
class UEigenProblem:
    """A flattened hypermatrix ``A`` with a type map and a solving mode.

    ``mode == "D"`` searches for diagonal eigenvectors ``z ⊗ … ⊗ z``;
    ``mode == "U"`` for general decomposable ones.  The left-hand power ``p``
    (``A`` acts on ``z^p``) is inferred from the column count; in U mode it
    must equal the type's input degree ``r``.
    """

    a: np.ndarray = field(repr=False)
    type_map: TypeMap
    mode: str
    hypermatrix: Hypermatrix | None = field(default=None, repr=False)
    partition: IndexPartition | None = None

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        if self.mode not in ("D", "U"):
            raise ValueError(f'mode must be "D" or "U", got {self.mode!r}')
        tm = self.type_map
        if a.shape[0] != tm.output_dim:
            raise ValueError(
                f"A has {a.shape[0]} rows but the type map produces dimension {tm.output_dim}"
            )
        p = _int_log(a.shape[1], tm.n)
        if p is None or p < 1:
            raise ValueError(
                f"A has {a.shape[1]} columns, not a positive power of n={tm.n}"
            )
        if self.mode == "U":
            if tm.kind == "identity-power":
                raise ValueError(
                    "the identity-power type has no component factors; U mode is undefined for it"
                )
            if p != tm.r:
                raise ValueError(
                    f"U mode requires the left power ({p}) to equal the type degree r={tm.r}"
                )
        _require_finite_norm(a, "A")
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.type_map.n

    @property
    def lhs_power(self) -> int:
        return _int_log(self.a.shape[1], self.type_map.n)


@dataclass(frozen=True)
class EigenWitness:
    """A verified eigenpair: monic eigenvector data with its residual.

    ``xi`` is the pencil variable (``z^t`` in D mode, ``x^s`` in U mode with
    ``x = x_1 ⊗ … ⊗ x_r``); ``decomposition`` carries the monic components;
    ``case`` records the leading-index tuple that produced the witness;
    ``family`` is a tag shared by members of a verified one-parameter family.
    """

    lam: float
    xi: np.ndarray = field(repr=False)
    decomposition: MonicDecomposition
    diagonal: bool
    residual: float
    case: tuple[int, ...]
    family: str | None = None


@dataclass(frozen=True)
class IterationState:
    """Snapshot of the least-squares iteration after step ``k``."""

    k: int
    x: np.ndarray = field(repr=False)
    lam: float = 0.0
    residual: float = 0.0
    converged: bool = False


def _is_number(value, kind: type) -> bool:
    """Whether ``value`` is a number of the given ``numbers`` kind (booleans are not)."""
    return isinstance(value, kind) and not isinstance(value, (bool, np.bool_))


#: Tactic 2 scans two-vector kernel combinations up to this kernel dimension.
_MAX_PAIR_KERNEL_DIM = 8
#: The repeated component groups of a pencil vector agree to within this (max-norm).
_TIE_TOL = 1e-9
#: Witnesses whose pencil vectors ξ differ by at most this (max-norm) are one.
_DEDUP_TOL = 1e-6
#: A component moves between two witnesses when it changes by more than this.
_FAMILY_TOL = 1e-7
#: Offsets along a candidate family line at which the line is re-verified.
_FAMILY_PROBES = (0.0, 1.0, 2.5)
#: Quasi λ values sampled from [−3, 3] per case, besides 0 and 1.
_QUASI_PROBES = 7
#: Tactic 4: random starts of Gauss–Newton on the original equation per case.
_NEWTON_STARTS = 12
#: Tactic 3: random starts of the kernel-projection Gauss–Newton per λ.
_PROJ_STARTS = 6
#: Iteration cap of each Gauss–Newton run (tactics 3 and 4).
_NEWTON_MAX_ITER = 60
#: Tactic 2: mixing angles per pair of kernel vectors.
_PAIR_ANGLES = 24


@dataclass(frozen=True)
class SolveOptions:
    """What counts as an eigenpair, and how the least-squares iteration runs."""

    seed: int = 42
    residual_tol: float = 1e-9
    recon_tol: float = DEFAULT_RECON_TOL
    eps: float = 1e-5
    max_iter: int = 200

    def __post_init__(self) -> None:
        for name in ("seed", "max_iter"):
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral):
                raise ValueError(f"option {name} must be an integer")
            if value < 0:
                raise ValueError(f"option {name} must be non-negative")
        for name in ("residual_tol", "recon_tol", "eps"):
            value = getattr(self, name)
            if not _is_number(value, numbers.Real):
                raise ValueError(f"option {name} must be a real number")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise ValueError(f"option {name} must be finite")
            if value <= 0:
                raise ValueError(f"option {name} must be positive")


# ---------------------------------------------------------------------------
# Power conversion
# ---------------------------------------------------------------------------


def raise_power(a: np.ndarray | Sequence, e: int, n: int, r: int, s: int) -> np.ndarray:
    """Raise the left side to power ``s``: ``Ã = A·Ξ`` with ``Ã·xˢ = A·x``.

    The Ξ selector extracts component 1 of ``xˢ`` over factor dimensions
    ``(n^r,)*s`` anchored at ``e = μ(xˢ)``, which must be a diagonal index in
    base ``n^r`` (all split components equal).  For ``s == 1`` the raise is
    the identity.
    """
    n, r, s = int(n), int(r), int(s)
    mat = np.atleast_2d(np.asarray(a, dtype=float))
    if mat.shape[1] != n**r:
        raise ValueError(f"A has {mat.shape[1]} columns, expected n^r = {n**r}")
    if s == 1:
        return mat.copy()
    parts = index_split(e, (n**r,) * s)
    if len(set(parts)) != 1:
        raise ValueError(
            f"anchor {e} is infeasible for a power: split {parts} is not diagonal"
        )
    return _place_columns(mat, _xi_slice(e, 1, (n**r,) * s), n ** (r * s))


def lower_power_E(n: int, r: int, s: int, mu_x: int) -> np.ndarray:
    """Power-lowering selector ``E`` for monic diagonal arguments with ``μ(z) = mu_x``.

    For ``r > s``: ``E = I_{n^s} ⊗ [(δ_n^μ)ᵀ]^{⊗(r−s)}`` satisfies ``E·zʳ = zˢ``;
    for ``r < s``: ``E = I_{n^r} ⊗ [(δ_n^μ)ᵀ]^{⊗(s−r)}`` satisfies ``E·zˢ = zʳ``.
    ``r == s`` needs no lowering and is rejected.
    """
    n, r, s = int(n), int(r), int(s)
    cols = _lowering_columns(n, r, s, mu_x)
    return _place_columns(np.eye(n ** min(r, s)), cols, n ** max(r, s))


def _lowering_columns(n: int, r: int, s: int, mu_x: int) -> slice:
    """The columns that the lowering map ``E`` of :func:`lower_power_E` selects."""
    if r == s:
        raise ValueError("powers already match; no lowering map is needed")
    if not 1 <= mu_x <= n:
        raise ValueError(f"leading index {mu_x} out of range [1, {n}]")
    low, k = min(r, s), abs(r - s)
    # (δ_n^μ)^{⊗k} = δ_{n^k}^{d} with d the diagonal index of (μ, …, μ).
    return _xi_slice(diagonal_index(mu_x, n, k), 1, (n**low, n**k))


def _place_columns(mat: np.ndarray, cols: slice, width: int) -> np.ndarray:
    """``mat·Ξ`` for a selector Ξ that reads ``cols``: ``mat`` written into those columns of zeros."""
    out = np.zeros((mat.shape[0], width))
    out[:, cols] = mat
    return out


def build_d_pencil(
    a: np.ndarray | Sequence,
    b: np.ndarray | Sequence,
    n: int,
    r: int,
    s: int,
    mu_x: int,
) -> Pencil:
    """Homogenized pencil for the diagonal equation ``A·zʳ = λ·B·zˢ``.

    Both sides are brought to the variable ``ξ = z^max(r,s)``: the lower-power
    side is composed with the anchored lowering map, giving ``(A·E − λB)`` for
    ``r < s`` and ``(A − λB·E)`` for ``r > s``; equal powers need no map.
    """
    n, r, s = int(n), int(r), int(s)
    am = np.atleast_2d(np.asarray(a, dtype=float))
    bm = np.atleast_2d(np.asarray(b, dtype=float))
    if am.shape[1] != n**r:
        raise ValueError(f"A has {am.shape[1]} columns, expected n^r = {n**r}")
    if bm.shape[1] != n**s:
        raise ValueError(f"B has {bm.shape[1]} columns, expected n^s = {n**s}")
    if am.shape[0] != bm.shape[0]:
        raise ValueError(
            f"A and B have different output dimensions {am.shape[0]} != {bm.shape[0]}"
        )
    if r == s:
        return Pencil(am, bm)
    cols, width = _lowering_columns(n, r, s, mu_x), n ** max(r, s)
    if r < s:
        return Pencil(_place_columns(am, cols, width), bm)
    return Pencil(am, _place_columns(bm, cols, width))


# ---------------------------------------------------------------------------
# Shared solver machinery
# ---------------------------------------------------------------------------


def _lambda_candidates(essential: Sequence[float], opts: SolveOptions) -> list[float]:
    """Essential eigenvalues plus a deterministic sample of quasi values (incl. 0 and 1)."""
    cands = list(essential)
    rng = np.random.default_rng(opts.seed + 17)
    cands.extend(float(v) for v in rng.uniform(-3.0, 3.0, size=_QUASI_PROBES))
    cands.extend([0.0, 1.0])
    out: list[float] = []
    for lam in cands:
        if not any(abs(lam - prev) <= 1e-9 * max(1.0, abs(prev)) for prev in out):
            out.append(lam)
    return out


def _gauss_newton(
    fun: Callable[[np.ndarray, np.ndarray], np.ndarray],
    starts: np.ndarray,
    max_iter: int,
) -> np.ndarray:
    """Damped Gauss–Newton from every row of ``starts`` at once; returns the end points.

    ``fun(points, owners)`` maps a ``(k × m)`` stack of points, with the
    index of the start each point belongs to (ascending), to the ``(k × F)``
    stack of their residuals, each row computed exactly as it would be
    alone.  Every
    row keeps its own central-difference Jacobian, least-squares step,
    line search (the first of the step scales 1, 1/2, …, 2⁻²⁴ that lowers the
    residual norm) and stopping rule, so each end point is the one a run
    from that start alone reaches, bit for bit.  Per iteration the rows
    still running share one ``fun`` call for their Jacobians, one stacked
    LAPACK ``gelsd`` call for their steps (:func:`pencil_eigen._lstsq`,
    which gives each row the bits ``np.linalg.lstsq`` gives it alone), and
    two ``fun`` calls for their line searches: the full step, then the 24
    shorter ones together for the rows whose full step failed.
    """
    scales = 0.5 ** np.arange(25)
    x = np.array(starts, dtype=float)
    m = x.shape[1]
    f = fun(x, np.arange(len(x)))
    fnorm = _norms(f)
    live = np.arange(len(x))
    cols = np.arange(m)
    for _ in range(max_iter):
        live = live[~(fnorm[live] < 1e-14)]
        if not live.size:
            break
        h = 1e-7 * np.maximum(1.0, np.abs(x[live]))
        probes = np.repeat(x[live, None, :], 2 * m, axis=1)
        probes[:, cols, cols] += h
        probes[:, m + cols, cols] -= h
        sides = fun(probes.reshape(-1, m), np.repeat(live, 2 * m))
        sides = sides.reshape(live.size, 2, m, -1)
        jac_t = (sides[:, 0] - sides[:, 1]) / (2 * h)[:, :, None]
        steps = _lstsq(jac_t.transpose(0, 2, 1), -f[live])
        finite = np.all(np.isfinite(steps), axis=1)
        live, steps = live[finite], steps[finite]
        scale = np.zeros(live.size)  # the accepted step scale; 0 while none is found
        for trials in (scales[:1], scales[1:]):
            todo = np.flatnonzero(scale == 0.0)
            if not todo.size:
                break
            rows = live[todo]
            points = x[rows, None, :] + trials[:, None] * steps[todo, None, :]
            values = fun(points.reshape(-1, m), np.repeat(rows, trials.size))
            values = values.reshape(todo.size, trials.size, -1)
            norms = _norms(values)
            lower = norms < fnorm[rows, None]
            hit = np.flatnonzero(lower.any(axis=1))
            first = lower[hit].argmax(axis=1)
            x[rows[hit]] = points[hit, first]
            f[rows[hit]] = values[hit, first]
            fnorm[rows[hit]] = norms[hit, first]
            scale[todo[hit]] = trials[first]
        short = _norms(steps) * scale < 1e-15 * np.maximum(1.0, _norms(x[live]))
        live = live[(scale > 0.0) & ~short]
    return x


@dataclass(frozen=True)
class _Equation:
    """One anchor case: its pencil and the original equation ``A·x^lhs = λ·B̃·x^rhs``.

    ``x`` is the case's tuple of monic components, ``(z,)`` in D mode and
    ``(x_1, …, x_r)`` in U mode, and ``x^k`` is the Kronecker product of the
    tuple repeated ``k`` times (:func:`_power`).  The pencil variable is
    ``ξ = x^xi``, and a witness reports the components of ``x^reported``.
    D mode is ``(lhs, rhs, xi, reported) = (p, q, t, t)`` with
    ``t = max(p, q)``: a D-eigenvector is a U-eigenvector whose components are
    tied.  U mode is ``(1, s, s, 1)``.
    """

    case: tuple[int, ...]
    pencil: Pencil
    a: np.ndarray
    bt: np.ndarray
    lhs: int
    rhs: int
    xi: int
    reported: int
    n: int
    scale: float


def _power(comps: Sequence[np.ndarray], k: int) -> np.ndarray:
    """``x^k``: the Kronecker product of the component tuple repeated ``k`` times.

    Each component is a vector, or a stack of vectors (one point per row);
    a stack gives the powers of its rows, each equal to its own power bit
    for bit.
    """
    x = functools.reduce(_outer, comps)
    return functools.reduce(_outer, [x] * k)


def _matvecs(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m @ x`` for a vector or for each row of a stack, bit for bit as one vector.

    A stacked matrix-vector product runs one matrix-vector kernel per row;
    ``x @ m.T`` would run one matrix-matrix kernel, whose sums round
    differently.
    """
    return (m @ x[..., None])[..., 0]


def _sides(eq: _Equation, comps: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the case equation at ``x = comps``: ``A·x^lhs`` and ``B̃·x^rhs``."""
    return _matvecs(eq.a, _power(comps, eq.lhs)), _matvecs(eq.bt, _power(comps, eq.rhs))


def _components_of(eq: _Equation, rows: np.ndarray, recon_tol: float) -> tuple[np.ndarray, list]:
    """Split pencil vectors ``ξ = x^xi``, one per row, into the case's components.

    A row splits when it decomposes over ``xi`` repeats of ``|case|`` factors
    of dimension ``n``, the repeats agree to ``_TIE_TOL`` and the leading
    indices are the case.  Returns those rows' indices and components.
    """
    width = len(eq.case)
    kept, _, _, comps = _decompose_rows(rows, (eq.n,) * (width * eq.xi), recon_tol)
    ok = np.ones(len(kept), dtype=bool)
    for j, c in enumerate(comps):
        ok &= ~(np.max(np.abs(c - comps[j % width]), axis=1) > _TIE_TOL)
    for c, anchor in zip(comps, eq.case):
        ok &= _leading(c) == anchor
    return kept[ok], [c[ok] for c in comps[:width]]


def _case_equation(prob: UEigenProblem, case: tuple[int, ...]) -> _Equation:
    """The equation and pencil of one anchor case, built for the problem's mode.

    D mode, ``case = (e₀,)``: the pencil is homogenized by the anchored
    lowering map.  U mode, ``case = (e_1, …, e_r)``: ``A`` is raised to power
    ``s``.  The powers are those of :class:`_Equation`.
    """
    tm = prob.type_map
    n, a, bt = prob.n, prob.a, tm.composed
    if prob.mode == "D":
        p, q = prob.lhs_power, tm.input_power
        t = max(p, q)
        pencil = build_d_pencil(a, bt, n, p, q, case[0])
        powers = (p, q, t, t)
    else:
        r, s = tm.r, tm.s
        anchor = diagonal_index(index_join(case, n, r), n**r, s)
        pencil = Pencil(raise_power(a, anchor, n, r, s), bt)
        powers = (1, s, s, 1)
    scale = max(1.0, float(np.linalg.norm(a)) + float(np.linalg.norm(bt)))
    return _Equation(case, pencil, a, bt, *powers, n=n, scale=scale)


def _verify_rows(
    eq: _Equation,
    comps: Sequence[np.ndarray],
    lams: Sequence[float | None],
    opts: SolveOptions,
) -> list[EigenWitness | None]:
    """Check candidates, one per row, against the case; None where one is rejected.

    ``comps`` holds one ``(rows × n)`` stack per component of ``x``, and
    ``lams`` a λ per row (None: fit λ by least squares).  A row passes when
    its components are finite, at most 1e8 in size and monic with the case's
    leading indices, and its original-equation residual is at most
    ``opts.residual_tol·scale``.  Every verdict and witness is the one of
    its row checked alone, bit for bit.
    """
    x = np.concatenate([np.asarray(c, dtype=float) for c in comps], axis=1) + 0.0  # clears -0.0
    # The entries that the case fixes: each component's leading 1 and the zeros before it.
    fixed = [j * eq.n + i for j, anchor in enumerate(eq.case) for i in range(anchor)]
    target = [float(i == anchor - 1) for anchor in eq.case for i in range(anchor)]
    ok = np.all(np.isfinite(x), axis=1) & ~(np.max(np.abs(x), axis=1) > 1e8)
    ok &= np.all(np.abs(x[:, fixed] - np.array(target)) <= 1e-8, axis=1)
    out: list[EigenWitness | None] = [None] * len(lams)
    rows = np.flatnonzero(ok)
    if not rows.size:
        return out
    x = x[rows]
    comps = [x[:, j * eq.n : (j + 1) * eq.n] for j in range(len(eq.case))]
    atol = opts.residual_tol * eq.scale
    lhs, rhs = _sides(eq, comps)
    lhs_norm, rhs_norm = _norms(lhs), _norms(rhs)
    # Both sides vanish: any λ works.  Keep a requested λ, else report at 0.
    vanish = (lhs_norm <= atol) & (rhs_norm <= atol)
    # A nonzero lhs with a zero rhs: no λ satisfies the equation.
    keep = vanish | ~(rhs_norm <= atol)
    given = [lams[r] for r in rows]
    lam_final = np.array([0.0 if lam is None else float(lam) for lam in given])
    fit = keep & ~vanish & np.array([lam is None for lam in given])
    if fit.any():
        lam_final[fit] = _dots(rhs[fit], lhs[fit]) / _dots(rhs[fit], rhs[fit])
    residual = _norms(lhs - lam_final[:, None] * rhs)
    for i in np.flatnonzero(keep & ~(residual > atol)):
        point = tuple(c[i] for c in comps)
        reported = point * eq.reported
        decomp = MonicDecomposition(
            e=index_join(eq.case * eq.reported, eq.n, len(reported)), c0=1.0, components=reported
        )
        out[rows[i]] = EigenWitness(
            lam=float(lam_final[i]),
            xi=_power(point, eq.xi),
            decomposition=decomp,
            diagonal=is_diagonal(decomp),
            residual=float(residual[i]),
            case=eq.case,
        )
    return out


def _pair_combinations(kmat: np.ndarray) -> np.ndarray:
    """Tactic 2's candidates: kernel column pairs ``i < j`` mixed as ``cos θ·k_i + sin θ·k_j``.

    ``θ`` runs over ``_PAIR_ANGLES`` angles in ``[0, π)``; the rows are in
    (pair, angle) order.
    """
    thetas = np.linspace(0.0, np.pi, _PAIR_ANGLES, endpoint=False)
    cos = np.array([math.cos(t) for t in thetas])[:, None]
    sin = np.array([math.sin(t) for t in thetas])[:, None]
    first, second = np.array(list(itertools.combinations(range(kmat.shape[1]), 2))).T
    cols = kmat.T
    combos = cos * cols[first][:, None] + sin * cols[second][:, None]
    return combos.reshape(-1, kmat.shape[0])


def _search_case(
    eq: _Equation, essential: Sequence[float], opts: SolveOptions
) -> list[EigenWitness]:
    """All kernel-search tactics for one anchor case of one problem.

    The tactics evaluate their candidates in batches: tactics 1 and 2 one
    split (:func:`_components_of`) per kernel, of its basis vectors and their
    combinations, tactic 3 one Gauss–Newton batch over the starts of every
    kernel, tactic 4 one over its own starts (:func:`_gauss_newton`), and
    the survivors are verified as batches (:func:`_verify_rows`).  The random
    starts, every candidate and the order of the witnesses are those of a
    candidate-at-a-time search, bit for bit.
    """
    n, case = eq.n, eq.case
    found: list[EigenWitness] = []

    def add(verdicts: Sequence[EigenWitness | None]) -> None:
        found.extend(w for w in verdicts if w is not None)

    free_sizes = [n - anchor for anchor in case]
    total_free = sum(free_sizes)

    def unpack(u: np.ndarray) -> list[np.ndarray]:
        """Monic components, one stack per anchor, from rows of free entries."""
        comps, pos = [], 0
        for anchor, size in zip(case, free_sizes):
            comp = np.zeros((len(u), n))
            comp[:, anchor - 1] = 1.0
            comp[:, anchor:] = u[:, pos : pos + size]
            comps.append(comp)
            pos += size
        return comps

    rng = np.random.default_rng(opts.seed + 1009 * (index_join(case, n, len(case)) + 1))
    kernels = []
    for lam in _lambda_candidates(essential, opts):
        basis = kernel_basis(eq.pencil, lam)
        if basis:
            kernels.append((lam, np.column_stack(basis)))

    # Tactic 3: Gauss–Newton on the kernel-projection residual, from
    # _PROJ_STARTS starts per kernel, every kernel's starts in one batch.
    if total_free and kernels:
        kernel_of = np.repeat(np.arange(len(kernels)), _PROJ_STARTS)

        def proj_resid(u: np.ndarray, owners: np.ndarray) -> np.ndarray:
            xi = _power(unpack(u), eq.xi)
            out = np.empty_like(xi)
            # The owners ascend, so the rows of each kernel form one slice.
            bounds = np.searchsorted(kernel_of[owners], np.arange(len(kernels) + 1))
            for (_, kmat), lo, hi in zip(kernels, bounds[:-1], bounds[1:]):
                if lo < hi:
                    out[lo:hi] = xi[lo:hi] - _matvecs(kmat, _matvecs(kmat.T, xi[lo:hi]))
            return out

        starts = rng.standard_normal((len(kernel_of), total_free))
        ends = unpack(_gauss_newton(proj_resid, starts, _NEWTON_MAX_ITER))
        projected = _verify_rows(eq, ends, [kernels[k][0] for k in kernel_of], opts)

    for k, (lam, kmat) in enumerate(kernels):
        # Tactic 1: kernel basis vectors; tactic 2: their two-vector
        # combinations.  Both through the decomposition certificate.
        candidates = [kmat.T]
        if 2 <= kmat.shape[1] <= _MAX_PAIR_KERNEL_DIM:
            candidates.append(_pair_combinations(kmat))
        rows, comps = _components_of(eq, np.vstack(candidates), opts.recon_tol)
        add(_verify_rows(eq, comps, [lam] * rows.size, opts))
        if total_free:
            add(projected[k * _PROJ_STARTS : (k + 1) * _PROJ_STARTS])

    # Tactic 4: Gauss–Newton on the original equation with λ free.
    def orig_resid(w: np.ndarray, owners: np.ndarray) -> np.ndarray:
        lhs, rhs = _sides(eq, unpack(w[:, :-1]))
        return lhs - w[:, -1:] * rhs

    starts = rng.standard_normal((_NEWTON_STARTS, total_free + 1))
    ends = np.repeat(_gauss_newton(orig_resid, starts, _NEWTON_MAX_ITER), 2, axis=0)
    # Each end point at its Newton λ, then with λ re-fitted by least squares
    # in case the Newton λ drifted.
    lams = [float(w[-1]) if row % 2 == 0 else None for row, w in enumerate(ends)]
    add(_verify_rows(eq, unpack(ends[:, :-1]), lams, opts))
    return found


def _sorted_witnesses(witnesses: list[EigenWitness]) -> list[EigenWitness]:
    return sorted(
        witnesses,
        key=lambda w: (w.case, w.lam, tuple(np.round(w.xi, 12))),
    )


def _merge_lambda_lines(
    witnesses: list[EigenWitness],
    reverify: Callable[[tuple[int, ...], Sequence[np.ndarray], float], EigenWitness | None],
) -> list[EigenWitness]:
    """Collapse witnesses that recur with one ξ at several λ into a single tagged row.

    If the same eigenvector verifies at two λ values farther apart than the
    residual tolerance allows for a nonzero right-hand side, both sides must
    vanish, so the vector is a witness for *every* λ.  The merge is certified
    by re-verifying at λ = 0 and λ = 1 before replacing the cluster.
    """
    clusters: list[list[EigenWitness]] = []
    for w in witnesses:
        for cluster in clusters:
            head = cluster[0]
            if (
                w.case == head.case
                and w.xi.shape == head.xi.shape
                and float(np.max(np.abs(w.xi - head.xi))) <= _DEDUP_TOL
            ):
                cluster.append(w)
                break
        else:
            clusters.append([w])

    out: list[EigenWitness] = []
    for cluster in clusters:
        lams = sorted({round(w.lam, 9) for w in cluster})
        merged = None
        if len(lams) >= 2:
            comps = cluster[0].decomposition.components
            at_zero = reverify(cluster[0].case, comps, 0.0)
            at_one = reverify(cluster[0].case, comps, 1.0)
            if at_zero is not None and at_one is not None:
                tag = (
                    f"case={cluster[0].case}: valid for every lambda "
                    "(both sides vanish)"
                )
                merged = replace(at_zero, family=tag)
        if merged is not None:
            out.append(merged)
        else:
            out.extend(cluster)
    return out


def _tag_families(
    witnesses: list[EigenWitness],
    reverify: Callable[[tuple[int, ...], Sequence[np.ndarray], float], EigenWitness | None],
) -> list[EigenWitness]:
    """Detect one-parameter witness families and certify them at probe values.

    Two witnesses of the same case and λ whose decompositions differ in
    exactly one component define a candidate line; it is probed at
    ``_FAMILY_PROBES`` (offsets along the normalized direction from the
    canonical base point) and tagged when at least three probes verify.
    Probe witnesses are added to the result set.
    """
    by_group: dict[tuple, list[int]] = {}
    for idx, w in enumerate(witnesses):
        by_group.setdefault((w.case, round(w.lam, 9)), []).append(idx)

    tags: dict[int, str] = {}
    extra: list[EigenWitness] = []
    for (case, lam), idxs in by_group.items():
        if len(idxs) < 2:
            continue
        for i_a, i_b in itertools.combinations(idxs, 2):
            wa, wb = witnesses[i_a], witnesses[i_b]
            diffs = [
                float(np.max(np.abs(ca - cb)))
                for ca, cb in zip(wa.decomposition.components, wb.decomposition.components)
            ]
            moving = [j for j, d in enumerate(diffs) if d > _FAMILY_TOL]
            if len(moving) != 1:
                continue
            j = moving[0]
            direction = (
                wb.decomposition.components[j] - wa.decomposition.components[j]
            )
            pivot = int(np.argmax(np.abs(direction)))
            direction = direction / direction[pivot]
            base = (
                wa.decomposition.components[j]
                - wa.decomposition.components[j][pivot] * direction
            )
            probes_ok: list[EigenWitness] = []
            for theta in _FAMILY_PROBES:
                comps = list(wa.decomposition.components)
                comps[j] = base + theta * direction
                probe = reverify(case, comps, lam)
                if probe is not None:
                    probes_ok.append(probe)
            if len(probes_ok) >= 3:
                tag = (
                    f"case={case} lambda={lam:.6g}: component {j + 1} free along "
                    f"direction {np.array2string(direction, precision=4)}"
                )
                tags[i_a] = tag
                tags[i_b] = tag
                extra.extend(replace(p, family=tag) for p in probes_ok)
    tagged = [
        replace(w, family=tags[i]) if i in tags else w for i, w in enumerate(witnesses)
    ]
    return _dedup(tagged + extra)


def _dedup(witnesses: list[EigenWitness]) -> list[EigenWitness]:
    """Deduplicate, preferring tagged (family) records, then lower residuals."""
    kept: list[EigenWitness] = []
    for w in sorted(witnesses, key=lambda w: (w.family is None, w.residual)):
        duplicate = False
        for prev in kept:
            if (
                w.case == prev.case
                and abs(w.lam - prev.lam) <= _DEDUP_TOL * max(1.0, abs(prev.lam))
                and w.xi.shape == prev.xi.shape
                and float(np.max(np.abs(w.xi - prev.xi))) <= _DEDUP_TOL
            ):
                duplicate = True
                break
        if not duplicate:
            kept.append(w)
    return kept


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseFacts:
    """One anchor case's pencil with its generic rank and real essential eigenvalues."""

    case: tuple[int, ...]
    pencil: Pencil = field(repr=False)
    generic_rank: int
    essential: tuple[float, ...]


@dataclass(frozen=True)
class SolveResult:
    """What :func:`solve` found: per-case pencil facts (in case order) and witnesses."""

    cases: tuple[CaseFacts, ...]
    witnesses: list[EigenWitness]


def _cases(prob: UEigenProblem) -> list[tuple[int, ...]]:
    """Anchor cases: leading index ``(e₀,)`` in D mode, ``(e_1, …, e_r)`` in U mode."""
    width = 1 if prob.mode == "D" else prob.type_map.r
    return list(itertools.product(range(1, prob.n + 1), repeat=width))


def solve(prob: UEigenProblem, opts: SolveOptions | None = None) -> SolveResult:
    """Monic eigenpairs of the problem in its mode, with each case's pencil facts.

    Every anchor case's pencil is searched at its essential eigenvalues and
    at sampled quasi values; the kernel tactics and a free-λ Gauss–Newton
    refinement produce candidates, each verified against the original
    equation at ``opts.residual_tol``.  Verified witnesses are deduplicated,
    λ-free vectors are merged into one row, and one-parameter families are
    probed and tagged.  An empty witness list is a valid outcome.
    """
    opts = opts or SolveOptions()
    equations: dict[tuple[int, ...], _Equation] = {}
    facts: list[CaseFacts] = []
    witnesses: list[EigenWitness] = []
    for case in _cases(prob):
        eq = equations[case] = _case_equation(prob, case)
        rg = generic_rank(eq.pencil, seed=opts.seed)
        essential = essential_eigenvalues_real(eq.pencil, seed=opts.seed, rg=rg)
        facts.append(CaseFacts(case, eq.pencil, rg, tuple(essential)))
        witnesses.extend(_search_case(eq, essential, opts))

    def reverify(case, comps, lam):
        rows = [np.asarray(c, dtype=float)[None] for c in comps[: len(case)]]
        return _verify_rows(equations[case], rows, [lam], opts)[0]

    witnesses = _dedup(witnesses)
    witnesses = _merge_lambda_lines(witnesses, reverify)
    witnesses = _tag_families(witnesses, reverify)
    return SolveResult(tuple(facts), _sorted_witnesses(witnesses))


def d_solve(prob: UEigenProblem, opts: SolveOptions | None = None) -> list[EigenWitness]:
    """Diagonal witnesses ``x = z ⊗ … ⊗ z``: :func:`solve` in D mode, one case per ``μ(z)``."""
    return solve(replace(prob, mode="D"), opts).witnesses


def u_solve(prob: UEigenProblem, opts: SolveOptions | None = None) -> list[EigenWitness]:
    """Decomposable witnesses ``x_1 ⊗ … ⊗ x_r``: :func:`solve` in U mode.

    One case per tuple of component leading indices.
    """
    return solve(replace(prob, mode="U"), opts).witnesses


def case_pencil(prob: UEigenProblem, case: Sequence[int]) -> Pencil:
    """The homogenized pencil a solver searches for the given anchor case.

    D mode takes a one-element case ``(e₀,)``; U mode a full component tuple.
    """
    case = tuple(int(c) for c in case)
    if case not in _cases(prob):
        raise ValueError(f"{case} is not an anchor case of this {prob.mode}-mode problem")
    return _case_equation(prob, case).pencil


# ---------------------------------------------------------------------------
# Least-squares iteration
# ---------------------------------------------------------------------------


def _consistency_rows(anchor: int, n: int, t: int) -> np.ndarray:
    """Diagonal-consistency rows ``Ξ_1 − Ξ_i``, ``i = 2…t``, written into their Ξ slices.

    ``Ξ_i = xi_matrix(anchor, i, (n,)*t)``; the anchor column is in every slice and gets 0.
    """
    dims = (n,) * t
    rows = np.zeros((t - 1, n, n**t))
    for i, block in enumerate(rows, start=2):
        block[:, _xi_slice(anchor, 1, dims)] = np.eye(n)
        block[:, _xi_slice(anchor, i, dims)] -= np.eye(n)
    return rows.reshape(-1, n**t)


def iterate_least_squares(
    prob: UEigenProblem,
    x0: np.ndarray | Sequence,
    eps: float = 1e-5,
    max_iter: int = 200,
    history: list[IterationState] | None = None,
) -> IterationState:
    """Alternating least-squares iteration toward a diagonal eigenpair.

    Per step at the unit vector ``z``: (a) the closed-form least-squares
    eigenvalue ``λ = ⟨B̃ξ_q, Aξ_p⟩ / ⟨B̃ξ_q, B̃ξ_q⟩``; (b) orthogonal projection
    of ``ξ = z^t`` onto the kernel of the pencil at λ intersected with the
    diagonal-consistency rows (pairwise differences of the Ξ extractions);
    (c) the next ``z`` as the normalized, sign-aligned first Ξ extraction of
    the projection (the consistency rows make all ``t`` extractions equal);
    (d) stop when ``‖z_{k+1} − z_k‖ < eps``.

    Each step's state (step index, current ``z``, λ, original-equation
    residual) is appended to ``history`` when a list is supplied; the final
    state is returned with ``converged`` set accordingly.  A vanishing
    ``B̃ξ_q`` (λ undefined) or a collapsing diagonal-consistent kernel (at
    once, at a generic λ, on a pencil that is not wide) raises
    :class:`IterationBreakdown`.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    n = prob.n
    p, q = prob.lhs_power, prob.type_map.input_power
    t = max(p, q)
    z = np.asarray(x0, dtype=float).ravel()
    if z.size != n:
        raise ValueError(f"start vector has length {z.size}, expected n = {n}")
    _require_finite_norm(z, "the start vector")
    norm0 = float(np.linalg.norm(z))
    if norm0 == 0.0:
        raise ValueError("start vector must be nonzero")
    z = z / norm0

    prev: np.ndarray | None = None
    state = IterationState(k=0, x=z, lam=0.0, residual=0.0)
    for k in range(max_iter + 1):
        e0 = mu(z)
        pencil = build_d_pencil(prob.a, prob.type_map.composed, n, p, q, e0)
        xi = stp_power(z, t)
        a_xi = pencil.a @ xi
        b_xi = pencil.b @ xi
        denom = float(b_xi @ b_xi)
        if denom <= np.finfo(float).tiny:
            raise IterationBreakdown(
                f"type map annihilates the current iterate at step {k}; "
                "the least-squares eigenvalue is undefined"
            )
        lam = float((b_xi @ a_xi) / denom)
        residual = float(np.linalg.norm(a_xi - lam * b_xi))
        converged = prev is not None and float(np.linalg.norm(z - prev)) < eps
        state = IterationState(k=k, x=z.copy(), lam=lam, residual=residual, converged=converged)
        if history is not None:
            history.append(state)
        if converged or k == max_iter:
            return state

        anchor = diagonal_index(e0, n, t)
        kmat = _kernel_rows(np.vstack([pencil.at(lam), _consistency_rows(anchor, n, t)])).T
        if kmat.shape[1] == 0:
            m, cols = pencil.a.shape
            why = f"the iteration needs a wide pencil, not a {m}x{cols} one: " if m >= cols else ""
            raise IterationBreakdown(
                f"{why}diagonal-consistent kernel is trivial at step {k} (lambda={lam:.6g})"
            )
        # The consistency rows make every extracted part equal: read slot 1.
        v = extract_component(kmat @ (kmat.T @ xi), anchor, 1, (n,) * t)
        nv = float(np.linalg.norm(v))
        if nv <= np.finfo(float).tiny:
            raise IterationBreakdown(
                f"the extracted component vanished at step {k} (lambda={lam:.6g})"
            )
        v = v / nv
        prev, z = z, (v if float(v @ z) >= 0.0 else -v)
    return state


# ---------------------------------------------------------------------------
# Problem file dictionaries
# ---------------------------------------------------------------------------


def _type_map_from_dict(td: dict) -> TypeMap:
    if not isinstance(td, dict):
        raise ValueError("problem type must be an object")
    if "named" in td:
        name = str(td["named"])
        try:
            n, r, s = _whole(td["n"]), _whole(td["r"]), _whole(td.get("s", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"named type needs integer n, r and s: {exc}") from exc
        return named_type(name, n, r, s)
    if "explicit" in td:
        if not isinstance(td["explicit"], list):
            raise ValueError("explicit type must be a list of factor matrices")
        factors = [np.atleast_2d(_reals(b, "explicit type factors")) for b in td["explicit"]]
        if not factors:
            raise ValueError("explicit type needs at least one factor matrix")
        try:
            n = _whole(td.get("n", factors[0].shape[0]))
            r = None if td.get("r") is None else _whole(td["r"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"explicit type needs integer n and r: {exc}") from exc
        if r is None:
            r = _int_log(factors[0].shape[1], n)
            if r is None:
                raise ValueError(
                    f"cannot infer degree r from factor shape {factors[0].shape}"
                )
        return TypeMap(n=n, r=r, s=len(factors), factors=tuple(factors))
    raise ValueError('problem type must carry either "named" or "explicit"')


def _type_map_to_dict(tm: TypeMap) -> dict:
    if tm.kind == "explicit":
        return {
            "explicit": [b.tolist() for b in tm.factors],
            "n": tm.n,
            "r": tm.r,
        }
    return {"named": tm.kind, "n": tm.n, "r": tm.r, "s": tm.s}


def problem_from_dict(d: dict) -> UEigenProblem:
    """Build a problem from its file dictionary (hypermatrix, partition, type, mode)."""
    from .hypermatrix import flatten, hmx_from_dict

    if not isinstance(d, dict):
        raise ValueError("problem file must hold an object")
    for key in ("hypermatrix", "partition", "type", "mode"):
        if key not in d:
            raise ValueError(f"problem file is missing {key!r}")
    h = hmx_from_dict(d["hypermatrix"])
    part_d = d["partition"]
    try:
        partition = IndexPartition(
            rows=tuple(_whole(i) for i in part_d["rows"]),
            cols=tuple(_whole(i) for i in part_d["cols"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed partition: {exc}") from exc
    a = flatten(h, partition)
    tm = _type_map_from_dict(d["type"])
    mode = str(d["mode"])
    return UEigenProblem(
        a=a, type_map=tm, mode=mode, hypermatrix=h, partition=partition
    )


def problem_to_dict(prob: UEigenProblem) -> dict:
    """Serialize a problem built from a hypermatrix back to its file dictionary."""
    from .hypermatrix import hmx_to_dict

    if prob.hypermatrix is None or prob.partition is None:
        raise ValueError("problem was not built from a hypermatrix file")
    return {
        "hypermatrix": hmx_to_dict(prob.hypermatrix),
        "partition": {
            "rows": list(prob.partition.rows),
            "cols": list(prob.partition.cols),
        },
        "type": _type_map_to_dict(prob.type_map),
        "mode": prob.mode,
    }


def options_from_dict(d: dict | None, **overrides) -> SolveOptions:
    """Merge a problem file's ``options`` object with explicit overrides."""
    if d is not None and not isinstance(d, dict):
        raise ValueError("problem options must be an object")
    merged: dict = {}
    if d:
        known = set(SolveOptions.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown options: {sorted(unknown)}")
        merged.update(d)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return SolveOptions(**merged)
