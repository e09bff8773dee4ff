"""Eigenvalue/eigenvector drivers for equilateral hypermatrices.

The eigenproblem ``A·x = λ·𝓑(x)`` pairs a flattened hypermatrix ``A`` with a
multilinear *type map* 𝓑 given by factor matrices ``B_j`` (each ``n × n^r``),
whose composition ``B̃`` satisfies ``B̃·xˢ = (B_1 x) ⊗ … ⊗ (B_s x)``.  Raising
(anchored Ξ selection) and lowering (index-selection ``E`` maps, valid on
diagonal monic arguments) convert both sides to a common power of the
unknown, turning the problem into a linear pencil in ``ξ``.

One driver, :func:`solve`, enumerates the anchor cases of the problem's
mode once, builds each case's original equation and pencil, records the
pencil's generic rank and real essential eigenvalues, and searches the
pencil kernels for structured eigenvectors:

* D mode — diagonal witnesses ``x = z ⊗ … ⊗ z`` (one anchor case per
  leading index of ``z``);
* U mode — decomposable witnesses ``x = x_1 ⊗ … ⊗ x_r`` (one case per tuple
  of component leading indices).

It returns the per-case pencil facts and the witnesses.  :func:`d_solve`,
:func:`u_solve` (witnesses only, in a fixed mode) and :func:`case_pencil`
(one case's pencil) are thin entry points into the same code.

The kernel search is deliberately not exhaustive (decomposable points of a
subspace form a polynomial variety): it tests kernel basis vectors, scans
two-vector combinations with a rank-1 reshape criterion, refines with damped
Gauss–Newton projection, and additionally runs multi-start Gauss–Newton on
the original equation with λ free.  Every candidate is verified against the
*original* equation before being reported, and witnesses are returned monic.

A witness that annihilates both sides satisfies the equation for every λ and
is reported once, with λ canonicalized to 0.

:func:`iterate_least_squares` implements the alternating least-squares
iteration: a closed-form λ update, projection of the current diagonal power
onto the diagonal-consistent kernel, and component extraction/averaging.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from collections.abc import Callable, Sequence

import numpy as np

from .hypermatrix import Hypermatrix, IndexPartition
from .hypervector import (
    MonicDecomposition,
    compose,
    diagonal_index,
    index_join,
    index_split,
    is_diagonal,
    monic_decompose,
    mu,
    xi_matrix,
)
from .pencil_eigen import (
    Pencil,
    essential_eigenvalues_real,
    generic_rank,
    kernel_basis,
    svd_rank,
)
from .stp_core import basis_vector, stp, stp_power

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

    ``B̃ = B_1 ⋉ (I_{n^r} ⊗ B_2) ⋉ … ⋉ (I_{n^{(s−1)r}} ⊗ B_s)``, of shape
    ``n^s × n^{rs}``.
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
    out = mats[0]
    for j, b in enumerate(mats[1:], start=1):
        out = stp(out, np.kron(np.eye(n ** (j * r)), b))
    return out


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


@dataclass(frozen=True)
class TypeMap:
    """Multilinear right-hand-side map: ``s`` factor matrices over degree-``r`` input.

    ``kind == "identity-power"`` is the special map whose right-hand side is
    ``zˢ`` itself (no factor matrices; ``composed`` is the identity).
    """

    n: int
    r: int
    s: int
    kind: str = "explicit"
    factors: tuple[np.ndarray, ...] = field(default=(), repr=False)
    composed: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n, r, s = int(self.n), int(self.r), int(self.s)
        if n < 1 or r < 1 or s < 1:
            raise ValueError(f"need positive n, r, s; got n={n}, r={r}, s={s}")
        factors = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in self.factors)
        if self.kind == "identity-power":
            if factors:
                raise ValueError("the identity-power type has no factor matrices")
            composed = np.eye(n**s)
        else:
            if len(factors) != s:
                raise ValueError(f"expected s={s} factor matrices, got {len(factors)}")
            composed = (
                np.atleast_2d(np.asarray(self.composed, dtype=float))
                if self.composed is not None
                else compose_type(factors, n, r)
            )
            if composed.shape != (n**s, n ** (r * s)):
                raise ValueError(
                    f"composed map has shape {composed.shape}, expected {(n**s, n**(r*s))}"
                )
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


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances, probe counts, and iteration limits shared by the solvers."""

    seed: int = 42
    rank_tol: float | None = None
    residual_tol: float = 1e-9
    recon_tol: float = 1e-8
    quasi_probes: int = 7
    newton_starts: int = 12
    proj_starts: int = 6
    newton_max_iter: int = 60
    pair_angles: int = 24
    max_pair_kernel_dim: int = 8
    dedup_tol: float = 1e-6
    family_probes: tuple[float, ...] = (0.0, 1.0, 2.5)
    family_tol: float = 1e-7
    eps: float = 1e-5
    max_iter: int = 200

    def __post_init__(self) -> None:
        for name in ("residual_tol", "recon_tol", "dedup_tol", "eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"option {name} must be positive")
        if self.rank_tol is not None and self.rank_tol <= 0:
            raise ValueError("option rank_tol must be positive")
        counts = ("quasi_probes", "newton_starts", "proj_starts", "newton_max_iter", "max_iter")
        for name in counts:
            if getattr(self, name) < 0:
                raise ValueError(f"option {name} must be non-negative")
        for name in ("pair_angles", "max_pair_kernel_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"option {name} must be at least 1")
        if not all(math.isfinite(v) for v in self.family_probes):
            raise ValueError("option family_probes must be finite")


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
    return mat @ xi_matrix(e, 1, (n**r,) * s)


def lower_power_E(n: int, r: int, s: int, mu_x: int) -> np.ndarray:
    """Power-lowering selector ``E`` for monic diagonal arguments with ``μ(z) = mu_x``.

    For ``r > s``: ``E = I_{n^s} ⊗ [(δ_n^μ)ᵀ]^{⊗(r−s)}`` satisfies ``E·zʳ = zˢ``;
    for ``r < s``: ``E = I_{n^r} ⊗ [(δ_n^μ)ᵀ]^{⊗(s−r)}`` satisfies ``E·zˢ = zʳ``.
    ``r == s`` needs no lowering and is rejected.
    """
    n, r, s = int(n), int(r), int(s)
    if r == s:
        raise ValueError("powers already match; no lowering map is needed")
    if not 1 <= mu_x <= n:
        raise ValueError(f"leading index {mu_x} out of range [1, {n}]")
    low, high = min(r, s), max(r, s)
    row = basis_vector(n, mu_x).reshape(1, n)
    tail = np.ones((1, 1))
    for _ in range(high - low):
        tail = np.kron(tail, row)
    return np.kron(np.eye(n**low), tail)


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
    if r < s:
        return Pencil(am @ lower_power_E(n, r, s, mu_x), bm)
    return Pencil(am, bm @ lower_power_E(n, r, s, mu_x))


# ---------------------------------------------------------------------------
# Shared solver machinery
# ---------------------------------------------------------------------------


def _nullspace(m: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """Orthonormal kernel basis as columns (possibly zero columns wide)."""
    mat = np.atleast_2d(np.asarray(m, dtype=float))
    _, svals, vh = np.linalg.svd(mat)
    return vh[svd_rank(svals, mat.shape, rank_tol) :].T


def _lambda_candidates(essential: Sequence[float], opts: SolveOptions) -> list[float]:
    """Essential eigenvalues plus a deterministic sample of quasi values (incl. 0 and 1)."""
    cands = list(essential)
    rng = np.random.default_rng(opts.seed + 17)
    cands.extend(float(v) for v in rng.uniform(-3.0, 3.0, size=opts.quasi_probes))
    cands.extend([0.0, 1.0])
    out: list[float] = []
    for lam in cands:
        if not any(abs(lam - prev) <= 1e-9 * max(1.0, abs(prev)) for prev in out):
            out.append(lam)
    return out


def _gauss_newton(
    fun: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    max_iter: int,
) -> tuple[np.ndarray, float]:
    """Damped Gauss–Newton with finite-difference Jacobian; returns (x, ‖f(x)‖)."""
    x = np.asarray(x0, dtype=float).copy()
    f = fun(x)
    fnorm = float(np.linalg.norm(f))
    for _ in range(max_iter):
        if fnorm < 1e-14:
            break
        jac = np.empty((f.size, x.size))
        for j in range(x.size):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            jac[:, j] = (fun(xp) - fun(xm)) / (2 * h)
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        scale = 1.0
        accepted = False
        for _ in range(25):
            xn = x + scale * step
            fn = fun(xn)
            fn_norm = float(np.linalg.norm(fn))
            if fn_norm < fnorm:
                x, f, fnorm = xn, fn, fn_norm
                accepted = True
                break
            scale /= 2.0
        if not accepted or float(np.linalg.norm(step)) * scale < 1e-15 * max(
            1.0, float(np.linalg.norm(x))
        ):
            break
    return x, fnorm


def _embed_component(free: np.ndarray, n: int, anchor: int) -> np.ndarray:
    """Monic component with leading index ``anchor``: zeros, then 1, then free entries."""
    v = np.zeros(n)
    v[anchor - 1] = 1.0
    if free.size:
        v[anchor:] = free
    return v


def _component_is_case_monic(v: np.ndarray, anchor: int, tol: float = 1e-8) -> bool:
    if abs(v[anchor - 1] - 1.0) > tol:
        return False
    return bool(np.all(np.abs(v[: anchor - 1]) <= tol))


def _rank_one_factor(w: np.ndarray, n: int) -> bool:
    """Quick necessary test that ``w`` splits off an ``n``-dimensional leading factor."""
    mat = w.reshape(n, -1)
    svals = np.linalg.svd(mat, compute_uv=False)
    return svals.size < 2 or svals[1] <= 1e-6 * max(svals[0], np.finfo(float).tiny)


@dataclass
class _Equation:
    """One anchor case: its pencil and the original equation ``lhs = λ·rhs``.

    Both sides act on the case's monic components (``(z,)`` in D mode,
    ``(x_1, …, x_r)`` in U mode).  ``pencil_power`` maps components to the
    pencil variable ``ξ``; ``decomposition`` to the witness's monic
    decomposition; ``components_of`` splits a pencil vector back into
    components on this case, or returns None.
    """

    case: tuple[int, ...]
    pencil: Pencil
    lhs: Callable[[Sequence[np.ndarray]], np.ndarray]
    rhs: Callable[[Sequence[np.ndarray]], np.ndarray]
    pencil_power: Callable[[Sequence[np.ndarray]], np.ndarray]
    decomposition: Callable[[Sequence[np.ndarray]], MonicDecomposition]
    components_of: Callable[[np.ndarray, float], list[np.ndarray] | None]
    n: int
    scale: float


def _on_case(comps: Sequence[np.ndarray], case: tuple[int, ...]) -> list[np.ndarray] | None:
    """The components as float arrays when their leading indices are ``case``."""
    comps = [np.asarray(c, dtype=float) for c in comps]
    try:
        return comps if tuple(mu(c) for c in comps) == case else None
    except ValueError:
        return None


def _case_equation(prob: UEigenProblem, case: tuple[int, ...]) -> _Equation:
    """The equation and pencil of one anchor case, built for the problem's mode.

    D mode, ``case = (e₀,)``: the unknown is ``z`` with ``ξ = z^t``,
    ``t = max(p, q)``, and the pencil is homogenized by the anchored lowering
    map.  U mode, ``case = (e_1, …, e_r)``: the unknowns are the components of
    ``x = x_1 ⊗ … ⊗ x_r`` with ``ξ = xˢ``, and ``A`` is raised to power ``s``.
    """
    tm = prob.type_map
    n, a, bt = prob.n, prob.a, tm.composed
    scale = max(1.0, float(np.linalg.norm(a)) + float(np.linalg.norm(bt)))

    if prob.mode == "D":
        (e0,) = case
        p, q = prob.lhs_power, tm.input_power
        t = max(p, q)

        def d_components(v: np.ndarray, recon_tol: float) -> list[np.ndarray] | None:
            d = monic_decompose(v, (n,) * t, recon_tol)
            if d is None or not is_diagonal(d):
                return None
            return _on_case(d.components[:1], case)

        return _Equation(
            case=case,
            pencil=build_d_pencil(a, bt, n, p, q, e0),
            lhs=lambda comps: a @ stp_power(comps[0], p),
            rhs=lambda comps: bt @ stp_power(comps[0], q),
            pencil_power=lambda comps: stp_power(comps[0], t),
            decomposition=lambda comps: MonicDecomposition(
                e=diagonal_index(e0, n, t), c0=1.0, components=(comps[0],) * t
            ),
            components_of=d_components,
            n=n,
            scale=scale,
        )

    r, s = tm.r, tm.s
    e_x = index_join(case, n, r)

    def u_components(v: np.ndarray, recon_tol: float) -> list[np.ndarray] | None:
        d = monic_decompose(v, (n,) * (r * s), recon_tol)
        if d is None:
            return None
        groups = [d.components[k * r : (k + 1) * r] for k in range(s)]
        for other in groups[1:]:
            for ca, cb in zip(groups[0], other):
                if float(np.max(np.abs(ca - cb))) > 1e-7:
                    return None
        return _on_case(groups[0], case)

    return _Equation(
        case=case,
        pencil=Pencil(raise_power(a, diagonal_index(e_x, n**r, s), n, r, s), bt),
        lhs=lambda comps: a @ compose(comps),
        rhs=lambda comps: bt @ stp_power(compose(comps), s),
        pencil_power=lambda comps: stp_power(compose(comps), s),
        decomposition=lambda comps: MonicDecomposition(
            e=e_x, c0=1.0, components=tuple(comps)
        ),
        components_of=u_components,
        n=n,
        scale=scale,
    )


def _verify_witness(
    eq: _Equation,
    comps: Sequence[np.ndarray],
    lam: float | None,
    opts: SolveOptions,
) -> EigenWitness | None:
    """Monic-anchor check + original-equation residual check; None when rejected."""
    comps = [np.asarray(c, dtype=float) + 0.0 for c in comps]  # +0.0 clears -0.0
    for v, anchor in zip(comps, eq.case):
        if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > 1e8:
            return None
        if not _component_is_case_monic(v, anchor):
            return None
    atol = opts.residual_tol * eq.scale
    lhs, rhs = eq.lhs(comps), eq.rhs(comps)
    lhs_norm, rhs_norm = float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs))
    if lhs_norm <= atol and rhs_norm <= atol:
        # Both sides vanish: any λ works.  Keep a requested λ, else report at 0.
        lam_final = 0.0 if lam is None else float(lam)
    elif rhs_norm <= atol:
        return None  # lhs nonzero but rhs zero: no λ satisfies the equation
    else:
        lam_final = float((rhs @ lhs) / (rhs @ rhs)) if lam is None else float(lam)
    residual = float(np.linalg.norm(lhs - lam_final * rhs))
    if residual > atol:
        return None
    decomp = eq.decomposition(comps)
    return EigenWitness(
        lam=lam_final,
        xi=eq.pencil_power(comps),
        decomposition=decomp,
        diagonal=is_diagonal(decomp),
        residual=residual,
        case=eq.case,
    )


def _search_case(
    eq: _Equation, essential: Sequence[float], opts: SolveOptions
) -> list[EigenWitness]:
    """All kernel-search tactics for one anchor case of one problem."""
    n, case = eq.n, eq.case
    found: list[EigenWitness] = []

    def add(comps: Sequence[np.ndarray], lam: float | None) -> None:
        w = _verify_witness(eq, comps, lam, opts)
        if w is not None:
            found.append(w)

    free_sizes = [n - anchor for anchor in case]
    total_free = sum(free_sizes)

    def unpack(u: np.ndarray) -> list[np.ndarray]:
        comps, pos = [], 0
        for anchor, size in zip(case, free_sizes):
            comps.append(_embed_component(u[pos : pos + size], n, anchor))
            pos += size
        return comps

    rng = np.random.default_rng(opts.seed + 1009 * (index_join(case, n, len(case)) + 1))

    for lam in _lambda_candidates(essential, opts):
        basis = kernel_basis(eq.pencil, lam, opts.rank_tol)
        if not basis:
            continue
        kmat = np.column_stack(basis)

        # Tactic 1: kernel basis vectors through the decomposition certificate.
        for v in basis:
            comps = eq.components_of(v, opts.recon_tol)
            if comps is not None:
                add(comps, lam)

        # Tactic 2: two-vector combinations, screened by a rank-1 reshape test.
        if 2 <= kmat.shape[1] <= opts.max_pair_kernel_dim:
            for i, j in itertools.combinations(range(kmat.shape[1]), 2):
                for theta in np.linspace(0.0, np.pi, opts.pair_angles, endpoint=False):
                    w = math.cos(theta) * kmat[:, i] + math.sin(theta) * kmat[:, j]
                    if not _rank_one_factor(w, n):
                        continue
                    comps = eq.components_of(w, opts.recon_tol)
                    if comps is not None:
                        add(comps, lam)

        # Tactic 3: Gauss–Newton on the kernel-projection residual.
        if total_free:
            for _ in range(opts.proj_starts):
                u0 = rng.standard_normal(total_free)

                def proj_resid(u: np.ndarray) -> np.ndarray:
                    xi = eq.pencil_power(unpack(u))
                    return xi - kmat @ (kmat.T @ xi)

                u, _ = _gauss_newton(proj_resid, u0, opts.newton_max_iter)
                comps = unpack(u)
                xi = eq.pencil_power(comps)
                gap = float(np.linalg.norm(xi - kmat @ (kmat.T @ xi)))
                if gap <= 1e-8 * max(1.0, float(np.linalg.norm(xi))):
                    add(comps, lam)

    # Tactic 4: Gauss–Newton on the original equation with λ free.
    for _ in range(opts.newton_starts):
        w0 = np.append(rng.standard_normal(total_free), rng.standard_normal())

        def orig_resid(w: np.ndarray) -> np.ndarray:
            comps = unpack(w[:-1])
            return eq.lhs(comps) - w[-1] * eq.rhs(comps)

        w, _ = _gauss_newton(orig_resid, w0, opts.newton_max_iter)
        add(unpack(w[:-1]), float(w[-1]))
        # Re-fit λ by least squares in case the Newton λ drifted.
        add(unpack(w[:-1]), None)

    return found


def _sorted_witnesses(witnesses: list[EigenWitness]) -> list[EigenWitness]:
    return sorted(
        witnesses,
        key=lambda w: (w.case, w.lam, tuple(np.round(w.xi, 12))),
    )


def _merge_lambda_lines(
    witnesses: list[EigenWitness],
    reverify: Callable[[tuple[int, ...], Sequence[np.ndarray], float], EigenWitness | None],
    opts: SolveOptions,
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
                and float(np.max(np.abs(w.xi - head.xi))) <= opts.dedup_tol
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
    opts: SolveOptions,
) -> list[EigenWitness]:
    """Detect one-parameter witness families and certify them at probe values.

    Two witnesses of the same case and λ whose decompositions differ in
    exactly one component define a candidate line; it is probed at
    ``opts.family_probes`` (offsets along the normalized direction from the
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
            moving = [j for j, d in enumerate(diffs) if d > opts.family_tol]
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
            for theta in opts.family_probes:
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
    return _dedup(tagged + extra, opts.dedup_tol)


def _dedup(witnesses: list[EigenWitness], tol: float) -> list[EigenWitness]:
    """Deduplicate, preferring tagged (family) records, then lower residuals."""
    kept: list[EigenWitness] = []
    for w in sorted(witnesses, key=lambda w: (w.family is None, w.residual)):
        duplicate = False
        for prev in kept:
            if (
                w.case == prev.case
                and abs(w.lam - prev.lam) <= tol * max(1.0, abs(prev.lam))
                and w.xi.shape == prev.xi.shape
                and float(np.max(np.abs(w.xi - prev.xi))) <= tol
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
        essential = essential_eigenvalues_real(
            eq.pencil, rank_tol=opts.rank_tol, seed=opts.seed
        )
        rg = generic_rank(eq.pencil, seed=opts.seed, rank_tol=opts.rank_tol)
        facts.append(CaseFacts(case, eq.pencil, rg, tuple(essential)))
        witnesses.extend(_search_case(eq, essential, opts))

    def reverify(case, comps, lam):
        return _verify_witness(equations[case], comps[: len(case)], lam, opts)

    witnesses = _dedup(witnesses, opts.dedup_tol)
    witnesses = _merge_lambda_lines(witnesses, reverify, opts)
    witnesses = _tag_families(witnesses, reverify, opts)
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
    (c) the next ``z`` as the normalized, sign-aligned average of the
    extracted components; (d) stop when ``‖z_{k+1} − z_k‖ < eps``.

    Each step's state (step index, current ``z``, λ, original-equation
    residual) is appended to ``history`` when a list is supplied; the final
    state is returned with ``converged`` set accordingly.  A vanishing
    ``B̃ξ_q`` (λ undefined) or a collapsing diagonal-consistent kernel raises
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

        selectors = [
            xi_matrix(diagonal_index(e0, n, t), i, (n,) * t) for i in range(1, t + 1)
        ]
        blocks = [pencil.at(lam)]
        blocks.extend(selectors[0] - sel for sel in selectors[1:])
        kmat = _nullspace(np.vstack(blocks))
        if kmat.shape[1] == 0:
            raise IterationBreakdown(
                f"diagonal-consistent kernel is trivial at step {k} (lambda={lam:.6g})"
            )
        xi_proj = kmat @ (kmat.T @ xi)
        parts = []
        for sel in selectors:
            v = sel @ xi_proj
            nv = float(np.linalg.norm(v))
            if nv <= np.finfo(float).tiny:
                continue
            v = v / nv
            if float(v @ z) < 0.0:
                v = -v
            parts.append(v)
        if not parts:
            raise IterationBreakdown(
                f"all extracted components vanished at step {k} (lambda={lam:.6g})"
            )
        total = np.sum(parts, axis=0)
        total_norm = float(np.linalg.norm(total))
        if total_norm <= np.finfo(float).tiny:
            raise IterationBreakdown(
                f"extracted components cancelled at step {k} (lambda={lam:.6g})"
            )
        prev = z
        z = total / total_norm
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
            n, r = int(td["n"]), int(td["r"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"named type needs integer n and r: {exc}") from exc
        s = int(td.get("s", 1))
        return named_type(name, n, r, s)
    if "explicit" in td:
        factors = [np.atleast_2d(np.asarray(b, dtype=float)) for b in td["explicit"]]
        if not factors:
            raise ValueError("explicit type needs at least one factor matrix")
        n = int(td.get("n", factors[0].shape[0]))
        r = td.get("r")
        if r is None:
            r = _int_log(factors[0].shape[1], n)
            if r is None:
                raise ValueError(
                    f"cannot infer degree r from factor shape {factors[0].shape}"
                )
        return TypeMap(n=n, r=int(r), s=len(factors), factors=tuple(factors))
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
            rows=tuple(int(i) for i in part_d["rows"]),
            cols=tuple(int(i) for i in part_d["cols"]),
        )
    except (KeyError, TypeError) as exc:
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
    merged: dict = {}
    if d:
        known = set(SolveOptions.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown options: {sorted(unknown)}")
        merged.update(d)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    if "family_probes" in merged:
        merged["family_probes"] = tuple(float(v) for v in merged["family_probes"])
    return SolveOptions(**merged)
