"""Hypervectors, monic normalization, index calculus, and monic decomposition.

A *hypervector* of factor dimensions ``(n_1, …, n_r)`` is a vector in
``R^{n_1···n_r}`` expressible as the Kronecker (semi-tensor) product of ``r``
component vectors.  The decomposition is not unique — scalars can be shuffled
between factors — so components are normalized *monic*: first nonzero entry
equal to 1, with a single leading coefficient ``c0`` carried separately.

The monic decomposition algorithm extracts candidate components with the Ξ
selectors anchored at the leading nonzero position and certifies the result
by reconstruction; vectors failing the certificate are reported as not
decomposable.  Ξ at anchor ``e`` for factor ``i`` reads the ``dims[i−1]``
entries whose multi-index agrees with ``index_split(e, dims)`` in every slot
but ``i``: a strided slice of the flat vector with stride
``prod(dims[i:])``.  :func:`_decompose_rows` runs the algorithm on a stack
of rows, each as alone; :func:`monic_decompose` is its one-row form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from .stp_core import _norms, _outer

__all__ = [
    "MonicDecomposition",
    "compose",
    "diagonal_index",
    "extract_component",
    "index_join",
    "index_split",
    "is_diagonal",
    "monic_decompose",
    "monicize",
    "mu",
    "xi_matrix",
]

#: Relative floor below which entries count as zero when locating μ(x).
MU_RELATIVE_FLOOR = 1e-10

#: Default relative reconstruction tolerance certifying a decomposition.
DEFAULT_RECON_TOL = 1e-8


def _as_vector(x: np.ndarray | Sequence) -> np.ndarray:
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("vector must be non-empty")
    return arr


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(n) for n in dims)
    if not out or any(n < 1 for n in out):
        raise ValueError(f"factor dimensions must be positive, got {list(dims)}")
    return out


def _vector_over(x: np.ndarray | Sequence, dims: Sequence[int]) -> tuple[np.ndarray, tuple]:
    """``x`` as a vector over factor dimensions ``dims`` (their product is its length)."""
    arr, dims = _as_vector(x), _check_dims(dims)
    if arr.size != math.prod(dims):
        raise ValueError(f"vector length {arr.size} does not match factor dims {list(dims)}")
    return arr, dims


def _leading(rows: np.ndarray) -> np.ndarray:
    """:func:`mu` of each row; 0 for a row without a leading entry (zero or not finite)."""
    mags = np.abs(rows)
    above = mags > MU_RELATIVE_FLOOR * np.max(mags, axis=1, keepdims=True)
    return np.where(above.any(axis=1), above.argmax(axis=1) + 1, 0)


def mu(x: np.ndarray | Sequence) -> int:
    """Position (1-based) of the first non-negligible entry of ``x``.

    Entries with magnitude at most ``1e-10`` times the largest are treated
    as zero.  A vector without a leading index (zero, or not finite) raises
    ``ValueError``.
    """
    lead = int(_leading(_as_vector(x)[None])[0])
    if not lead:
        raise ValueError("vector has no leading index (it is zero or not finite)")
    return lead


def monicize(x: np.ndarray | Sequence) -> tuple[float, np.ndarray]:
    """Split ``x`` as ``c0 · x0`` with ``x0`` monic (leading entry 1).

    Returns ``(c0, x0)`` where ``c0`` is the entry at position ``mu(x)``.
    """
    arr = _as_vector(x)
    lead = mu(arr)
    c0 = float(arr[lead - 1])
    return c0, arr / c0


def index_split(e: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Expand a flat lexicographic index into per-factor indices (all 1-based).

    Inverse of :func:`index_join` generalized to mixed factor dimensions: the
    last factor runs fastest.
    """
    dims = _check_dims(dims)
    total = math.prod(dims)
    e = int(e)
    if not 1 <= e <= total:
        raise ValueError(f"index {e} out of range [1, {total}]")
    rem = e - 1
    out = []
    for n in reversed(dims):
        out.append(rem % n + 1)
        rem //= n
    return tuple(reversed(out))


def index_join(component_indices: Sequence[int], n: int, r: int) -> int:
    """Flat lexicographic index of per-factor indices over ``r`` equal factors of dimension ``n``.

    ``e = 1 + Σ_i (e_i − 1)·n^(r−i)`` — the inverse of
    ``index_split(e, (n,)*r)``.
    """
    n, r = int(n), int(r)
    if n < 1 or r < 1:
        raise ValueError(f"need positive base and degree, got n={n}, r={r}")
    es = [int(i) for i in component_indices]
    if len(es) != r:
        raise ValueError(f"expected {r} component indices, got {len(es)}")
    e = 0
    for i in es:
        if not 1 <= i <= n:
            raise ValueError(f"component index {i} out of range [1, {n}]")
        e = e * n + (i - 1)
    return e + 1


def diagonal_index(e0: int, n: int, r: int) -> int:
    """Flat index of the diagonal multi-index ``(e0, e0, …, e0)`` over ``r`` factors of dimension ``n``.

    Closed form ``(e0 − 1)·(n^r − 1)/(n − 1) + 1`` (and 1 when ``n == 1``).
    """
    n, r = int(n), int(r)
    if n < 1 or r < 1:
        raise ValueError(f"need positive base and degree, got n={n}, r={r}")
    e0 = int(e0)
    if not 1 <= e0 <= n:
        raise ValueError(f"index {e0} out of range [1, {n}]")
    if n == 1:
        return 1
    return (e0 - 1) * (n**r - 1) // (n - 1) + 1


def _xi_slice(e: int, i: int, dims: tuple[int, ...]) -> slice:
    """Flat positions Ξ(e, i, dims) reads, as a strided slice.

    Slot ``i`` runs over ``1…dims[i−1]``; every other slot stays at its entry
    of ``index_split(e, dims)``.
    """
    r = len(dims)
    i = int(i)
    if not 1 <= i <= r:
        raise ValueError(f"component position {i} out of range [1, {r}]")
    c = index_split(e, dims)[i - 1]
    stride = math.prod(dims[i:])
    start = (int(e) - 1) - (c - 1) * stride
    return slice(start, start + dims[i - 1] * stride, stride)


def xi_matrix(e: int, i: int, dims: Sequence[int]) -> np.ndarray:
    """Component-selection matrix Ξ extracting factor ``i`` at anchor index ``e``.

    With ``(c_1, …, c_r) = index_split(e, dims)``, Ξ is the Kronecker product
    over slots ``j`` of the row ``(δ^{c_j})ᵀ`` — except slot ``i``, which
    contributes the identity.  Shape: ``dims[i−1] × prod(dims)``.  For a
    decomposable ``x = c0 · x_1 ⊗ … ⊗ x_r`` with monic components whose
    leading indices join to ``e``, ``Ξ x = c0 · x_i``.
    """
    dims = _check_dims(dims)
    cols = _xi_slice(e, i, dims)
    n_i = dims[int(i) - 1]
    out = np.zeros((n_i, math.prod(dims)))
    out[:, cols] = np.eye(n_i)
    return out


def extract_component(
    x: np.ndarray | Sequence, e: int, i: int, dims: Sequence[int]
) -> np.ndarray:
    """Apply the Ξ selector: candidate ``i``-th component of ``x`` at anchor ``e`` (scaled by ``c0``)."""
    arr, dims = _vector_over(x, dims)
    return arr[_xi_slice(e, i, dims)].copy()


def compose(components: Sequence[np.ndarray | Sequence]) -> np.ndarray:
    """Kronecker (STP) product of component vectors, first factor slowest."""
    if not components:
        raise ValueError("need at least one component")
    return functools.reduce(_outer, [_as_vector(c) for c in components])


@dataclass(frozen=True)
class MonicDecomposition:
    """Certified decomposition ``x = c0 · x_1 ⊗ … ⊗ x_r`` with monic components."""

    e: int
    c0: float
    components: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        comps = tuple(np.asarray(c, dtype=float).ravel() for c in self.components)
        for c in comps:
            c.flags.writeable = False
        object.__setattr__(self, "components", comps)

    def reconstruct(self) -> np.ndarray:
        """``c0`` times the composed components."""
        return self.c0 * compose(self.components)


def _decompose_rows(
    rows: np.ndarray, dims: tuple[int, ...], recon_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """The monic decomposition algorithm on every row of ``rows`` at once.

    Returns the indices of the rows that decompose over ``dims``, in order,
    with their anchors ``e``, leading coefficients ``c0`` and one
    ``(rows × dims[i−1])`` stack per component, each as the row alone gives
    it, bit for bit (elementwise products, ``np.linalg.norm``'s norms).  A
    row without a leading entry is rejected.
    """
    x = np.asarray(rows, dtype=float)
    e = _leading(x)
    kept = np.flatnonzero(e)
    x, flat = x[kept], e[kept] - 1  # indexing copies: each row is contiguous, as alone
    c0 = x[np.arange(len(x)), flat]
    comps = []
    for i, n_i in enumerate(dims):
        # Ξ(e, i + 1): slot i + 1 runs, every other slot keeps its entry of e.
        stride = math.prod(dims[i + 1 :])
        start = flat - flat // stride % n_i * stride
        read = np.take_along_axis(x, start[:, None] + stride * np.arange(n_i), axis=1)
        comps.append(read / c0[:, None])
    err = _norms(c0[:, None] * functools.reduce(_outer, comps) - x)
    ok = ~(err > recon_tol * _norms(x))
    return kept[ok], flat[ok] + 1, c0[ok], [c[ok] for c in comps]


def monic_decompose(
    x: np.ndarray | Sequence,
    dims: Sequence[int],
    recon_tol: float = DEFAULT_RECON_TOL,
) -> MonicDecomposition | None:
    """Decompose ``x`` into monic components over ``dims``, or ``None`` if not decomposable.

    Component ``i`` is read with the Ξ selector anchored at ``e = mu(x)``:
    the ``dims[i−1]`` entries of ``x`` whose multi-index matches
    ``index_split(e, dims)`` outside slot ``i``, among them ``x[e]`` itself.
    Each is monic-normalized by ``c0 = x[e]``, and the result is certified
    by reconstruction: it is accepted only when
    ``‖c0·(x_1 ⊗ … ⊗ x_r) − x‖ ≤ recon_tol · ‖x‖``.
    """
    arr, dims = _vector_over(x, dims)
    mu(arr)  # raises for a vector without a leading entry
    kept, e, c0, comps = _decompose_rows(arr[None], dims, recon_tol)
    if not kept.size:
        return None
    return MonicDecomposition(e=int(e[0]), c0=float(c0[0]), components=tuple(c[0] for c in comps))


def is_diagonal(d: MonicDecomposition, tol: float = 1e-9) -> bool:
    """Whether all components of a decomposition are equal (within ``tol``, componentwise)."""
    comps = d.components
    if len({c.size for c in comps}) != 1:
        return False
    first = comps[0]
    return all(np.max(np.abs(c - first)) <= tol for c in comps[1:])
