"""Semi-tensor product (STP) matrix algebra.

The left semi-tensor product generalizes the ordinary matrix product to
factors of arbitrary shapes: the two operands are Kronecker-padded with
identity blocks up to the least common multiple of the inner dimensions and
then multiplied classically.  For conformable shapes it reduces to the
ordinary product; for column vectors it reduces to the Kronecker product.

Conventions used throughout the package:

* matrices are 2-D ``numpy`` arrays of ``float64``;
* a 1-D array is treated as a column vector (shape ``(n, 1)``);
* results that are single columns are returned 1-D whenever at least one
  operand was given 1-D.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "MAX_RESULT_ENTRIES",
    "SizeLimitError",
    "kron",
    "pushdown",
    "stp",
    "stp_all",
    "stp_power",
]

#: Safety cap on the number of entries any single result may hold.
MAX_RESULT_ENTRIES = 100_000_000


class SizeLimitError(ValueError):
    """An operation would allocate more entries than the safety cap."""


def _as_matrix(a: np.ndarray | Sequence, name: str = "operand") -> np.ndarray:
    """Coerce to a 2-D float array; 1-D input becomes a column vector."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def _as_vector(x: np.ndarray | Sequence, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float array (accepts single-column/row 2-D input)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 2 and 1 in arr.shape:
        arr = arr.ravel()
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


def _check_size(rows: int, cols: int) -> None:
    if rows * cols > MAX_RESULT_ENTRIES:
        raise SizeLimitError(
            f"result would hold {rows * cols} entries "
            f"(cap is {MAX_RESULT_ENTRIES})"
        )


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors, row by row over any leading batch axes."""
    return (u[..., :, None] * v[..., None, :]).reshape(*u.shape[:-1], u.shape[-1] * v.shape[-1])


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``, bit for bit ``a_i @ b_i``.

    A stacked row-times-column product runs the dot kernel of each row
    alone; a sum of products would add in another order.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit ``np.linalg.norm`` of that row alone."""
    with np.errstate(over="ignore"):  # as in norm, a huge row's norm is inf, silently
        return np.sqrt(_dots(rows, rows))


def kron(a: np.ndarray | Sequence, b: np.ndarray | Sequence) -> np.ndarray:
    """Kronecker product of two matrices (or vectors, treated as columns)."""
    a1d = np.asarray(a).ndim == 1
    b1d = np.asarray(b).ndim == 1
    am, bm = _as_matrix(a, "a"), _as_matrix(b, "b")
    _check_size(am.shape[0] * bm.shape[0], am.shape[1] * bm.shape[1])
    out = np.kron(am, bm)
    if a1d and b1d:
        return out.ravel()
    return out


def stp(a: np.ndarray | Sequence, b: np.ndarray | Sequence) -> np.ndarray:
    """Left semi-tensor product ``a ⋉ b``.

    For ``a`` of shape ``m×n`` and ``b`` of shape ``p×q`` with
    ``t = lcm(n, p)`` the result is ``(a ⊗ I_{t/n}) (b ⊗ I_{t/p})`` of shape
    ``(m·t/n) × (q·t/p)``.  When ``n == p`` this is the ordinary product; for
    two column vectors it is their Kronecker product.
    """
    vec_out = np.asarray(a).ndim == 1 or np.asarray(b).ndim == 1
    am, bm = _as_matrix(a, "a"), _as_matrix(b, "b")
    m, n = am.shape
    p, q = bm.shape
    t = math.lcm(n, p)
    _check_size(m * t // n, q * t // p)
    left = am if t == n else np.kron(am, np.eye(t // n))
    right = bm if t == p else np.kron(bm, np.eye(t // p))
    out = left @ right
    if vec_out and out.shape[1] == 1:
        return out.ravel()
    return out


def stp_all(factors: Iterable[np.ndarray | Sequence]) -> np.ndarray:
    """Left-fold ``stp`` over a sequence of factors (at least one)."""
    factors = list(factors)
    if not factors:
        raise ValueError("stp_all requires at least one factor")
    out = factors[0]
    for f in factors[1:]:
        out = stp(out, f)
    return np.asarray(out, dtype=float)


def stp_power(x: np.ndarray | Sequence, r: int) -> np.ndarray:
    """``r``-fold STP power of a column vector: ``x ⋉ x ⋉ … ⋉ x`` (``r`` copies).

    For a column vector this is the iterated Kronecker product, a vector of
    dimension ``len(x)**r``.
    """
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError(f"power must be a positive integer, got {r!r}")
    v = _as_vector(x, "x")
    _check_size(v.size**r, 1)
    return functools.reduce(_outer, [v] * r)


def pushdown(x: np.ndarray | Sequence, a: np.ndarray | Sequence) -> np.ndarray:
    """Swap matrix ``kron(I_{dim(x)}, a)`` satisfying ``stp(x, a) == stp(pushdown(x, a), x)``.

    Moves a matrix factor leftward past a column vector in an STP chain.
    """
    v = _as_vector(x, "x")
    am = _as_matrix(a, "a")
    _check_size(v.size * am.shape[0], v.size * am.shape[1])
    return np.kron(np.eye(v.size), am)
