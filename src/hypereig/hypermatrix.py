"""Hypermatrices: order-``d`` arrays with lexicographic flattening calculus.

A hypermatrix of dimensions ``(n_1, …, n_d)`` is stored as a flat vector in
lexicographic order with the *last* index running fastest (C order).  Any
bipartition of the index positions into row positions and column positions
yields a matrix expression; the special partitions with all positions on one
side give the vectorization and its transpose.

This module also defines the HMX interchange dictionary format used by the
file-based CLI: a JSON object with keys ``order``, ``dims``, ``format``
(``"dense"`` or ``"sparse"``) and either ``entries`` (flat lexicographic
list) or ``nz`` (list of ``{"idx": [... 1-based ...], "val": v}`` records).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from .stp_core import MAX_RESULT_ENTRIES, SizeLimitError

__all__ = [
    "FormatError",
    "Hypermatrix",
    "IndexPartition",
    "apply",
    "contract",
    "eval_tensor",
    "flatten",
    "hmx_from_dict",
    "hmx_to_dict",
    "unflatten",
    "vectorize",
]


class FormatError(ValueError):
    """An HMX dictionary/file is malformed."""


@dataclass(frozen=True)
class Hypermatrix:
    """Order-``d`` array stored flat in lexicographic (last index fastest) order."""

    dims: tuple[int, ...]
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dims = tuple(int(n) for n in self.dims)
        if any(n < 1 for n in dims):
            raise ValueError(f"dimensions must be positive, got {dims}")
        size = math.prod(dims)
        if size > MAX_RESULT_ENTRIES:
            raise SizeLimitError(f"hypermatrix would hold {size} entries")
        data = np.asarray(self.data, dtype=float).ravel()
        if data.size != size:
            raise ValueError(
                f"data length {data.size} does not match dims {dims} (need {size})"
            )
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, arr: np.ndarray | Sequence) -> "Hypermatrix":
        """Build from a dense ``numpy`` array; axes become index positions 1…d."""
        a = np.asarray(arr, dtype=float)
        if a.ndim == 0:
            raise ValueError("hypermatrix needs at least one index")
        return cls(dims=a.shape, data=a.ravel())

    def to_array(self) -> np.ndarray:
        """Dense ``numpy`` array view with shape ``dims``."""
        return self.data.reshape(self.dims)

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.data.size

    def entry(self, idx: Sequence[int]) -> float:
        """Entry at a 1-based multi-index."""
        if len(idx) != self.order:
            raise ValueError(f"index length {len(idx)} != order {self.order}")
        zero = []
        for pos, (i, n) in enumerate(zip(idx, self.dims), start=1):
            if not 1 <= i <= n:
                raise ValueError(f"index {i} out of range [1, {n}] at position {pos}")
            zero.append(i - 1)
        return float(self.to_array()[tuple(zero)])


@dataclass(frozen=True)
class IndexPartition:
    """Bipartition of index positions 1…d into row positions and column positions.

    Either side may be empty; together they must cover every position exactly
    once.  Positions are 1-based.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(int(i) for i in self.rows)
        cols = tuple(int(i) for i in self.cols)
        combined = rows + cols
        d = len(combined)
        if sorted(combined) != list(range(1, d + 1)):
            raise ValueError(
                f"rows {rows} and cols {cols} must partition positions 1..{d} "
                "with no repeats or gaps"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def order(self) -> int:
        return len(self.rows) + len(self.cols)


def _check_partition(h: Hypermatrix, p: IndexPartition) -> None:
    if p.order != h.order:
        raise ValueError(
            f"partition covers {p.order} positions but hypermatrix has order {h.order}"
        )


def vectorize(h: Hypermatrix) -> np.ndarray:
    """Column vectorization: all positions as rows, lexicographic order."""
    return h.data.copy()


def flatten(h: Hypermatrix, p: IndexPartition) -> np.ndarray:
    """Matrix expression with rows indexed by ``p.rows`` and columns by ``p.cols``.

    Both row and column multi-indices are enumerated lexicographically with
    the last listed position running fastest.  An empty side contributes a
    single row (or column).
    """
    _check_partition(h, p)
    arr = h.to_array()
    perm = [i - 1 for i in p.rows + p.cols]
    moved = arr.transpose(perm)
    nrows = math.prod(h.dims[i - 1] for i in p.rows) if p.rows else 1
    ncols = math.prod(h.dims[i - 1] for i in p.cols) if p.cols else 1
    return moved.reshape(nrows, ncols).copy()


def unflatten(
    m: np.ndarray | Sequence, dims: Sequence[int], p: IndexPartition
) -> Hypermatrix:
    """Inverse of :func:`flatten` for the given dimensions and partition."""
    dims = tuple(int(n) for n in dims)
    if p.order != len(dims):
        raise ValueError(
            f"partition covers {p.order} positions but dims has length {len(dims)}"
        )
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"matrix input must be 2-D, got ndim={mat.ndim}")
    nrows = math.prod(dims[i - 1] for i in p.rows) if p.rows else 1
    ncols = math.prod(dims[i - 1] for i in p.cols) if p.cols else 1
    if mat.shape != (nrows, ncols):
        raise ValueError(
            f"matrix shape {mat.shape} does not match partition shape {(nrows, ncols)}"
        )
    shaped = mat.reshape([dims[i - 1] for i in p.rows + p.cols])
    perm = [i - 1 for i in p.rows + p.cols]
    inverse = np.argsort(perm)
    return Hypermatrix.from_array(shaped.transpose(inverse))


def contract(
    a: Hypermatrix,
    b: Hypermatrix,
    shared: Sequence[tuple[int, int]],
) -> Hypermatrix:
    """Contraction product over explicitly paired index positions.

    ``shared`` lists ``(position_in_a, position_in_b)`` pairs (1-based); the
    paired dimensions must agree.  The result's indices are the remaining
    positions of ``a`` in order, followed by the remaining positions of ``b``.
    A full contraction yields an order-0 (scalar) hypermatrix.
    """
    pairs = [(int(pa), int(pb)) for pa, pb in shared]
    a_axes = [pa - 1 for pa, _ in pairs]
    b_axes = [pb - 1 for _, pb in pairs]
    for pa, pb in pairs:
        if not 1 <= pa <= a.order:
            raise ValueError(f"position {pa} out of range for first operand")
        if not 1 <= pb <= b.order:
            raise ValueError(f"position {pb} out of range for second operand")
        if a.dims[pa - 1] != b.dims[pb - 1]:
            raise ValueError(
                f"paired positions ({pa}, {pb}) have unequal dimensions "
                f"{a.dims[pa - 1]} != {b.dims[pb - 1]}"
            )
    if len(set(a_axes)) != len(a_axes) or len(set(b_axes)) != len(b_axes):
        raise ValueError("each position may be paired at most once")
    out = np.tensordot(a.to_array(), b.to_array(), axes=(a_axes, b_axes))
    if out.ndim == 0:
        return Hypermatrix(dims=(), data=np.asarray([float(out)]))
    return Hypermatrix.from_array(out)


def apply(h: Hypermatrix, p: IndexPartition, x: np.ndarray | Sequence) -> np.ndarray:
    """Act on a vector bound to the column positions: ``flatten(h, p) @ x``."""
    mat = flatten(h, p)
    vec = np.asarray(x, dtype=float).ravel()
    if vec.size != mat.shape[1]:
        raise ValueError(
            f"vector length {vec.size} does not match column dimension {mat.shape[1]}"
        )
    return mat @ vec


def eval_tensor(
    h: Hypermatrix,
    xs: Sequence[np.ndarray | Sequence],
    sigmas: Sequence[np.ndarray | Sequence],
) -> float:
    """Full scalar evaluation: bind vectors to the leading positions and
    covectors to the trailing positions, and contract everything.

    With ``r = len(xs)`` and ``s = len(sigmas)`` (``r + s`` = order), the value
    is ``(σ_1 ⊗ … ⊗ σ_s) · M · (x_1 ⊗ … ⊗ x_r)`` where ``M`` is the flattening
    with rows at positions ``r+1…r+s`` and columns at ``1…r``.
    """
    if len(xs) + len(sigmas) != h.order:
        raise ValueError(
            f"got {len(xs)} vectors + {len(sigmas)} covectors for order {h.order}"
        )
    res = h.to_array()
    for x in xs:
        v = np.asarray(x, dtype=float).ravel()
        res = np.tensordot(res, v, axes=(0, 0))
    for sigma in sigmas:
        v = np.asarray(sigma, dtype=float).ravel()
        res = np.tensordot(res, v, axes=(0, 0))
    return float(res)


# ---------------------------------------------------------------------------
# HMX interchange format
# ---------------------------------------------------------------------------

#: Sparse HMX output is chosen below this nonzero density.
_SPARSE_THRESHOLD = 0.25


def hmx_to_dict(h: Hypermatrix) -> dict:
    """Serialize to the HMX dictionary format (dense or sparse, by density)."""
    nnz = int(np.count_nonzero(h.data))
    if h.size > 0 and nnz / h.size < _SPARSE_THRESHOLD:
        arr = h.to_array()
        nz = []
        for flat in np.flatnonzero(h.data):
            idx = np.unravel_index(int(flat), h.dims)
            nz.append({"idx": [int(i) + 1 for i in idx], "val": float(arr[idx])})
        return {
            "order": h.order,
            "dims": list(h.dims),
            "format": "sparse",
            "nz": nz,
        }
    return {
        "order": h.order,
        "dims": list(h.dims),
        "format": "dense",
        "entries": [float(v) for v in h.data],
    }


def _whole(value) -> int:
    """``value`` as an ``int`` if it is an integral number (not a bool), else ValueError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _reals(value, what: str) -> np.ndarray:
    """``value`` (parsed JSON) as a finite float array, or FormatError naming ``what``.

    JSON ``null`` (read as NaN), ``NaN`` and ``Infinity`` are rejected.
    """
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{what} must be numbers: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"{what} must be finite numbers (not null, NaN or Infinity)")
    return arr


def hmx_from_dict(d: dict) -> Hypermatrix:
    """Parse the HMX dictionary format (see module docstring)."""
    if not isinstance(d, dict):
        raise FormatError("HMX value must be an object")
    try:
        order = _whole(d["order"])
        dims = tuple(_whole(n) for n in d["dims"])
        fmt = str(d["format"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"HMX object missing or malformed field: {exc}") from exc
    if order != len(dims):
        raise FormatError(f"order {order} does not match dims {list(dims)}")
    if any(n < 1 for n in dims):
        raise FormatError(f"dims must be positive, got {list(dims)}")
    size = math.prod(dims)
    if size > MAX_RESULT_ENTRIES:
        raise SizeLimitError(f"hypermatrix would hold {size} entries")
    if fmt == "dense":
        entries = d.get("entries")
        if entries is None:
            raise FormatError('dense HMX requires "entries"')
        data = _reals(entries, "entries").ravel()
        if data.size != size:
            raise FormatError(f"entries length {data.size} != {size} for dims {list(dims)}")
        return Hypermatrix(dims=dims, data=data)
    if fmt == "sparse":
        nz = d.get("nz")
        if not isinstance(nz, list):
            raise FormatError('sparse HMX requires "nz", a list of records')
        arr = np.zeros(dims)
        for rec in nz:
            try:
                idx = tuple(_whole(i) for i in rec["idx"])
                val = float(rec["val"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise FormatError(f"malformed nz record {rec!r}") from exc
            if not math.isfinite(val):
                raise FormatError(f"nz record {rec!r}: val must be a finite number")
            if len(idx) != order:
                raise FormatError(f"nz index {list(idx)} has wrong length for order {order}")
            for pos, (i, n) in enumerate(zip(idx, dims), start=1):
                if not 1 <= i <= n:
                    raise FormatError(
                        f"nz index {list(idx)} out of range at position {pos}"
                    )
            arr[tuple(i - 1 for i in idx)] = val
        return Hypermatrix.from_array(arr)
    raise FormatError(f'unknown HMX format {fmt!r} (expected "dense" or "sparse")')
