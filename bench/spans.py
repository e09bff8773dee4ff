"""In-memory spans around the package's layer functions, recorded from outside.

The package imports layer functions by name (``from .stp_core import
stp_power``), so wrapping a function in its defining module alone would
miss most calls.  :class:`Tracer` instead rebinds every global of every
``hypereig`` module (and the package namespace) that refers to a traced
function, so each call site sees the wrapper, and restores the originals
on exit.  Spans nest on a stack; a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

#: (module, function) pairs traced, one entry per layer boundary.
LAYER_FUNCTIONS = (
    ("stp_core", "stp_power"),
    ("hypervector", "compose"),
    ("hypervector", "monic_decompose"),
    ("hypervector", "xi_matrix"),
    ("pencil_eigen", "generic_rank"),
    ("pencil_eigen", "essential_eigenvalues_real"),
    ("pencil_eigen", "kernel_basis"),
    ("u_eigen", "d_solve"),
    ("u_eigen", "u_solve"),
    ("u_eigen", "iterate_least_squares"),
    ("hypermatrix", "hmx_from_dict"),
    ("hypermatrix", "flatten"),
    ("cli", "main"),
)

FIT_WARNING = "Gram-determinant fit"


@dataclass
class _Open:
    name: str
    start: float
    child_s: float = 0.0


@dataclass
class Tracer:
    """Collects per-function call counts, self time and result counters."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    counters: dict = field(default_factory=lambda: defaultdict(float))
    top_level_s: float = 0.0
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _observe(self, name: str, result) -> None:
        c = self.counters
        if name == "stp_core.stp_power":
            c["stp_core.stp_power.out_bytes"] += 8 * result.size
        elif name == "hypervector.monic_decompose":
            c["hypervector.monic_decompose.accepted"] += result is not None
        elif name == "pencil_eigen.essential_eigenvalues_real":
            c["pencil_eigen.essential_eigenvalues_real.found"] += len(result)
        elif name == "pencil_eigen.kernel_basis":
            c["pencil_eigen.kernel_basis.nonempty"] += bool(result)
        elif name in ("u_eigen.d_solve", "u_eigen.u_solve"):
            c["u_eigen.witnesses"] += len(result)

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = _Open(name, clock())
            stack.append(frame)
            try:
                if name == "pencil_eigen.essential_eigenvalues_real":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    self.counters["pencil_eigen.fit_warnings"] += sum(
                        FIT_WARNING in str(w.message) for w in caught)
                else:
                    result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame.start
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed
                else:
                    self.top_level_s += elapsed
            self._observe(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "hypereig" or k.startswith("hypereig."))]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"hypereig.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name: (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for mod_name, fn_name in LAYER_FUNCTIONS:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        c = self.counters
        out["stp_core.stp_power.out_bytes"] = (c["stp_core.stp_power.out_bytes"], "bytes")
        out["hypervector.monic_decompose.accept_ratio"] = (
            _ratio(c["hypervector.monic_decompose.accepted"],
                   self.calls["hypervector.monic_decompose"]), "fraction")
        out["pencil_eigen.essential_eigenvalues_real.found"] = (
            c["pencil_eigen.essential_eigenvalues_real.found"], "count")
        out["pencil_eigen.kernel_basis.nonempty_ratio"] = (
            _ratio(c["pencil_eigen.kernel_basis.nonempty"],
                   self.calls["pencil_eigen.kernel_basis"]), "fraction")
        out["pencil_eigen.fit_warnings"] = (c["pencil_eigen.fit_warnings"], "count")
        out["u_eigen.witnesses"] = (c["u_eigen.witnesses"], "count")
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
