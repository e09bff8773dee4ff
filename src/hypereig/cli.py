"""Command-line front end.

Commands expose the algebra primitives (``stp``, ``kron``, ``flatten``,
``contract``, ``decompose``), pencil analysis (``pencil``), and the
eigen-solvers (``solve``, ``iterate``).  Matrix and vector files use the same
JSON syntax as hypermatrix files, with order 2 / order 1.

Every command takes ``--format`` and ``--output``; a command takes a seed or
tolerance flag only if it reads it, and the flags of ``solve`` and
``iterate`` override the ``SolveOptions`` field of the same name.  Output is
``text`` (floats to 4 decimals, or ``.4e`` for a nonzero one that would print
as 0 or is at least 1e6) or ``structured`` (one JSON object with full-precision
floats; byte-identical for identical inputs and seed).  Exit codes: 0 success
(including empty results), 2 input error, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Callable, Sequence

import numpy as np

from .hypermatrix import (
    FormatError,
    Hypermatrix,
    IndexPartition,
    contract,
    flatten,
    hmx_from_dict,
    hmx_to_dict,
)
from .hypervector import DEFAULT_RECON_TOL, monic_decompose
from .pencil_eigen import (
    DegeneratePencilError,
    Pencil,
    essential_eigenvalues_real,
    generic_rank,
    solution_at,
)
from .stp_core import kron, stp
from .u_eigen import (
    IterationBreakdown,
    IterationState,
    SolveOptions,
    _check_tolerance,
    iterate_least_squares,
    options_from_dict,
    problem_from_dict,
    solve,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _load_hmx(path: str) -> Hypermatrix:
    try:
        return hmx_from_dict(_load_json(path))
    except FormatError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_array(path: str, *orders: int) -> np.ndarray:
    """The array of a hypermatrix file whose order is one of ``orders``."""
    h = _load_hmx(path)
    if h.order not in orders:
        expected = " or ".join(str(o) for o in orders)
        raise ValueError(f"{path}: expected order {expected}, got order {h.order}")
    return h.to_array()


def _parse_index_list(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad {what} list {text!r}: {exc}") from exc


def _parse_float_list(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"bad {what} list {text!r}: {exc}") from exc


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for tok in text.split(","):
        left, sep, right = tok.partition(":")
        if not sep:
            raise ValueError(f"bad index pair {tok!r}: expected A:B")
        pairs.append((int(left), int(right)))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    return obj


def _fnum(v: float) -> str:
    """``v`` to 4 decimals, or ``.4e`` if it is nonzero and would print as 0 or is ≥ 1e6."""
    s = f"{float(v):.4f}"
    if v and (abs(v) >= 1e6 or float(s) == 0.0):
        return f"{float(v):.4e}"
    return "0.0000" if s == "-0.0000" else s


def _fvec(v: Sequence[float]) -> str:
    return "(" + ", ".join(_fnum(x) for x in np.asarray(v).ravel()) + ")"


def _emit(report: dict, text_lines: list[str], args: argparse.Namespace) -> None:
    if args.fmt == "structured":
        rendered = json.dumps(_jsonify(report), indent=2, sort_keys=True) + "\n"
    else:
        rendered = "\n".join(text_lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _hmx_report(command: str, result: Hypermatrix) -> tuple[dict, list[str]]:
    report = {"command": command, "result": hmx_to_dict(result)}
    arr = result.to_array()
    if result.order == 0:
        lines = [_fnum(float(arr))]
    elif result.order == 1:
        lines = [_fvec(arr)]
    elif result.order == 2:
        lines = ["  [" + "  ".join(_fnum(v) for v in row) + "]" for row in arr]
    else:
        lines = [f"order-{result.order} result, dims {list(result.dims)}:"]
        lines.append("  " + " ".join(_fnum(v) for v in arr.ravel()))
    return report, lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


#: Flags that override a ``SolveOptions`` field of the same name.  A command
#: declares only those it reads, and ``_options`` passes them on.
_OPTION_FLAGS = {
    "seed": {"type": int, "help": "default: the problem's options.seed, else 42"},
    "residual_tol": {"type": float},
    "eps": {"type": float},
    "max_iter": {"type": int},
}


def _options(args: argparse.Namespace, file_options: dict | None) -> SolveOptions:
    """The problem file's options overridden by the option flags the command declares."""
    flags = {name: getattr(args, name) for name in _OPTION_FLAGS if hasattr(args, name)}
    return options_from_dict(file_options, **flags)


def _product_report(
    command: str, product: Callable[..., np.ndarray | Hypermatrix], *operands
) -> tuple[dict, list[str]]:
    """Report ``product(*operands)``; a result that overflows to inf or NaN is an input error."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = product(*operands)
    if not isinstance(result, Hypermatrix):
        result = Hypermatrix.from_array(result)
    if not np.all(np.isfinite(result.data)):
        raise ValueError(f"the {command} result overflows: the inputs are too large")
    return _hmx_report(command, result)


def _cmd_stp(args: argparse.Namespace) -> tuple[dict, list[str]]:
    a, b = _load_array(args.a, 1, 2), _load_array(args.b, 1, 2)
    return _product_report("stp", stp, a, b)


def _cmd_kron(args: argparse.Namespace) -> tuple[dict, list[str]]:
    a, b = _load_array(args.a, 1, 2), _load_array(args.b, 1, 2)
    return _product_report("kron", kron, np.atleast_2d(a), np.atleast_2d(b))


def _cmd_flatten(args: argparse.Namespace) -> tuple[dict, list[str]]:
    h = _load_hmx(args.hmx)
    rows = _parse_index_list(args.rows, "rows")
    cols = _parse_index_list(args.cols, "cols") if args.cols is not None else None
    if cols is None:
        cols = tuple(i for i in range(1, h.order + 1) if i not in rows)
    part = IndexPartition(rows=rows, cols=cols)
    return _hmx_report("flatten", Hypermatrix.from_array(flatten(h, part)))


def _cmd_contract(args: argparse.Namespace) -> tuple[dict, list[str]]:
    a, b = _load_hmx(args.a), _load_hmx(args.b)
    return _product_report("contract", contract, a, b, _parse_pairs(args.shared))


def _cmd_decompose(args: argparse.Namespace) -> tuple[dict, list[str]]:
    _check_tolerance("recon_tol", args.recon_tol)
    x = _load_array(args.vector, 1)
    dims = _parse_index_list(args.dims, "dims")
    if not dims:
        raise ValueError("--dims must list at least one factor dimension")
    d = monic_decompose(x, dims, recon_tol=args.recon_tol)
    if d is None:
        report = {"command": "decompose", "decomposable": False}
        return report, ["NOT_DECOMPOSABLE"]
    report = {
        "command": "decompose",
        "decomposable": True,
        "e": d.e,
        "c0": d.c0,
        "components": [c for c in d.components],
    }
    lines = [f"decomposable: e={d.e} c0={_fnum(d.c0)}"]
    lines.extend(
        f"component {i}: {_fvec(c)}" for i, c in enumerate(d.components, start=1)
    )
    return report, lines


def _pencil_evaluation(pencil: Pencil, lam: float, rg: int) -> dict:
    sol = solution_at(pencil, lam, rg=rg)
    kernel = list(sol.kernel) if sol is not None else []
    return {
        "lambda": lam,
        "class": sol.eigen_class.value if sol is not None else None,
        "kernel_dim": len(kernel),
        "kernel": kernel,
        "residual": sol.residual if sol is not None else 0.0,
    }


def _cmd_pencil(args: argparse.Namespace) -> tuple[dict, list[str]]:
    for lam in args.at or ():
        if not math.isfinite(lam):
            raise ValueError(f"--at {lam} is not a finite eigenvalue")
    a = np.atleast_2d(_load_array(args.a, 1, 2))
    b = np.atleast_2d(_load_array(args.b, 1, 2))
    pencil = Pencil(a, b)
    rg = generic_rank(pencil)
    essential = essential_eigenvalues_real(pencil, rg=rg)
    at = [float(v) for v in args.at] if args.at else list(essential)
    evals = [_pencil_evaluation(pencil, lam, rg) for lam in at]
    report = {
        "command": "pencil",
        "shape": list(pencil.shape),
        "generic_rank": rg,
        "essential": list(essential),
        "evaluations": evals,
    }
    lines = [
        f"pencil {pencil.shape[0]}x{pencil.shape[1]}: generic rank {rg}",
        "essential eigenvalues: "
        + (", ".join(_fnum(v) for v in essential) if essential else "(none)"),
    ]
    for ev in evals:
        cls = ev["class"] if ev["class"] is not None else "none"
        lines.append(
            f"lambda={_fnum(ev['lambda'])} class={cls} kernel dim {ev['kernel_dim']}"
        )
        lines.extend(f"  {_fvec(v)}" for v in ev["kernel"])
    return report, lines


def _witness_dict(w) -> dict:
    return {
        "case": list(w.case),
        "lambda": w.lam,
        "e": w.decomposition.e,
        "c0": w.decomposition.c0,
        "components": [c for c in w.decomposition.components],
        "diagonal": w.diagonal,
        "residual": w.residual,
        "family": w.family,
        "xi": w.xi,
    }


def _witness_line(w) -> str:
    case = "(" + ",".join(str(c) for c in w.case) + ")"
    if w.diagonal:
        vec = f"z={_fvec(w.decomposition.components[0])}"
    else:
        vec = "components: " + " ".join(_fvec(c) for c in w.decomposition.components)
    line = (
        f"  case={case} lambda={_fnum(w.lam)} residual={_fnum(w.residual)} "
        f"{'diagonal ' if w.diagonal else ''}{vec}"
    )
    if w.family:
        line += f"  [family: {w.family}]"
    return line


def _state_dict(s: IterationState) -> dict:
    return {
        "k": s.k,
        "lambda": s.lam,
        "residual": s.residual,
        "x": s.x,
        "converged": s.converged,
    }


def _start_vector(text: str, n: int) -> np.ndarray:
    """The ``--x0`` start vector, which must have ``n`` entries."""
    x0 = _parse_float_list(text, "x0")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"bad x0 list {text!r}: entries must be finite")
    if x0.size != n:
        raise ValueError(f"start vector has length {x0.size}, expected n = {n}")
    return x0


def _iteration(prob, x0: np.ndarray, opts: SolveOptions) -> tuple[dict, list[str]]:
    """Run the least-squares iteration from ``x0``: its trace and final state."""
    history: list[IterationState] = []
    final = iterate_least_squares(
        prob, x0, eps=opts.eps, max_iter=opts.max_iter, history=history
    )
    report = {"trace": [_state_dict(s) for s in history], "final": _state_dict(final)}
    lines = ["   k      lambda    residual  x"]
    lines.extend(
        f"{s.k:4d}  {s.lam:10.4f}  {s.residual:10.4f}  {_fvec(s.x)}" for s in history
    )
    status = "converged" if final.converged else "not converged"
    lines.append(
        f"{status} at k={final.k}: lambda={_fnum(final.lam)} "
        f"residual={_fnum(final.residual)} x={_fvec(final.x)}"
    )
    return report, lines


def _cmd_solve(args: argparse.Namespace) -> tuple[dict, list[str]]:
    pd = _load_json(args.problem)
    prob = problem_from_dict(pd)
    opts = _options(args, pd.get("options"))
    if args.iterate:
        if not args.x0:
            raise ValueError("--iterate requires --x0 with a start vector")
        x0 = _start_vector(args.x0, prob.n)
    result = solve(prob, opts)
    witnesses = result.witnesses
    sections = [
        {
            "case": list(facts.case),
            "generic_rank": facts.generic_rank,
            "essential": [
                _pencil_evaluation(facts.pencil, lam, facts.generic_rank)
                for lam in facts.essential
            ],
        }
        for facts in result.cases
    ]
    report = {
        "command": "solve",
        "mode": prob.mode,
        "n": prob.n,
        "lhs_power": prob.lhs_power,
        "rhs_power": prob.type_map.input_power,
        "cases": sections,
        "witnesses": [_witness_dict(w) for w in witnesses],
    }
    lines = [
        f"mode {prob.mode}  n={prob.n}  lhs power {prob.lhs_power}  "
        f"rhs power {prob.type_map.input_power}"
    ]
    for sec in sections:
        case = "(" + ",".join(str(c) for c in sec["case"]) + ")"
        ess = (
            ", ".join(_fnum(e["lambda"]) for e in sec["essential"])
            if sec["essential"]
            else "(none)"
        )
        lines.append(
            f"case {case}: generic rank {sec['generic_rank']}, essential: {ess}"
        )
    lines.append(f"witnesses ({len(witnesses)}):")
    lines.extend(_witness_line(w) for w in witnesses)
    if args.iterate:
        report["iteration"], iteration_lines = _iteration(prob, x0, opts)
        lines.append("iteration:")
        lines.extend(iteration_lines)
    return report, lines


def _cmd_iterate(args: argparse.Namespace) -> tuple[dict, list[str]]:
    pd = _load_json(args.problem)
    prob = problem_from_dict(pd)
    opts = _options(args, pd.get("options"))
    report, lines = _iteration(prob, _start_vector(args.x0, prob.n), opts)
    return {"command": "iterate", **report}, lines


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``main`` may run many times in one interpreter (the benchmark and the
    tests call it in-process).  Parsing does not change the parser, and a
    parser is a cyclic object graph that only the cycle collector frees, so
    one per call would cost time and leave garbage behind.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "structured"), default="text", dest="fmt"
    )
    common.add_argument("--output", default=None)

    parser = argparse.ArgumentParser(
        prog="hypereig",
        description="Eigenvalues of equilateral hypermatrices via matrix pencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, options=()):
        p = sub.add_parser(name, parents=[common], help=summary)
        for option in options:
            p.add_argument("--" + option.replace("_", "-"), **_OPTION_FLAGS[option])
        p.set_defaults(func=func)
        return p

    p = command("stp", _cmd_stp, "semi-tensor product of two matrices")
    p.add_argument("a")
    p.add_argument("b")

    p = command("kron", _cmd_kron, "Kronecker product of two matrices")
    p.add_argument("a")
    p.add_argument("b")

    p = command("flatten", _cmd_flatten, "matrix form of a hypermatrix")
    p.add_argument("hmx")
    p.add_argument("--rows", default="", help="comma-separated 1-based row indices")
    p.add_argument(
        "--cols",
        default=None,
        help="comma-separated 1-based column indices (default: the rest)",
    )

    p = command("contract", _cmd_contract, "contraction product")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--shared",
        required=True,
        help="shared index pairs A:B, comma separated (e.g. 2:1,3:2)",
    )

    p = command("decompose", _cmd_decompose, "monic decomposition of a vector")
    p.add_argument("vector")
    p.add_argument("--dims", required=True, help="factor dimensions, comma separated")
    p.add_argument("--recon-tol", type=float, default=DEFAULT_RECON_TOL)

    p = command(
        "pencil", _cmd_pencil, "generic rank, essential eigenvalues, kernels of a pencil"
    )
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--at",
        type=float,
        action="append",
        default=None,
        help="evaluate the kernel at this eigenvalue (repeatable)",
    )

    p = command("solve", _cmd_solve, "solve an eigenproblem file", list(_OPTION_FLAGS))
    p.add_argument("problem")
    p.add_argument("--iterate", action="store_true")
    p.add_argument("--x0", default=None, help="start vector, comma separated")

    p = command(
        "iterate", _cmd_iterate, "least-squares iteration only", ["eps", "max_iter"]
    )
    p.add_argument("problem")
    p.add_argument("--x0", required=True, help="start vector, comma separated")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        report, lines = args.func(args)
        _emit(report, lines, args)
    except (OSError, ValueError) as exc:  # includes format/parse/shape errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IterationBreakdown, DegeneratePencilError, np.linalg.LinAlgError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
