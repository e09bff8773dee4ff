"""Command-line front end.

Commands expose the algebra primitives (``stp``, ``kron``, ``flatten``,
``contract``, ``decompose``), pencil analysis (``pencil``), and the
eigen-solvers (``solve``, ``iterate``).  Matrix and vector files use the same
JSON syntax as hypermatrix files, with order 2 / order 1.

Output is ``text`` (floats rounded to 4 decimals) or ``structured`` (a single
JSON object with full-precision floats; byte-identical for identical inputs
and seed).  Exit codes: 0 success (including empty results), 2 input error,
3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from collections.abc import Sequence

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
from .hypervector import monic_decompose
from .pencil_eigen import (
    DegeneratePencilError,
    EigenClass,
    Pencil,
    essential_eigenvalues_real,
    generic_rank,
    solution_at,
)
from .stp_core import stp
from .u_eigen import (
    IterationBreakdown,
    IterationState,
    iterate_least_squares,
    options_from_dict,
    problem_from_dict,
    solve,
)

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Effective run settings: output path, tolerances, probes, output format."""

    output: str | None = None
    rank_tol: float | None = None
    residual_tol: float | None = None
    recon_tol: float | None = None
    quasi_probes: int | None = None
    seed: int = 42
    eps: float | None = None
    max_iter: int | None = None
    fmt: str = "text"

    def __post_init__(self) -> None:
        for name in ("rank_tol", "residual_tol", "recon_tol", "eps"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"--{name.replace('_', '-')} must be positive")
        if self.fmt not in ("text", "structured"):
            raise ValueError(f"unknown format {self.fmt!r}")


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


def _load_matrix(path: str) -> np.ndarray:
    h = _load_hmx(path)
    if h.order not in (1, 2):
        raise ValueError(f"{path}: expected order 1 or 2, got order {h.order}")
    return h.to_array()


def _load_vector(path: str) -> np.ndarray:
    h = _load_hmx(path)
    if h.order != 1:
        raise ValueError(f"{path}: expected an order-1 vector, got order {h.order}")
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
    if isinstance(obj, EigenClass):
        return obj.value
    return obj


def _fnum(v: float) -> str:
    s = f"{float(v):.4f}"
    return "0.0000" if s == "-0.0000" else s


def _fvec(v: Sequence[float]) -> str:
    return "(" + ", ".join(_fnum(x) for x in np.asarray(v).ravel()) + ")"


def _matrix_lines(m: np.ndarray) -> list[str]:
    m = np.atleast_2d(m)
    return ["  [" + "  ".join(_fnum(v) for v in row) + "]" for row in m]


def _emit(report: dict, text_lines: list[str], cfg: RunConfig) -> None:
    if cfg.fmt == "structured":
        rendered = json.dumps(_jsonify(report), indent=2, sort_keys=True) + "\n"
    else:
        rendered = "\n".join(text_lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _matrix_report(command: str, result: np.ndarray) -> tuple[dict, list[str]]:
    h = Hypermatrix.from_array(np.asarray(result, dtype=float))
    report = {"command": command, "result": hmx_to_dict(h)}
    if h.order <= 1:
        lines = [_fvec(h.to_array())]
    else:
        lines = _matrix_lines(h.to_array())
    return report, lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_stp(args: argparse.Namespace, cfg: RunConfig) -> tuple[dict, list[str]]:
    a, b = _load_matrix(args.a), _load_matrix(args.b)
    return _matrix_report("stp", stp(a, b))


def _cmd_kron(args: argparse.Namespace, cfg: RunConfig) -> tuple[dict, list[str]]:
    a, b = _load_matrix(args.a), _load_matrix(args.b)
    return _matrix_report("kron", np.kron(np.atleast_2d(a), np.atleast_2d(b)))


def _cmd_flatten(args: argparse.Namespace, cfg: RunConfig) -> tuple[dict, list[str]]:
    h = _load_hmx(args.hmx)
    rows = _parse_index_list(args.rows, "rows")
    cols = _parse_index_list(args.cols, "cols") if args.cols is not None else None
    if cols is None:
        cols = tuple(i for i in range(1, h.order + 1) if i not in rows)
    part = IndexPartition(rows=rows, cols=cols)
    return _matrix_report("flatten", flatten(h, part))


def _cmd_contract(args: argparse.Namespace, cfg: RunConfig) -> tuple[dict, list[str]]:
    a, b = _load_hmx(args.a), _load_hmx(args.b)
    shared = _parse_pairs(args.shared)
    result = contract(a, b, shared)
    report = {"command": "contract", "result": hmx_to_dict(result)}
    arr = result.to_array()
    if result.order == 0:
        lines = [_fnum(float(arr))]
    elif result.order == 1:
        lines = [_fvec(arr)]
    elif result.order == 2:
        lines = _matrix_lines(arr)
    else:
        lines = [f"order-{result.order} result, dims {list(result.dims)}:"]
        lines.append("  " + " ".join(_fnum(v) for v in arr.ravel()))
    return report, lines


def _cmd_decompose(args: argparse.Namespace, cfg: RunConfig) -> tuple[dict, list[str]]:
    x = _load_vector(args.vector)
    dims = _parse_index_list(args.dims, "dims")
    if not dims:
        raise ValueError("--dims must list at least one factor dimension")
    recon_tol = cfg.recon_tol if cfg.recon_tol is not None else 1e-8
    d = monic_decompose(x, dims, recon_tol=recon_tol)
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


def _pencil_evaluation(
    pencil: Pencil, lam: float, rg: int, rank_tol: float | None
) -> dict:
    sol = solution_at(pencil, lam, rg=rg, rank_tol=rank_tol)
    kernel = list(sol.kernel) if sol is not None else []
    return {
        "lambda": lam,
        "class": sol.eigen_class.value if sol is not None else None,
        "kernel_dim": len(kernel),
        "kernel": kernel,
        "residual": sol.residual if sol is not None else 0.0,
    }


def _cmd_pencil(args: argparse.Namespace, cfg: RunConfig) -> tuple[dict, list[str]]:
    a, b = np.atleast_2d(_load_matrix(args.a)), np.atleast_2d(_load_matrix(args.b))
    pencil = Pencil(a, b)
    rg = generic_rank(pencil, seed=cfg.seed, rank_tol=cfg.rank_tol)
    essential = essential_eigenvalues_real(
        pencil, rank_tol=cfg.rank_tol, seed=cfg.seed
    )
    at = [float(v) for v in args.at] if args.at else list(essential)
    evals = [_pencil_evaluation(pencil, lam, rg, cfg.rank_tol) for lam in at]
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


def _iteration_dict(states: list[IterationState]) -> list[dict]:
    return [
        {
            "k": s.k,
            "lambda": s.lam,
            "residual": s.residual,
            "x": s.x,
            "converged": s.converged,
        }
        for s in states
    ]


def _iteration_lines(states: list[IterationState], final: IterationState) -> list[str]:
    lines = ["   k      lambda    residual  x"]
    for s in states:
        lines.append(f"{s.k:4d}  {s.lam:10.4f}  {s.residual:10.4f}  {_fvec(s.x)}")
    status = "converged" if final.converged else "not converged"
    lines.append(
        f"{status} at k={final.k}: lambda={_fnum(final.lam)} "
        f"residual={_fnum(final.residual)} x={_fvec(final.x)}"
    )
    return lines


def _solve_options(problem_dict: dict, cfg: RunConfig):
    return options_from_dict(
        problem_dict.get("options"),
        seed=cfg.seed,
        rank_tol=cfg.rank_tol,
        residual_tol=cfg.residual_tol,
        recon_tol=cfg.recon_tol,
        quasi_probes=cfg.quasi_probes,
        eps=cfg.eps,
        max_iter=cfg.max_iter,
    )


def _cmd_solve(args: argparse.Namespace, cfg: RunConfig) -> tuple[dict, list[str]]:
    pd = _load_json(args.problem)
    prob = problem_from_dict(pd)
    opts = _solve_options(pd, cfg)
    if args.iterate and not args.x0:
        raise ValueError("--iterate requires --x0 with a start vector")
    result = solve(prob, opts)
    witnesses = result.witnesses
    sections = [
        {
            "case": list(facts.case),
            "generic_rank": facts.generic_rank,
            "essential": [
                _pencil_evaluation(facts.pencil, lam, facts.generic_rank, opts.rank_tol)
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
        x0 = _parse_float_list(args.x0, "x0")
        history: list[IterationState] = []
        final = iterate_least_squares(
            prob, x0, eps=opts.eps, max_iter=opts.max_iter, history=history
        )
        report["iteration"] = {
            "trace": _iteration_dict(history),
            "final": _iteration_dict([final])[0],
        }
        lines.append("iteration:")
        lines.extend(_iteration_lines(history, final))
    return report, lines


def _cmd_iterate(args: argparse.Namespace, cfg: RunConfig) -> tuple[dict, list[str]]:
    pd = _load_json(args.problem)
    prob = problem_from_dict(pd)
    opts = _solve_options(pd, cfg)
    x0 = _parse_float_list(args.x0, "x0")
    history: list[IterationState] = []
    final = iterate_least_squares(
        prob, x0, eps=opts.eps, max_iter=opts.max_iter, history=history
    )
    report = {
        "command": "iterate",
        "trace": _iteration_dict(history),
        "final": _iteration_dict([final])[0],
    }
    return report, _iteration_lines(history, final)


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=42)
    shared.add_argument("--rank-tol", type=float, default=None)
    shared.add_argument("--residual-tol", type=float, default=None)
    shared.add_argument("--recon-tol", type=float, default=None)
    shared.add_argument("--quasi-probes", type=int, default=None)
    shared.add_argument("--eps", type=float, default=None)
    shared.add_argument("--max-iter", type=int, default=None)
    shared.add_argument(
        "--format", choices=("text", "structured"), default="text", dest="fmt"
    )
    shared.add_argument("--output", default=None)

    parser = argparse.ArgumentParser(
        prog="hypereig",
        description="Eigenvalues of equilateral hypermatrices via matrix pencils.",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stp", parents=[shared], help="semi-tensor product of two matrices")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_stp)

    p = sub.add_parser("kron", parents=[shared], help="Kronecker product of two matrices")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_kron)

    p = sub.add_parser("flatten", parents=[shared], help="matrix form of a hypermatrix")
    p.add_argument("hmx")
    p.add_argument("--rows", default="", help="comma-separated 1-based row indices")
    p.add_argument(
        "--cols",
        default=None,
        help="comma-separated 1-based column indices (default: the rest)",
    )
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser("contract", parents=[shared], help="contraction product")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--shared",
        required=True,
        help="shared index pairs A:B, comma separated (e.g. 2:1,3:2)",
    )
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("decompose", parents=[shared], help="monic decomposition of a vector")
    p.add_argument("vector")
    p.add_argument("--dims", required=True, help="factor dimensions, comma separated")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "pencil",
        parents=[shared],
        help="generic rank, essential eigenvalues, kernels of a pencil",
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
    p.set_defaults(func=_cmd_pencil)

    p = sub.add_parser("solve", parents=[shared], help="solve an eigenproblem file")
    p.add_argument("problem")
    p.add_argument("--iterate", action="store_true")
    p.add_argument("--x0", default=None, help="start vector, comma separated")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("iterate", parents=[shared], help="least-squares iteration only")
    p.add_argument("problem")
    p.add_argument("--x0", required=True, help="start vector, comma separated")
    p.set_defaults(func=_cmd_iterate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = RunConfig(
            output=args.output,
            rank_tol=args.rank_tol,
            residual_tol=args.residual_tol,
            recon_tol=args.recon_tol,
            quasi_probes=args.quasi_probes,
            seed=args.seed,
            eps=args.eps,
            max_iter=args.max_iter,
            fmt=args.fmt,
        )
        report, lines = args.func(args, cfg)
    except (OSError, ValueError) as exc:  # includes format/parse/shape errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IterationBreakdown, DegeneratePencilError, np.linalg.LinAlgError) as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return 3
    _emit(report, lines, cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
