"""hypereig benchmark: CLI solves, U-mode continua and planted pencils.

Usage (from the repository root):

    python3 bench/run.py --workload d_cli --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``d_cli`` — D-mode ``hypereig solve --format structured`` through
  ``hypereig.cli.main`` on seeded random n = 2 problems (p, r ∈ {1, 2, 3},
  explicit random types) plus the five shipped D examples;
* ``u_continua`` — U-mode solves through the same CLI path: ``ex_6_3_2``,
  seeded sparse integer markov problems and seeded dense explicit problems;
* ``pencil_planted`` — ``generic_rank`` + ``essential_eigenvalues_real`` +
  ``kernel_basis`` at each eigenvalue found, on seeded wide pencils with
  planted real essential eigenvalues.

One process, one closed-loop client: each operation starts when the previous
one returns.  A pass runs every operation of the workload once; passes repeat
while the next one is expected to end within ``--seconds`` (at least one
pass).  Recall and precision come from the first pass, so they repeat exactly
at a fixed seed.  Every output is checked after the measured phase.

Timings are scaled to a reference machine speed measured between operations
(see ``gauge.py``); the raw wall times are reported beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an untraced
pass, a traced pass and another untraced pass, and prints the per-layer
metrics (raw times) with the tracing overhead (traced minus the mean
untraced pass, both scaled).  The last stdout line is the result object; the
line before it holds the environment and the details (percentile used, raw
timings, failures, spurious solutions with their inputs, digests of the
shipped examples' output).
"""

import os

# Pin BLAS to one thread before NumPy loads; the setting is reported per run.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gauge  # noqa: E402
import oracle  # noqa: E402
import problems as gen  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("d_cli", "u_continua", "pencil_planted")
ITERATE_ARGS = ["--iterate", "--x0", "0.5915,-0.7467,-0.3043"]
SHIPPED_D = (("ex_5_2_3", []), ("ex_6_3_1", []), ("ex_7_1i", []),
             ("ex_7_1ii", []), ("ex_7_101", ITERATE_ARGS))
SHIPPED_U = (("ex_6_3_2", []),)
SETUP_REPEATS = 7
GAUGE_EVERY_S = 0.5  # longest stretch of operations between two speed samples

# Pencils per pass as (k planted eigenvalues, L_ε block sizes): wide shapes
# from 3×4 to 14×17; the finder recovers planted values only on the smallest.
PENCIL_SHAPES = ((2, (1,)), (3, (1,)), (4, (1,)), (3, (1, 1)), (5, (1, 2)),
                 (8, (1, 1)), (6, (2, 3)), (9, (1, 1, 1)), (11, (1, 1, 1)), (8, (2, 2, 2)))
PENCILS_PER_SHAPE = 60

SETUP_CODE = r"""
import json, sys, time
src, kind, inputs = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)
if kind == "pencil":
    with open(inputs[0], encoding="utf-8") as fh:
        arrays = json.load(fh)
t0 = time.perf_counter()
import hypereig
if kind == "pencil":
    import numpy as np
    for a, b in arrays:
        hypereig.Pencil(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
else:
    for path in inputs:
        with open(path, encoding="utf-8") as fh:
            hypereig.problem_from_dict(json.load(fh))
elapsed = time.perf_counter() - t0
if not hypereig.__file__.startswith(src):
    sys.exit("hypereig was not imported from " + src)
print(elapsed)
"""


@dataclass
class Op:
    """One operation of a pass: a CLI solve or a pencil analysis, with what checks it."""

    name: str
    argv: list | None = None          # CLI operation
    problem: dict | None = None       # problem file content, for the independent check
    pencil: object = None             # pencil operation: hypereig.Pencil
    planted: np.ndarray | None = None
    oracle: list | None = None        # exact solutions when an oracle applies
    reference: dict | None = None     # reference output of a shipped example


@dataclass
class Outcome:
    seconds: float                    # raw wall time
    result: object = None             # stdout text, or (rank, eigenvalues, kernels)
    error: str | None = None
    speed: float = 1.0                # gauge factor; seconds * speed is reference time

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.speed


@dataclass
class Tally:
    """Correctness bookkeeping over one workload run."""

    attempted: int = 0
    failed: int = 0                   # operations with at least one failure
    failures: list = field(default_factory=list)
    found: int = 0                    # recall = found / total
    total: int = 0
    matched: int = 0                  # precision = matched / reported
    reported: int = 0
    spurious: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    no_oracle: list = field(default_factory=list)
    diagonal: list = field(default_factory=lambda: [0, 0])  # U coverage [found, total]


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------


def _write(work: Path, name: str, prob: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(prob), encoding="utf-8")
    return str(path)


def _cli_op(name: str, path: str, prob: dict, extra: list, reference: dict | None) -> Op:
    op = Op(name=name, argv=["solve", path, "--format", "structured", *extra],
            problem=prob, reference=reference)
    td = prob["type"]
    if td.get("n") == 2 and td.get("s", 1) == 1 and len(td.get("explicit", [0])) == 1:
        try:
            op.oracle = oracle.d_oracle(oracle.problem_from_file(prob))
        except ValueError:
            op.oracle = None  # a continuum of diagonal eigenvectors: no finite oracle
    return op


def _interleave(generated: list, shipped: list) -> list:
    """Spread the shipped examples evenly through the generated operations."""
    out, step = [], max(1, len(generated) // max(1, len(shipped)))
    for i, op in enumerate(generated):
        if i % step == 0 and shipped:
            out.append(shipped.pop(0))
        out.append(op)
    return out + shipped


def _shipped_ops(names, references: dict) -> list:
    ops = []
    for name, extra in names:
        path = PROBLEMS / f"{name}.json"
        prob = json.loads(path.read_text(encoding="utf-8"))
        ops.append(_cli_op(name, str(path), prob, extra, references[name]))
    return ops


def build_d_cli(rng, work: Path, references: dict) -> list:
    generated = []
    for i in range(6):
        for p in (1, 2, 3):
            for r in (1, 2, 3):
                name = f"d{i}_p{p}_r{r}"
                prob = gen.random_d_problem(rng, p, r)
                generated.append(_cli_op(name, _write(work, name, prob), prob, [], None))
    return _interleave(generated, _shipped_ops(SHIPPED_D, references))


def build_u_continua(rng, work: Path, references: dict) -> list:
    generated = []
    # ex_6_3_2 and one seeded markov problem (continua with families, 170-390
    # witnesses), three dense r = 3 problems (about 140 witnesses) and 18 dense
    # r = 2 problems (about 30).  The continua take about 40% of a pass; the
    # many small solves put the median and the tail inside one group, so they
    # vary little between seeds.  The markov draw, whose solve time varies most
    # between seeds, is one operation of 23.
    kinds = ("markov",) + (("dense3",) + ("dense2",) * 6) * 3
    for i, kind in enumerate(kinds):
        name = f"u{i}_{kind}"
        if kind == "markov":
            prob = gen.random_markov_u_problem(rng)
        else:
            prob = gen.random_dense_u_problem(rng, int(kind[-1]))
        generated.append(_cli_op(name, _write(work, name, prob), prob, [], None))
    return _interleave(generated, _shipped_ops(SHIPPED_U, references))


def build_pencil_planted(rng, work: Path, references: dict) -> list:
    import hypereig

    ops = []
    for i in range(PENCILS_PER_SHAPE):
        for k, eps in PENCIL_SHAPES:
            a, b, lams = gen.planted_pencil(rng, k, eps)
            gen.check_planted(a, b, lams)
            ops.append(Op(name=f"pencil{i}_{a.shape[0]}x{a.shape[1]}",
                          pencil=hypereig.Pencil(a, b), planted=lams))
    return ops


BUILDERS = {"d_cli": build_d_cli, "u_continua": build_u_continua,
            "pencil_planted": build_pencil_planted}


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


def run_op(op: Op) -> Outcome:
    cli = sys.modules["hypereig.cli"]
    pe = sys.modules["hypereig.pencil_eigen"]
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.argv)
        except Exception as exc:  # an exception is a failed operation, not a crash
            return Outcome(time.perf_counter() - t0, error=f"exception {exc!r}")
        elapsed = time.perf_counter() - t0
        if rc != 0:
            return Outcome(elapsed, error=f"exit code {rc}: {err.getvalue().strip()}")
        return Outcome(elapsed, result=out.getvalue())
    t0 = time.perf_counter()
    try:
        rank = pe.generic_rank(op.pencil)
        lams = pe.essential_eigenvalues_real(op.pencil)
        kernels = [pe.kernel_basis(op.pencil, lam) for lam in lams]
    except Exception as exc:
        return Outcome(time.perf_counter() - t0, error=f"exception {exc!r}")
    return Outcome(time.perf_counter() - t0, result=(rank, lams, kernels))


def run_pass(ops: list) -> list:
    """Every operation once, sampling the machine speed at least every GAUGE_EVERY_S."""
    results, segment = [], []
    # Objects the benchmark keeps (inputs, outcomes) leave the collector's
    # view, so they do not lengthen garbage collections inside operations.
    gc.freeze()
    before, start = gauge.sample(), time.perf_counter()
    for i, op in enumerate(ops):
        segment.append((op, run_op(op)))
        if time.perf_counter() - start >= GAUGE_EVERY_S or i == len(ops) - 1:
            after = gauge.sample()
            for _, out in segment:
                out.speed = gauge.factor(before, after)
            results.extend(segment)
            gc.freeze()
            segment, before, start = [], after, time.perf_counter()
    return results


def measure(ops: list, seconds: float) -> tuple[list, float]:
    """Whole passes while the next is expected to end within ``seconds``; at least one."""
    results, t0 = [], time.perf_counter()
    while True:
        p0 = time.perf_counter()
        results.extend(run_pass(ops))
        now = time.perf_counter()
        if (now - t0) + (now - p0) > seconds:
            return results, now - t0


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _norm_tag(tag):
    return None if tag is None else tag.replace("-0.", "0.")


def matched(ws: list, targets: list) -> list:
    """For each target witness, whether ``ws`` holds one with its case, family tag,
    λ and components (within the match tolerance)."""
    groups: dict = {}
    for w in ws:
        groups.setdefault((tuple(w["case"]), _norm_tag(w["family"])), []).append(w)
    arrays = {key: (np.array([w["lambda"] for w in g], dtype=float),
                    np.array([np.ravel(w["components"]) for w in g], dtype=float))
              for key, g in groups.items()}
    out = []
    for t in targets:
        key = (tuple(t["case"]), _norm_tag(t["family"]))
        if key not in arrays:
            out.append(False)
            continue
        lams, comps = arrays[key]
        lam, flat = float(t["lambda"]), np.ravel(t["components"])
        ok = np.abs(lams - lam) <= oracle.MATCH_TOL * max(1.0, abs(lam))
        if comps.shape[1] == flat.size:
            ok &= np.max(np.abs(comps - flat), axis=1) <= oracle.MATCH_TOL * max(
                1.0, float(np.max(np.abs(flat))))
        else:
            ok[:] = False
        out.append(bool(np.any(ok)))
    return out


def reference_mismatch(report: dict, ref: dict) -> str | None:
    """Why a shipped example's output differs from its reference, or None."""
    got, want = report["witnesses"], ref["witnesses"]
    if len(got) != len(want):
        return f"{len(got)} witnesses, reference has {len(want)}"
    for ws, others, label in ((want, got, "reference witness missing"),
                              (got, want, "witness not in reference")):
        for w, ok in zip(ws, matched(others, ws)):
            if not ok:
                return f"{label}: case {w['case']} lambda {w['lambda']}"
    if "iteration" in ref:
        final, want_final = report.get("iteration", {}).get("final"), ref["iteration"]
        if (final is None or final["converged"] != want_final["converged"]
                or not oracle.lam_close(final["lambda"], want_final["lambda"])
                or not oracle.close(final["x"], want_final["x"])):
            return "iteration final state differs from the reference"
    return None


def check_cli(op: Op, out: Outcome, tally: Tally, first: bool) -> None:
    report = json.loads(out.result)
    prob = oracle.problem_from_file(op.problem)
    ws = report["witnesses"]
    bad = [(w, why) for w in ws if (why := oracle.check_witness(prob, w)) is not None]
    if bad:
        tally.failures.append({"op": op.name, "reason": f"witness fails the check: {bad[0][1]}",
                               "input": op.problem})
    if op.reference is not None:
        why = reference_mismatch(report, op.reference)
        if why:
            tally.failures.append({"op": op.name, "reason": why, "input": op.problem})
        tally.digests[op.name] = hashlib.sha256(out.result.encode()).hexdigest()
    if not first:
        return
    wrong = [w for w, _ in bad]
    if op.oracle is None and op.problem["type"].get("n") == 2:
        tally.no_oracle.append(op.name)
    elif op.oracle is not None and prob.mode == "D":
        tally.total += len(op.oracle)
        tally.found += sum(any(oracle.d_witness_matches(s, w) for w in ws) for s in op.oracle)
        wrong = [w for w in ws if not any(oracle.d_witness_matches(s, w) for s in op.oracle)]
    elif op.oracle is not None:
        # Diagonal eigenvectors are points of U continua, which the solver
        # samples: their coverage is reported, not gated.
        tally.diagonal[0] += sum(oracle.u_covers(s, ws) for s in op.oracle)
        tally.diagonal[1] += len(op.oracle)
    if prob.mode == "U" and op.reference is not None:
        # U recall is over the shipped example's verified reference witness set.
        tally.total += len(op.reference["witnesses"])
        tally.found += sum(matched(ws, op.reference["witnesses"]))
    tally.reported += len(ws)
    tally.matched += len(ws) - len(wrong)
    tally.spurious.extend({"op": op.name, "witness": w, "input": op.problem} for w in wrong)


def check_pencil(op: Op, out: Outcome, tally: Tally, first: bool) -> None:
    rank, lams, kernels = out.result
    pen = op.pencil
    if rank != pen.shape[0]:
        tally.failures.append({"op": op.name, "reason": f"generic rank {rank} != {pen.shape[0]}",
                               "input": _pencil_input(op)})
    size = float(np.linalg.norm(pen.a)) + float(np.linalg.norm(pen.b))
    for lam, basis in zip(lams, kernels):
        resid = max((float(np.linalg.norm((pen.a - lam * pen.b) @ v)) for v in basis),
                    default=np.inf)
        if resid > 1e-8 * size * max(1.0, abs(lam)):
            tally.failures.append({"op": op.name, "reason": f"no kernel at lambda {lam}",
                                   "input": _pencil_input(op)})
    if not first:
        return
    tally.total += len(op.planted)
    tally.found += sum(any(oracle.lam_close(l, p) for l in lams) for p in op.planted)
    tally.reported += len(lams)
    for lam in lams:
        if any(oracle.lam_close(lam, p) for p in op.planted):
            tally.matched += 1
        else:
            tally.spurious.append({"op": op.name, "lambda": lam, "input": _pencil_input(op)})


def _pencil_input(op: Op) -> dict:
    return {"a": op.pencil.a.tolist(), "b": op.pencil.b.tolist(), "planted": op.planted.tolist()}


def check_all(results: list, n_ops: int, tally: Tally) -> None:
    seen = set()
    for i, (op, out) in enumerate(results):
        tally.attempted += 1
        before = len(tally.failures)
        if out.error is not None:
            tally.failures.append({"op": op.name, "reason": out.error,
                                   "input": op.problem if op.problem else _pencil_input(op)})
        else:
            (check_cli if op.argv is not None else check_pencil)(op, out, tally, i < n_ops)
        tally.failed += len(tally.failures) > before
        # A repeated pass repeats its failures: list each (operation, reason) once.
        new = [f for f in tally.failures[before:] if (f["op"], f["reason"]) not in seen]
        seen.update((f["op"], f["reason"]) for f in new)
        tally.failures[before:] = new


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_seconds(ops: list, work: Path) -> float:
    """Median over fresh interpreters of: import hypereig and parse every input once."""
    if ops[0].pencil is not None:
        path = work / "pencils.json"
        path.write_text(json.dumps([[op.pencil.a.tolist(), op.pencil.b.tolist()] for op in ops]))
        args = ["pencil", str(path)]
    else:
        args = ["problem", *(op.argv[1] for op in ops)]
    samples, before = [], gauge.sample()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *args],
                              capture_output=True, text=True, timeout=120, check=True,
                              cwd=str(ROOT), env=dict(os.environ))
        after = gauge.sample()
        samples.append(float(proc.stdout.strip().splitlines()[-1]) * gauge.factor(before, after))
        before = after
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(times: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples above it.

    With fewer than 11 samples no such percentile exists; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "client": "closed loop, 1 client, 1 process",
    }


def end_to_end(ops, results, elapsed, tally, setup_s) -> tuple[dict, dict]:
    times = [out.ref_seconds for _, out in results]
    raw = [out.seconds for _, out in results]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "fraction"),
        "recall": (tally.found / tally.total if tally.total else 0.0, "fraction"),
        "precision": (tally.matched / tally.reported if tally.reported else 1.0, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"samples": len(times), "passes": len(times) // len(ops),
               "tail_percentile": tail_pct, "measured_s": elapsed,
               "raw_op_p50_s": statistics.median(raw), "raw_op_tail_s": tail(raw)[0],
               "raw_ops_per_s": len(raw) / sum(raw),
               "speed_factor_median": statistics.median(out.speed for _, out in results)}
    return metrics, details


def per_layer(ops) -> tuple[dict, list, dict]:
    # Untraced passes before and after the traced one, so warm-up effects
    # do not bias the overhead either way.
    before = run_pass(ops)
    with Tracer() as tracer:
        traced = run_pass(ops)
    after = run_pass(ops)
    op_s = sum(out.seconds for _, out in traced)
    traced_ref_s = sum(out.ref_seconds for _, out in traced)
    untraced_s = sum(out.ref_seconds for _, out in before + after) / 2
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = (
        sum(len(out.result) for op, out in traced if op.argv is not None and out.result), "bytes")
    metrics["trace.op_s"] = (op_s, "s")
    metrics["trace.unattributed_s"] = (op_s - tracer.top_level_s, "s")
    metrics["trace.untraced_op_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_ref_s - untraced_s, "s")
    accounted = tracer.total_self_s() + (op_s - tracer.top_level_s)
    details = {"self_plus_unattributed_s": accounted,
               "overhead_frac": (traced_ref_s - untraced_s) / untraced_s}
    return metrics, traced + before + after, details


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def import_package():
    """Import hypereig from this checkout's ``src``; exit with an error when it is absent."""
    if not (SRC / "hypereig" / "__init__.py").is_file() or not PROBLEMS.is_dir():
        sys.exit(f"error: {ROOT} is not a hypereig checkout (needs src/hypereig and problems/)")
    sys.path.insert(0, str(SRC))
    hypereig = importlib.import_module("hypereig")
    if not hypereig.__file__.startswith(str(SRC)):
        sys.exit(f"error: hypereig was imported from {hypereig.__file__}, not {SRC}")
    return importlib.import_module("hypereig.cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    oracle.self_check(PROBLEMS / "ex_6_3_1.json")
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rng = np.random.default_rng(args.seed)
        ops = BUILDERS[args.workload](rng, work, references)
        tally = Tally()
        info = {"env": environment(args), "ops_per_pass": len(ops)}
        if args.trace:
            metrics, results, info["trace"] = per_layer(ops)
        else:
            setup_s = setup_seconds(ops, work)
            results, elapsed = measure(ops, args.seconds)
        check_all(results, len(ops), tally)
        if not args.trace:
            metrics, info["timing"] = end_to_end(ops, results, elapsed, tally, setup_s)
        info.update({
            "recall": [tally.found, tally.total], "precision": [tally.matched, tally.reported],
            "spurious": tally.spurious, "failures": tally.failures,
            "no_oracle": tally.no_oracle, "u_diagonal_coverage": tally.diagonal,
            "digests": tally.digests,
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"info": info}, default=float))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
