"""Compare ``hypereig solve`` and ``hypereig pencil`` reports between two source trees.

Usage (from the repository root):

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC [--seeds 1,2,3]

``OLD_SRC`` and ``NEW_SRC`` are checkouts (holding ``src/hypereig``) or
source directories (holding ``hypereig``).  The inputs are:

* every problem file in ``problems/``;
* a U-mode copy of each D-mode one (some are invalid in U mode, and their
  error output is compared like any other);
* for each seed, the operations of the benchmark's ``d_cli`` and
  ``u_continua`` workloads, as ``bench/run.py`` builds them (the generated
  files of ``bench/problems.py`` and the shipped examples with their extra
  arguments);
* ``hypereig pencil`` on ``ex_6_1_4_A``/``ex_6_1_4_B``, with and without
  ``--at 1``;
* for each seed, ``hypereig pencil`` on every pencil of the benchmark's
  ``pencil_planted`` workload, as ``bench/run.py`` builds them, written as
  order-2 hypermatrix files.

Every report is ``--format structured``.  Each tree runs every input through
``hypereig.cli.main`` in one worker process, with BLAS pinned to one thread
and every warning shown.  The script prints each input whose stdout, stderr
or exit code differs, and the time each tree spent in each command, and
exits 1 if any input differs, else 0.  It reads ``bench/`` and does not
change it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))  # build_pencil_planted makes hypereig.Pencil objects

import numpy as np  # noqa: E402

import run as bench  # noqa: E402  (pins BLAS to one thread in os.environ)

WORKER = r"""
import contextlib, io, json, sys, time, traceback, warnings
src, jobs_path = sys.argv[1], sys.argv[2]
with open(jobs_path, encoding="utf-8") as fh:
    jobs = json.load(fh)
sys.path.insert(0, src)
from hypereig import cli
if not cli.__file__.startswith(src):
    sys.exit("hypereig was not imported from " + src)
warnings.simplefilter("always")
results, seconds = [], {}
for argv in jobs:
    t0 = time.perf_counter()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "exception"
    seconds[argv[0]] = seconds.get(argv[0], 0.0) + time.perf_counter() - t0
    results.append([out.getvalue(), err.getvalue(), code])
json.dump({"results": results, "seconds": seconds}, sys.stdout)
"""


def source_dir(tree: str) -> str:
    """The directory that holds the ``hypereig`` package of a checkout or source tree."""
    path = Path(tree).resolve()
    for candidate in (path / "src", path):
        if (candidate / "hypereig" / "__init__.py").is_file():
            return str(candidate)
    sys.exit(f"error: no hypereig package under {tree}")


def inputs(seeds: list[int], work: Path) -> list[list[str]]:
    """The argument lists to run, without repeats, in a fixed order."""
    jobs = []
    for path in sorted(PROBLEMS.glob("*.json")):
        prob = json.loads(path.read_text(encoding="utf-8"))
        if "mode" not in prob:
            continue  # a matrix operand, not a problem file
        jobs.append(["solve", str(path), "--format", "structured"])
        if prob["mode"] == "D":
            copy = work / f"{path.stem}_as_U.json"
            copy.write_text(json.dumps(dict(prob, mode="U")), encoding="utf-8")
            jobs.append(["solve", str(copy), "--format", "structured"])
    references = json.loads(bench.REFERENCE.read_text(encoding="utf-8"))
    for seed in seeds:
        for build in (bench.build_d_cli, bench.build_u_continua):
            seed_dir = work / f"{build.__name__}-{seed}"
            seed_dir.mkdir()
            ops = build(np.random.default_rng(seed), seed_dir, references)
            jobs.extend(op.argv for op in ops)
    pencil_files = [str(PROBLEMS / "ex_6_1_4_A.json"), str(PROBLEMS / "ex_6_1_4_B.json")]
    jobs.append(["pencil", *pencil_files, "--format", "structured"])
    jobs.append(["pencil", *pencil_files, "--at", "1", "--format", "structured"])
    for seed in seeds:
        seed_dir = work / f"build_pencil_planted-{seed}"
        seed_dir.mkdir()
        ops = bench.build_pencil_planted(np.random.default_rng(seed), seed_dir, references)
        for i, op in enumerate(ops):
            files = [matrix_file(seed_dir / f"{i:03d}_{side}.json", m)
                     for side, m in (("a", op.pencil.a), ("b", op.pencil.b))]
            jobs.append(["pencil", *files, "--format", "structured"])
    return [list(argv) for argv in dict.fromkeys(map(tuple, jobs))]


def matrix_file(path: Path, m: np.ndarray) -> str:
    """Write ``m`` as an order-2 hypermatrix file; JSON keeps every float exactly."""
    hmx = {"order": 2, "dims": list(m.shape), "format": "dense", "entries": m.ravel().tolist()}
    path.write_text(json.dumps(hmx), encoding="utf-8")
    return str(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", metavar="OLD_SRC")
    parser.add_argument("new", metavar="NEW_SRC")
    parser.add_argument("--seeds", default="1,2,3", help="benchmark seeds (default 1,2,3)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    trees = [source_dir(args.old), source_dir(args.new)]

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs = inputs(seeds, work)
        jobs_path = work / "jobs.json"
        jobs_path.write_text(json.dumps(jobs), encoding="utf-8")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WORKER, src, str(jobs_path)],
                stdout=subprocess.PIPE, cwd=str(work), env=dict(os.environ), text=True,
            )
            for src in trees
        ]
        outputs = [proc.communicate()[0] for proc in procs]
        for proc, src in zip(procs, trees):
            if proc.returncode != 0:
                sys.exit(f"error: the worker for {src} exited with {proc.returncode}")
        old, new = (json.loads(text) for text in outputs)

    differing = 0
    for argv, a, b in zip(jobs, old["results"], new["results"]):
        fields = [name for name, x, y in zip(("stdout", "stderr", "exit code"), a, b) if x != y]
        if fields:
            differing += 1
            print(f"differs ({', '.join(fields)}): {' '.join(argv[1:])}")
    ok = sum(code == 0 for _, _, code in new["results"])
    times = "; ".join(
        f"{command} time {old['seconds'][command]:.1f} s in OLD_SRC, "
        f"{new['seconds'][command]:.1f} s in NEW_SRC"
        for command in sorted(old["seconds"])
    )
    print(f"{differing} of {len(jobs)} inputs differ ({ok} exit 0 in NEW_SRC); {times}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
