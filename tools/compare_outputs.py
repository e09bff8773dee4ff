"""Compare ``hypereig solve --format structured`` between two source trees.

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
  arguments).

Each tree runs every input through ``hypereig.cli.main`` in one worker
process, with BLAS pinned to one thread and every warning shown.  The script
prints each input whose stdout, stderr or exit code differs, and exits 1 if
any does, else 0.  It reads ``bench/`` and does not change it.
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
results, t0 = [], time.perf_counter()
for argv in jobs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "exception"
    results.append([out.getvalue(), err.getvalue(), code])
json.dump({"results": results, "seconds": time.perf_counter() - t0}, sys.stdout)
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
    unique = []
    for argv in jobs:
        if argv not in unique:
            unique.append(argv)
    return unique


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
    print(f"{differing} of {len(jobs)} inputs differ ({ok} exit 0 in NEW_SRC); "
          f"solve time {old['seconds']:.1f} s in OLD_SRC, {new['seconds']:.1f} s in NEW_SRC")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
