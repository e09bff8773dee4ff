"""Write ``bench/reference.json``: the shipped examples' witness sets as the solver reports them.

Run from the repository root with ``python3 bench/capture_reference.py``.
The benchmark fails an operation whose output differs from this reference
by more than the match tolerance (1e-6), so regenerate it only when a change
of the reported witness set is intended and explained.
"""

import contextlib
import io
import json
import sys

import run


def main() -> int:
    cli = run.import_package()
    references = {}
    for name, extra in run.SHIPPED_D + run.SHIPPED_U:
        out = io.StringIO()
        argv = ["solve", str(run.PROBLEMS / f"{name}.json"), "--format", "structured", *extra]
        with contextlib.redirect_stdout(out):
            if cli.main(argv) != 0:
                sys.exit(f"solve failed on {name}")
        report = json.loads(out.getvalue())
        ref = {"witnesses": [{k: w[k] for k in ("case", "lambda", "components", "family")}
                             for w in report["witnesses"]]}
        if "iteration" in report:
            ref["iteration"] = {k: report["iteration"]["final"][k]
                                for k in ("k", "lambda", "x", "converged")}
        references[name] = ref
    run.REFERENCE.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
