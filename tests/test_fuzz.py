"""Property tests: mutated problem files either load or fail with ``ValueError``.

Each example takes a shipped problem file and applies a few mutations: a key
dropped, a value replaced by one of another type, a number made negative,
fractional, non-finite or huge, or an ``options`` object with known and
unknown names.  Loading must raise nothing but ``ValueError`` and warn
nothing; the command line must exit with 0, 2 or 3.
"""

import copy
import json
import math
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hypereig as he
from hypereig import cli
from conftest import PROBLEMS, load_problem_dict

SHIPPED = sorted(
    path.name for path in PROBLEMS.glob("*.json") if "type" in load_problem_dict(path.name)
)
OPTION_NAMES = ("seed", "rank_tol", "residual_tol", "recon_tol", "eps", "max_iter",
                "quasi_probes", "no_such_option")

# Small integers only, so that a problem that loads stays cheap to build and
# iterate; the huge values must be refused by the size caps before anything
# of their size is allocated.
ODD_NUMBERS = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([0.5, -1.5, 2.0, 1e-300, 1e300, -1e300, 10**30, -(10**400),
                     math.inf, -math.inf, math.nan]),
)
ODD_VALUES = st.one_of(
    ODD_NUMBERS,
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(ODD_NUMBERS, max_size=3),
    st.dictionaries(st.sampled_from(["idx", "val", "n", "x"]), ODD_NUMBERS, max_size=2),
)

#: Changes to a number: negated, made fractional, zero, or not finite.
NUDGES = (
    lambda v: -v,
    lambda v: v + 0.5 if abs(v) < 1e9 else v,
    lambda v: 0,
    lambda v: math.nan,
    lambda v: -math.inf,
)


def _paths(node, prefix=()):
    """Every key path below the root, container before its contents."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _mutated(draw, base: dict) -> dict:
    d = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(d))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        key, old = path[-1], parent[path[-1]]
        action = draw(st.sampled_from(["drop", "replace", "nudge"]))
        if action == "drop" and isinstance(parent, dict):
            del parent[key]
        elif action == "nudge" and isinstance(old, (int, float)) and not isinstance(old, bool):
            parent[key] = draw(st.sampled_from(NUDGES))(old)
        else:
            parent[key] = draw(ODD_VALUES)
    if draw(st.booleans()):
        d["options"] = draw(st.one_of(
            st.dictionaries(st.sampled_from(OPTION_NAMES), ODD_VALUES, max_size=3),
            ODD_VALUES,
        ))
    return d


@st.composite
def mutated_problems(draw):
    """A mutated shipped problem with the dimension ``n`` of the shipped one."""
    base = load_problem_dict(draw(st.sampled_from(SHIPPED)))
    return _mutated(draw, base), base["type"]["n"]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_problems())
def test_mutated_problem_files_load_or_raise_value_error(problem):
    d, _ = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            he.problem_from_dict(d)
            he.options_from_dict(d.get("options"))
        except ValueError:
            pass


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_problems())
def test_mutated_problem_files_iterate_with_a_clean_exit(tmp_path_factory, problem):
    d, n = problem
    path = tmp_path_factory.mktemp("fuzz") / "prob.json"
    path.write_text(json.dumps(d))
    x0 = ",".join(["1"] + ["0.5"] * (n - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["iterate", str(path), "--x0", x0, "--max-iter", "20",
                         "--output", str(path.with_suffix(".out"))])
    assert code in (0, 2, 3)
