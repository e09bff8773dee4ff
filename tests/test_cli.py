"""End-to-end command-line behavior: reports, formats, exit codes, determinism."""

import itertools
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hypereig as he
from hypereig import cli
from conftest import PROBLEMS, load_problem_dict


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _vector_file(path, entries):
    return _write_json(
        path, {"order": 1, "dims": [len(entries)], "format": "dense", "entries": entries}
    )


def _matrix_file(path, rows):
    arr = np.asarray(rows, dtype=float)
    return _write_json(
        path,
        {
            "order": 2,
            "dims": list(arr.shape),
            "format": "dense",
            "entries": arr.ravel().tolist(),
        },
    )


def _cli_process(argv):
    """Run the CLI in a fresh interpreter, so that stderr shows any leaked warning."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "hypereig.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _run(args, tmp_path, structured=True):
    out = tmp_path / "out.json"
    argv = list(args) + ["--output", str(out)]
    if structured:
        argv += ["--format", "structured"]
    code = cli.main(argv)
    text = out.read_text() if out.exists() else ""
    return code, (json.loads(text) if structured and text else text)


# ---------------------------------------------------------------------------
# Algebra commands
# ---------------------------------------------------------------------------


def test_stp_conformable_is_matmul(tmp_path):
    a = _matrix_file(tmp_path / "a.json", [[1.0, 2.0], [3.0, 4.0]])
    b = _matrix_file(tmp_path / "b.json", [[1.0, 0.0], [0.0, 1.0]])
    code, rep = _run(["stp", a, b], tmp_path)
    assert code == 0
    assert rep["result"]["dims"] == [2, 2]
    assert rep["result"]["entries"] == [1.0, 2.0, 3.0, 4.0]


def test_kron_of_vectors(tmp_path):
    a = _vector_file(tmp_path / "a.json", [1.0, 2.0])
    b = _vector_file(tmp_path / "b.json", [3.0, 4.0])
    code, rep = _run(["kron", a, b], tmp_path)
    assert code == 0
    assert rep["result"]["entries"] == [3.0, 4.0, 6.0, 8.0]


@pytest.mark.parametrize("command", ["stp", "kron"])
def test_products_honour_the_size_cap(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(he.stp_core, "MAX_RESULT_ENTRIES", 10)
    v = _vector_file(tmp_path / "v.json", [1.0, 2.0, 3.0, 4.0])
    code, out = _run([command, v, v], tmp_path)
    assert code == 2
    assert out == ""
    assert "error: result would hold 16 entries (cap is 10)" in capsys.readouterr().err


def test_flatten_single_row_index(tmp_path):
    code, rep = _run(["flatten", str(PROBLEMS / "ex_3_2.json"), "--rows", "1"], tmp_path)
    assert code == 0
    assert rep["result"]["dims"] == [2, 6]
    assert rep["result"]["entries"] == [
        111.0, 112.0, 121.0, 122.0, 131.0, 132.0,
        211.0, 212.0, 221.0, 222.0, 231.0, 232.0,
    ]


def test_flatten_split_row_indices(tmp_path):
    code, rep = _run(
        ["flatten", str(PROBLEMS / "ex_3_2.json"), "--rows", "1,3"], tmp_path
    )
    assert code == 0
    assert rep["result"]["dims"] == [4, 3]
    assert rep["result"]["entries"] == [
        111.0, 121.0, 131.0,
        112.0, 122.0, 132.0,
        211.0, 221.0, 231.0,
        212.0, 222.0, 232.0,
    ]


def test_flatten_empty_rows_gives_full_row_vector(tmp_path):
    code, rep = _run(["flatten", str(PROBLEMS / "ex_3_2.json"), "--rows", ""], tmp_path)
    assert code == 0
    assert rep["result"]["dims"] == [1, 12]
    assert rep["result"]["entries"][0] == 111.0
    assert rep["result"]["entries"][-1] == 232.0


def test_flatten_partition_must_cover_all_indices(tmp_path):
    code, _ = _run(
        ["flatten", str(PROBLEMS / "ex_3_2.json"), "--rows", "1", "--cols", "2"],
        tmp_path,
    )
    assert code == 2


def test_contract_against_ones_vector(tmp_path):
    v = _vector_file(tmp_path / "v.json", [1.0, 1.0, 1.0])
    code, rep = _run(
        ["contract", str(PROBLEMS / "ex_3_2.json"), v, "--shared", "2:1"], tmp_path
    )
    assert code == 0
    assert rep["result"]["dims"] == [2, 2]
    assert rep["result"]["entries"] == [363.0, 366.0, 663.0, 666.0]


def test_decompose_reports_monic_factors(tmp_path):
    v = _vector_file(tmp_path / "v.json", [0.0, 2.0, 0.0, 4.0])
    code, rep = _run(["decompose", v, "--dims", "2,2"], tmp_path)
    assert code == 0
    assert rep["decomposable"] is True
    assert rep["e"] == 2
    assert rep["c0"] == pytest.approx(2.0)
    assert np.allclose(rep["components"], [[1.0, 2.0], [0.0, 1.0]])


def test_decompose_reports_not_decomposable(tmp_path):
    v = _vector_file(tmp_path / "v.json", [1.0, 0.0, 0.0, 1.0])
    code, rep = _run(["decompose", v, "--dims", "2,2"], tmp_path)
    assert code == 0
    assert rep["decomposable"] is False
    code, text = _run(["decompose", v, "--dims", "2,2"], tmp_path, structured=False)
    assert code == 0
    assert "NOT_DECOMPOSABLE" in text


def test_decompose_zero_vector_is_input_error(tmp_path):
    v = _vector_file(tmp_path / "v.json", [0.0, 0.0, 0.0, 0.0])
    code, _ = _run(["decompose", v, "--dims", "2,2"], tmp_path)
    assert code == 2


# ---------------------------------------------------------------------------
# Pencil command
# ---------------------------------------------------------------------------


def test_pencil_report(tmp_path):
    code, rep = _run(
        [
            "pencil",
            str(PROBLEMS / "ex_6_1_4_A.json"),
            str(PROBLEMS / "ex_6_1_4_B.json"),
            "--at", "1",
            "--at", "0",
        ],
        tmp_path,
    )
    assert code == 0
    assert rep["shape"] == [2, 3]
    assert rep["generic_rank"] == 2
    assert len(rep["essential"]) == 1
    assert rep["essential"][0] == pytest.approx(1.0, abs=1e-8)
    by_lam = {ev["lambda"]: ev for ev in rep["evaluations"]}
    assert by_lam[1.0]["class"] == "essential"
    assert by_lam[1.0]["kernel_dim"] == 2
    assert by_lam[0.0]["class"] == "quasi"
    assert by_lam[0.0]["kernel_dim"] == 1
    assert all(ev["residual"] <= 1e-10 for ev in rep["evaluations"])


def test_pencil_of_generic_rank_zero_has_no_essential_eigenvalues(tmp_path):
    zero = _matrix_file(tmp_path / "z.json", np.zeros((2, 3)))
    code, rep = _run(["pencil", zero, zero], tmp_path)
    assert code == 0
    assert rep["generic_rank"] == 0
    assert rep["essential"] == []


#: A square pencil (QZ) and a wide one of rank 2 with 3 rows (rows chosen by
#: pivoted QR), each with the structured report that ``hypereig pencil`` gave
#: while ``scipy.linalg`` was imported with the package.
_QZ_AND_ROW_SELECTION_REPORTS = [
    (
        [[2, 1, 0], [0, 3, 1], [1, 0, -1]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [],
        {"command": "pencil", "shape": [3, 3], "generic_rank": 3,
         "essential": [-0.5753851215787705],
         "evaluations": [{"lambda": -0.5753851215787705, "class": "essential", "kernel_dim": 1,
                          "kernel": [[0.2394725341734218, -0.3914814181556668,
                                      0.8884791526059501]]}]},
    ),
    (
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0], [1, 0, 1, 0]],
        ["--at", "1"],
        {"command": "pencil", "shape": [3, 4], "generic_rank": 2,
         "essential": [0.9999999999999999],
         "evaluations": [{"lambda": 1.0, "class": "essential", "kernel_dim": 3,
                          "kernel": [[-0.0, -0.7071067811865475, -0.7071067811865476, 0.0],
                                     [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]}]},
    ),
]


@pytest.mark.parametrize("a, b, extra, expected", _QZ_AND_ROW_SELECTION_REPORTS,
                         ids=["square-qz", "wide-rank-deficient"])
def test_pencil_command_on_the_scipy_paths_keeps_its_report(tmp_path, a, b, extra, expected):
    """A fresh interpreter imports ``scipy.linalg`` only when a pencil needs it.

    Values are compared to rounding and kernels by their projectors, so that
    another LAPACK build may pass.
    """
    proc = _cli_process(["pencil", _matrix_file(tmp_path / "a.json", a),
                         _matrix_file(tmp_path / "b.json", b), *extra, "--format", "structured"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rep = json.loads(proc.stdout)
    assert sorted(rep) == sorted(expected)
    for key in ("command", "shape", "generic_rank"):
        assert rep[key] == expected[key]
    assert rep["essential"] == pytest.approx(expected["essential"], rel=1e-12, abs=1e-15)
    assert len(rep["evaluations"]) == len(expected["evaluations"])
    for got, want in zip(rep["evaluations"], expected["evaluations"]):
        assert got["lambda"] == pytest.approx(want["lambda"], rel=1e-12, abs=1e-15)
        assert (got["class"], got["kernel_dim"]) == (want["class"], want["kernel_dim"])
        assert got["residual"] <= 1e-14
        k_got, k_want = np.array(got["kernel"]), np.array(want["kernel"])
        np.testing.assert_allclose(k_got.T @ k_got, k_want.T @ k_want, atol=1e-12)


def test_solve_with_every_pencil_of_rank_zero_succeeds(tmp_path):
    """A problem whose A and B̃ are zero makes each case's pencil rank 0."""
    pd = load_problem_dict("ex_6_3_1.json")
    pd["hypermatrix"]["nz"] = []
    pd["type"] = {"explicit": [np.zeros((2, 8)).tolist()], "n": 2, "r": 3}
    code, rep = _run(["solve", _write_json(tmp_path / "zero.json", pd)], tmp_path)
    assert code == 0
    assert [(sec["generic_rank"], sec["essential"]) for sec in rep["cases"]] == [(0, [])] * 2


def test_solve_and_pencil_take_each_rank_once_and_call_the_one_finder(monkeypatch, tmp_path):
    """Each pencil gets one ``generic_rank`` and one ``essential_eigenvalues_real`` call.

    The functions are rebound in every ``hypereig`` module that refers to
    them, the way the benchmark's tracer does, so a call through a private
    entry point would not be counted.
    """
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "hypereig" or k.startswith("hypereig."))]
    for fn in (he.generic_rank, he.essential_eigenvalues_real):
        wrapper = counted(fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    code, rep = _run(["solve", str(PROBLEMS / "ex_6_3_1.json")], tmp_path)
    assert code == 0
    assert len(rep["cases"]) == 2
    assert sorted(calls) == ["essential_eigenvalues_real"] * 2 + ["generic_rank"] * 2
    calls.clear()
    code, rep = _run(["pencil", str(PROBLEMS / "ex_6_1_4_A.json"),
                      str(PROBLEMS / "ex_6_1_4_B.json")], tmp_path)
    assert code == 0
    assert rep["essential"]
    assert calls == ["generic_rank", "essential_eigenvalues_real"]


# ---------------------------------------------------------------------------
# Solve command
# ---------------------------------------------------------------------------


def _witness_index(rep):
    out = {}
    for w in rep["witnesses"]:
        key = (tuple(w["case"]), round(w["lambda"], 6))
        out.setdefault(key, []).append(w)
    return out


def test_solve_cubic_markov_problem(tmp_path):
    code, rep = _run(["solve", str(PROBLEMS / "ex_6_3_1.json")], tmp_path)
    assert code == 0
    assert rep["mode"] == "D"
    assert rep["lhs_power"] == 3 and rep["rhs_power"] == 3
    idx = _witness_index(rep)
    w1 = idx[((1,), 1.0)][0]
    assert np.allclose(w1["components"], [[1.0, 0.0]], atol=1e-9)
    w2 = idx[((2,), 1.0)][0]
    assert np.allclose(w2["components"], [[0.0, 1.0]], atol=1e-9)
    assert all(w["diagonal"] for w in rep["witnesses"])
    assert all(w["residual"] <= 1e-9 for w in rep["witnesses"])


def test_solve_sole_witness_problem(tmp_path):
    code, rep = _run(["solve", str(PROBLEMS / "ex_7_1ii.json")], tmp_path)
    assert code == 0
    assert len(rep["witnesses"]) == 1
    w = rep["witnesses"][0]
    assert w["case"] == [2]
    assert abs(w["lambda"]) <= 1e-9
    assert np.allclose(w["components"], [[0.0, 1.0, 0.0]], atol=1e-9)


def test_solve_with_no_real_witnesses_is_success(tmp_path):
    prob = {
        "hypermatrix": {
            "order": 2, "dims": [2, 2], "format": "dense",
            "entries": [1.0, 0.0, 0.0, 1.0],
        },
        "partition": {"rows": [1], "cols": [2]},
        "type": {"explicit": [[[0.0, 1.0], [-1.0, 0.0]]], "n": 2, "r": 1},
        "mode": "D",
    }
    path = _write_json(tmp_path / "rot.json", prob)
    code, rep = _run(["solve", path], tmp_path)
    assert code == 0
    assert rep["witnesses"] == []


def test_solve_iterate_trajectory(tmp_path):
    code, rep = _run(
        [
            "solve", str(PROBLEMS / "ex_7_101.json"),
            "--iterate", "--x0", "0.5915,-0.7467,-0.3043",
        ],
        tmp_path,
    )
    assert code == 0
    trace = rep["iteration"]["trace"]
    assert trace[0]["k"] == 0
    assert trace[0]["lambda"] == pytest.approx(-0.1163, abs=1e-3)
    assert trace[0]["residual"] == pytest.approx(0.1787, abs=1e-3)
    assert [row["k"] for row in trace] == list(range(len(trace)))
    final = rep["iteration"]["final"]
    assert final["converged"] is True
    assert final["k"] <= 200
    assert final["residual"] <= 0.0206


def test_solve_iterate_requires_start_vector(tmp_path):
    code, _ = _run(["solve", str(PROBLEMS / "ex_7_101.json"), "--iterate"], tmp_path)
    assert code == 2


def test_iterate_command_text_output(tmp_path):
    code, text = _run(
        ["iterate", str(PROBLEMS / "ex_7_101.json"), "--x0", "0.5915,-0.7467,-0.3043"],
        tmp_path,
        structured=False,
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0].split() == ["k", "lambda", "residual", "x"]
    assert lines[1].split()[0] == "0"
    assert lines[1].split()[1] == "-0.1163"
    assert lines[1].split()[2] == "0.1787"
    assert lines[-1].startswith("converged at k=")


# ---------------------------------------------------------------------------
# Formats, determinism, exit codes
# ---------------------------------------------------------------------------


def test_text_format_rounds_to_four_decimals(tmp_path):
    code, text = _run(
        ["solve", str(PROBLEMS / "ex_7_1ii.json")], tmp_path, structured=False
    )
    assert code == 0
    assert "lambda=0.0000" in text
    assert "z=(0.0000, 1.0000, 0.0000)" in text


def test_structured_output_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["solve", str(PROBLEMS / "ex_6_3_1.json"), "--format", "structured"]
    assert cli.main(argv + ["--output", str(out1)]) == 0
    assert cli.main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().endswith(b"\n")


def test_missing_file_is_input_error(tmp_path):
    code, _ = _run(["solve", str(tmp_path / "nope.json")], tmp_path)
    assert code == 2


def test_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _ = _run(["solve", str(bad)], tmp_path)
    assert code == 2


def test_wrong_order_input_is_input_error(tmp_path):
    code, _ = _run(
        ["stp", str(PROBLEMS / "ex_3_2.json"), str(PROBLEMS / "ex_3_2.json")], tmp_path
    )
    assert code == 2


def test_numerical_breakdown_exit_code(tmp_path):
    prob = {
        "hypermatrix": {
            "order": 2, "dims": [2, 2], "format": "dense",
            "entries": [1.0, 0.0, 0.0, 1.0],
        },
        "partition": {"rows": [1], "cols": [2]},
        "type": {"explicit": [[[0.0, 0.0], [0.0, 0.0]]], "n": 2, "r": 1},
        "mode": "D",
    }
    path = _write_json(tmp_path / "degenerate.json", prob)
    code, _ = _run(["iterate", path, "--x0", "1,0"], tmp_path)
    assert code == 3


def test_iterate_on_a_square_pencil_is_a_breakdown_naming_its_shape(tmp_path, capsys):
    code, _ = _run(["iterate", str(PROBLEMS / "ex_7_1i.json"), "--x0", "0.6,0.8"], tmp_path)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: the iteration needs a wide pencil, not a 2x2 one")


@pytest.mark.parametrize(
    "name, mode, ranks, essential",
    [
        ("ex_7_1ii.json", None, [7, 6, 6], [[0.0], [-1.0, 0.0], [0.0]]),
        ("ex_7_1i.json", None, [2, 2], [[1.0], [1.0]]),
        ("ex_7_1i.json", "U", [2, 2], [[1.0], [1.0]]),
    ],
)
def test_solve_reports_case_pencil_facts(tmp_path, name, mode, ranks, essential):
    pd = load_problem_dict(name)
    if mode is not None:
        pd["mode"] = mode
    prob = he.problem_from_dict(pd)
    code, rep = _run(["solve", _write_json(tmp_path / "prob.json", pd)], tmp_path)
    assert code == 0
    width = 1 if prob.mode == "D" else prob.type_map.r
    cases = list(itertools.product(range(1, prob.n + 1), repeat=width))
    assert [tuple(sec["case"]) for sec in rep["cases"]] == cases
    assert [sec["generic_rank"] for sec in rep["cases"]] == ranks
    for sec, expected in zip(rep["cases"], essential):
        pencil = he.case_pencil(prob, sec["case"])
        assert sec["generic_rank"] == he.generic_rank(pencil)
        lams = [ev["lambda"] for ev in sec["essential"]]
        assert lams == pytest.approx(he.essential_eigenvalues_real(pencil), abs=1e-12)
        assert lams == pytest.approx(expected, abs=1e-6)
        for ev in sec["essential"]:
            assert ev["class"] == "essential"
            assert ev["kernel_dim"] == len(he.kernel_basis(pencil, ev["lambda"])) >= 1


REMOVED_SOLVER_KNOBS = {
    "quasi_probes", "newton_starts", "proj_starts", "newton_max_iter", "pair_angles", "rank_tol",
}


@pytest.mark.parametrize(
    "command, options, flags, name",
    [
        ("solve", {"quasi_probes": -3}, [], "quasi_probes"),
        ("solve", {"seed": 1.5}, [], "seed"),
        ("solve", {"recon_tol": -1e-8}, [], "recon_tol"),
        ("solve", {"newton_max_iter": -5}, [], "newton_max_iter"),
        ("solve", {"max_iter": -1}, [], "max_iter"),
        ("solve", {"max_iter": True}, [], "max_iter"),
        ("solve", {"residual_tol": float("nan")}, [], "residual_tol"),
        ("solve", {}, ["--residual-tol", "nan"], "residual_tol"),
        ("solve", {}, ["--residual-tol", "inf"], "residual_tol"),
        ("solve", {}, ["--max-iter", "-3"], "max_iter"),
        ("iterate", {}, ["--max-iter", "-1", "--x0", "1,0,0"], "max_iter"),
        ("solve", {"eps": float("inf")}, [], "eps"),
        ("solve", {"residual_tol": "x"}, [], "residual_tol"),
        ("solve", {"rank_tol": "x"}, [], "rank_tol"),
        ("solve", {"quasi_probes": 2.5}, [], "quasi_probes"),
        ("solve", {"newton_max_iter": 1.5}, [], "newton_max_iter"),
        ("solve", {"seed": "x"}, [], "seed"),
        ("solve", {"rank_tol": float("inf")}, [], "rank_tol"),
        ("solve", {"rank_tol": float("nan")}, [], "rank_tol"),
        ("solve", {"recon_tol": float("inf")}, [], "recon_tol"),
        ("iterate", {}, ["--eps", "inf", "--x0", "1,0,0"], "eps"),
        ("solve", {"residual_tol": 10**400}, [], "residual_tol"),
        ("solve", {"seed": -1}, [], "seed"),
        ("solve", {}, ["--seed", "-1"], "seed"),
        ("solve", {"max_iter": 2.5}, [], "max_iter"),
        ("solve", {"eps": 0}, [], "eps"),
        ("solve", {"rank_tol": -1.0}, [], "rank_tol"),
        ("solve", {"residual_tol": 0.0}, [], "residual_tol"),
    ],
)
def test_bad_count_options_are_input_errors(tmp_path, capsys, command, options, flags, name):
    pd = load_problem_dict("ex_7_101.json")
    pd["options"] = options
    path = _write_json(tmp_path / "prob.json", pd)
    code, out = _run([command, path, *flags], tmp_path)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    if name in REMOVED_SOLVER_KNOBS:
        # The solver no longer reads these, so any value is refused by name.
        assert f"error: unknown options: ['{name}']" in err
    else:
        assert f"error: option {name} must be" in err


def test_overflowing_type_norm_is_input_error(tmp_path, capsys):
    prob = {
        "hypermatrix": {
            "order": 2, "dims": [2, 2], "format": "dense",
            "entries": [1.0, 0.0, 0.0, 1.0],
        },
        "partition": {"rows": [1], "cols": [2]},
        "type": {"explicit": [[[1e308, 1e308], [1e308, -1e308]]], "n": 2, "r": 1},
        "mode": "D",
    }
    path = _write_json(tmp_path / "huge.json", prob)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = _run(["solve", path], tmp_path)
    assert code == 2
    assert caught == []
    err = capsys.readouterr().err
    assert "error: the composed type map has a non-finite norm" in err


def test_seed_comes_from_the_problem_file_unless_the_flag_is_given(tmp_path):
    pd = load_problem_dict("ex_7_101.json")
    plain = _write_json(tmp_path / "plain.json", pd)
    pd["options"] = {"seed": 7}
    seeded = _write_json(tmp_path / "seeded.json", pd)
    outputs = {}
    for key, argv in [
        ("default", ["solve", plain]),
        ("file", ["solve", seeded]),
        ("flag", ["solve", plain, "--seed", "7"]),
        ("flag wins", ["solve", seeded, "--seed", "42"]),
    ]:
        code, outputs[key] = _run(argv, tmp_path)
        assert code == 0
    assert outputs["file"] == outputs["flag"]
    assert outputs["file"] != outputs["default"]
    assert outputs["flag wins"] == outputs["default"]


def _problem_with(hypermatrix=None, type_map=None):
    pd = load_problem_dict("ex_7_101.json")
    if hypermatrix is not None:
        pd["hypermatrix"] = hypermatrix
    if type_map is not None:
        pd["type"] = type_map
    return pd


def _fractional(name, *path):
    """Shipped problem ``name`` with the integer at key ``path`` plus one half.

    Truncating the value gives back the shipped, solvable problem.
    """
    pd = load_problem_dict(name)
    node = pd
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 0.5
    return pd


def _set(name, value, *path):
    """Shipped problem ``name`` with the value at key ``path`` replaced."""
    pd = load_problem_dict(name)
    node = pd
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return pd


@pytest.mark.parametrize(
    "problem",
    [
        _problem_with(type_map={"explicit": None}),
        _problem_with(type_map={"named": "markov", "n": 3, "r": 3, "s": None}),
        _problem_with(type_map={"explicit": [[[1.0, 0.0], [0.0, 1.0]]], "n": None}),
        _problem_with(hypermatrix={"order": 1, "dims": [2], "format": "sparse", "nz": 5}),
        _problem_with(hypermatrix={"order": 40, "dims": [2] * 40, "format": "sparse", "nz": []}),
        _fractional("ex_6_3_1.json", "type", "n"),
        _fractional("ex_7_1i.json", "type", "r"),
        _fractional("ex_6_3_1.json", "hypermatrix", "order"),
        _fractional("ex_6_3_1.json", "hypermatrix", "dims", 3),
        _fractional("ex_6_3_1.json", "hypermatrix", "nz", 1, "idx", 3),
        _fractional("ex_6_3_1.json", "partition", "rows", 0),
        _set("ex_7_1i.json", {}, "hypermatrix", "entries"),
        _set("ex_7_1i.json", 10**400, "type", "explicit", 0, 0, 0),
        _set("ex_7_1ii.json", float("inf"), "type", "explicit", 0, 0, 0),
        _set("ex_6_3_1.json", 10**400, "hypermatrix", "nz", 0, "val"),
        _set("ex_6_3_1.json", 50, "type", "r"),
        _problem_with(type_map={"named": "H", "n": 3, "r": -1}),
        _set("ex_7_101.json", 5, "options"),
        _set("ex_7_101.json", [["seed"]], "options"),
    ],
    ids=[
        "explicit-null", "named-s-null", "explicit-n-null", "nz-not-a-list", "dims-over-cap",
        "named-n-fractional", "explicit-r-fractional", "order-fractional",
        "dims-fractional", "nz-index-fractional", "partition-fractional",
        "entries-object", "explicit-entry-huge", "explicit-entry-inf", "nz-value-huge",
        "named-r-over-cap", "named-r-negative", "options-number", "options-list",
    ],
)
def test_malformed_problem_files_are_input_errors(tmp_path, problem):
    proc = _cli_process(["solve", _write_json(tmp_path / "prob.json", problem)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "7", "solve", str(PROBLEMS / "ex_7_101.json")],
        ["--format", "structured", "solve", str(PROBLEMS / "ex_7_101.json")],
        ["stp", str(PROBLEMS / "ex_6_1_4_A.json"), str(PROBLEMS / "ex_6_1_4_B.json"),
         "--eps", "1"],
        ["iterate", str(PROBLEMS / "ex_7_101.json"), "--x0", "1,0,0", "--rank-tol", "1"],
        ["solve", str(PROBLEMS / "ex_7_101.json"), "--quasi-probes", "3"],
        ["pencil", str(PROBLEMS / "ex_6_1_4_A.json"), str(PROBLEMS / "ex_6_1_4_B.json"),
         "--rank-tol", "1e-9"],
        ["solve", str(PROBLEMS / "ex_6_3_1.json"), "--rank-tol", "1e-9"],
    ],
    ids=[
        "top-level-seed", "top-level-format", "stp-eps", "iterate-rank-tol",
        "solve-quasi-probes", "pencil-rank-tol", "solve-rank-tol",
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: hypereig")


COMMON_FLAGS = {"--help", "--format", "--output"}
SOLVER_FLAGS = {"--seed", "--residual-tol", "--recon-tol", "--eps", "--max-iter"}


@pytest.mark.parametrize(
    "command, flags",
    [
        (None, {"--help"}),
        ("stp", COMMON_FLAGS),
        ("kron", COMMON_FLAGS),
        ("flatten", COMMON_FLAGS | {"--rows", "--cols"}),
        ("contract", COMMON_FLAGS | {"--shared"}),
        ("decompose", COMMON_FLAGS | {"--dims", "--recon-tol"}),
        ("pencil", COMMON_FLAGS | {"--at", "--seed"}),
        ("solve", COMMON_FLAGS | SOLVER_FLAGS | {"--iterate", "--x0"}),
        ("iterate", COMMON_FLAGS | {"--x0", "--eps", "--max-iter"}),
    ],
)
def test_each_command_help_lists_exactly_its_flags(capsys, command, flags):
    argv = ["--help"] if command is None else [command, "--help"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out)) == flags


@pytest.mark.parametrize(
    "knob, value",
    [
        ("dedup_tol", 1e-6),
        ("family_tol", 1e-7),
        ("family_probes", [0.0, 1.0, 2.5]),
        ("max_pair_kernel_dim", 8),
        ("quasi_probes", 7),
        ("newton_starts", 12),
        ("proj_starts", 6),
        ("newton_max_iter", 60),
        ("pair_angles", 24),
        ("rank_tol", None),
    ],
)
def test_removed_solver_knobs_are_unknown_options(tmp_path, capsys, knob, value):
    pd = load_problem_dict("ex_7_101.json")
    pd["options"] = {knob: value}
    code, out = _run(["solve", _write_json(tmp_path / "prob.json", pd)], tmp_path)
    assert code == 2
    assert out == ""
    assert f"error: unknown options: ['{knob}']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, name, value",
    [
        ("decompose", "recon_tol", "nan"),
        ("decompose", "recon_tol", "-inf"),
    ],
)
def test_non_finite_tolerance_flags_are_input_errors(tmp_path, capsys, command, name, value):
    operands = [_vector_file(tmp_path / "v.json", [2.0, 4.0, 0.0, 2.0]), "--dims", "2,2"]
    flag = "--" + name.replace("_", "-")
    code, out = _run([command, *operands, f"{flag}={value}"], tmp_path)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"error: option {name} must be finite\n"


def test_unwritable_output_path_is_input_error(tmp_path):
    vec = _vector_file(tmp_path / "v.json", [2.0, 4.0, 0.0, 2.0])
    target = tmp_path / "missing" / "out.json"
    proc = _cli_process(["decompose", vec, "--dims", "2,2", "--output", str(target)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def _dense_with(value):
    return {"order": 2, "dims": [2, 2], "format": "dense", "entries": [value, 1.0, 2.0, 3.0]}


def _sparse_with(value):
    return {"order": 2, "dims": [2, 2], "format": "sparse", "nz": [{"idx": [1, 1], "val": value}]}


_HUGE = {"order": 2, "dims": [2, 2], "format": "dense", "entries": [1e308] * 4}
_PENCIL_FILES = [str(PROBLEMS / "ex_6_1_4_A.json"), str(PROBLEMS / "ex_6_1_4_B.json")]


@pytest.mark.parametrize(
    "operand, argv, message",
    [
        (_dense_with(None), ["flatten", "M", "--rows", "1"], "finite number"),
        (_dense_with(float("nan")), ["flatten", "M", "--rows", "1"], "finite number"),
        (_dense_with(float("inf")), ["flatten", "M", "--rows", "1"], "finite number"),
        (_sparse_with(float("nan")), ["flatten", "M", "--rows", "1"], "finite number"),
        (_sparse_with(float("-inf")), ["flatten", "M", "--rows", "1"], "finite number"),
        (_HUGE, ["stp", "M", "M"], "the stp result overflows"),
        (_HUGE, ["kron", "M", "M"], "the kron result overflows"),
        (_HUGE, ["contract", "M", "M", "--shared", "2:1"], "the contract result overflows"),
        (None, ["pencil", *_PENCIL_FILES, "--at", "inf"], "--at inf"),
        (None, ["pencil", *_PENCIL_FILES, "--at", "nan"], "--at nan"),
    ],
    ids=[
        "dense-null", "dense-nan", "dense-inf", "sparse-nan", "sparse-inf",
        "stp-overflow", "kron-overflow", "contract-overflow", "pencil-at-inf", "pencil-at-nan",
    ],
)
def test_non_finite_numbers_are_input_errors(tmp_path, operand, argv, message):
    if operand is not None:
        path = _write_json(tmp_path / "m.json", operand)
        argv = [path if arg == "M" else arg for arg in argv]
    proc = _cli_process(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert message in proc.stderr
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "x0, message",
    [("1,zz,0", "error: bad x0 list '1,zz,0'"),
     ("1,0", "error: start vector has length 2, expected n = 3"),
     ("inf,0,0", "error: bad x0 list 'inf,0,0': entries must be finite")],
    ids=["unparsable", "wrong-length", "non-finite"],
)
def test_solve_rejects_a_bad_start_vector_before_solving(
    tmp_path, capsys, monkeypatch, x0, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before --x0 was checked")

    monkeypatch.setattr(cli, "solve", no_solve)
    argv = ["solve", str(PROBLEMS / "ex_7_101.json"), "--iterate", "--x0", x0]
    code, out = _run(argv, tmp_path)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith(message)


def _scaled_matrix_file(path, source, factor):
    hmx = json.loads(source.read_text())
    hmx["entries"] = [factor * value for value in hmx["entries"]]
    return _write_json(path, hmx)


@pytest.mark.parametrize("factor", [1e100, 1e-100], ids=["huge", "tiny"])
def test_pencil_eigenvalues_do_not_depend_on_the_entry_scale(tmp_path, factor):
    """The Gram-determinant scan rescales a pencil whose determinant over- or underflows."""
    plain = _cli_process(["pencil", *_PENCIL_FILES])
    scaled = _cli_process([
        "pencil",
        _scaled_matrix_file(tmp_path / "a.json", PROBLEMS / "ex_6_1_4_A.json", factor),
        _scaled_matrix_file(tmp_path / "b.json", PROBLEMS / "ex_6_1_4_B.json", factor),
    ])
    assert scaled.returncode == 0
    assert "Warning" not in scaled.stderr
    assert "Traceback" not in scaled.stderr
    line = "essential eigenvalues: 1.0000"
    assert line in plain.stdout.splitlines()
    assert line in scaled.stdout.splitlines()


#: A wide D problem (p = 2, r = 3): its case pencils are 2 × 8.
_WIDE_D = {
    "hypermatrix": {
        "order": 3, "dims": [2, 2, 2], "format": "dense",
        "entries": [0.8838, 0.6798, -0.6402, -0.001, 0.4456, 0.4684, 0.8762, 0.2565],
    },
    "partition": {"rows": [1], "cols": [2, 3]},
    "type": {
        "explicit": [[[-1.6488, 0.2544, 1.2246, -0.2975, -0.8108, 0.7522, 0.2534, 0.8959],
                      [-0.3452, -1.4818, -0.11, -0.4458, 0.7753, 0.1936, -1.6308, -1.1952]]],
        "n": 2, "r": 3,
    },
    "mode": "D",
}


def test_solve_of_a_huge_wide_problem_matches_the_unscaled_one(tmp_path):
    huge = json.loads(json.dumps(_WIDE_D))
    huge["hypermatrix"]["entries"] = [1e100 * v for v in huge["hypermatrix"]["entries"]]
    huge["type"]["explicit"] = [[[1e100 * v for v in row] for row in b]
                                for b in huge["type"]["explicit"]]
    reports = []
    for name, problem in (("plain", _WIDE_D), ("huge", huge)):
        proc = _cli_process(
            ["solve", _write_json(tmp_path / f"{name}.json", problem), "--format", "structured"]
        )
        assert proc.returncode == 0
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr
        reports.append(json.loads(proc.stdout))
    plain, scaled = (r["witnesses"] for r in reports)
    assert len(plain) == len(scaled) >= 1
    for want, got in zip(plain, scaled):
        assert got["case"] == want["case"]
        assert got["lambda"] == pytest.approx(want["lambda"], abs=1e-9)
        assert np.allclose(got["components"], want["components"], rtol=0, atol=1e-9)
