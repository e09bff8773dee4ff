"""End-to-end command-line behavior: reports, formats, exit codes, determinism."""

import itertools
import json
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


@pytest.mark.parametrize(
    "command, options, flags, name",
    [
        ("solve", {"quasi_probes": -3}, [], "quasi_probes"),
        ("solve", {"newton_starts": -1}, [], "newton_starts"),
        ("solve", {"proj_starts": -2}, [], "proj_starts"),
        ("solve", {"newton_max_iter": -5}, [], "newton_max_iter"),
        ("solve", {"max_iter": -1}, [], "max_iter"),
        ("solve", {"pair_angles": 0}, [], "pair_angles"),
        ("solve", {"max_pair_kernel_dim": 0}, [], "max_pair_kernel_dim"),
        ("solve", {"family_probes": [0.0, float("inf"), 2.5]}, [], "family_probes"),
        ("solve", {"family_probes": [0.0, float("nan"), 2.5]}, [], "family_probes"),
        ("solve", {}, ["--quasi-probes", "-3"], "quasi_probes"),
        ("iterate", {}, ["--max-iter", "-1", "--x0", "1,0,0"], "max_iter"),
    ],
)
def test_bad_count_options_are_input_errors(tmp_path, capsys, command, options, flags, name):
    pd = load_problem_dict("ex_7_101.json")
    pd["options"] = options
    path = _write_json(tmp_path / "prob.json", pd)
    code, out = _run([command, path, *flags], tmp_path)
    assert code == 2
    assert out == ""
    assert f"error: option {name} must be" in capsys.readouterr().err


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
