"""Type maps, power conversion, the witness solvers, and the fixed-point iteration."""

import itertools

import numpy as np
import pytest

import hypereig as he
from conftest import load_problem, load_problem_dict


# ---------------------------------------------------------------------------
# Named type matrices
# ---------------------------------------------------------------------------


def test_h_type_display_n2_r3():
    tm = he.named_type("H", 2, 3, 1)
    expect = np.zeros((2, 8))
    expect[0, 0] = 1.0
    expect[1, 7] = 1.0
    assert np.array_equal(tm.composed, expect)


def test_h_type_evaluates_entrywise_powers():
    z = np.array([0.7, -1.3, 0.4])
    tm = he.named_type("H", 3, 4, 1)
    assert np.allclose(tm.composed @ he.stp_power(z, 4), z**4)


def test_markov_type_display_n2_r3():
    tm = he.named_type("markov", 2, 3, 1)
    expect = np.array([[1, 2, 0, 0, 0, 0, 1, 0], [0, 1, 0, 2, 0, 0, 0, 1]], float)
    assert np.array_equal(tm.composed, expect)


def test_markov_type_evaluates_sum_power():
    z = np.array([0.3, -0.9, 1.1])
    tm = he.named_type("markov", 3, 3, 1)
    assert np.allclose(tm.composed @ he.stp_power(z, 3), (z.sum() ** 2) * z)


def test_inner_product_type_display_n2():
    tm = he.named_type("inner-product", 2, 3, 1)
    expect = np.array([[1, 0, 0, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 1]], float)
    assert np.array_equal(tm.composed, expect)


def test_inner_product_type_evaluates_norm_scaling():
    z = np.array([0.5, -1.0, 2.0])
    tm = he.named_type("inner-product", 3, 3, 1)
    assert np.allclose(tm.composed @ he.stp_power(z, 3), (z @ z) * z)


def test_inner_product_type_requires_degree_three():
    with pytest.raises(ValueError):
        he.type_inner_product(2, 4)


def test_identity_power_type():
    tm = he.named_type("identity-power", 2, 3, 2)
    assert np.array_equal(tm.composed, np.eye(4))
    assert tm.input_power == 2
    assert not tm.factors


def test_unknown_named_type():
    with pytest.raises(ValueError):
        he.named_type("fourier", 2, 3, 1)


def test_compose_type_factorwise_action():
    rng = np.random.default_rng(10)
    n, r, s = 2, 2, 3
    Bs = [rng.uniform(-1, 1, size=(n, n**r)) for _ in range(s)]
    zs = [rng.uniform(-1, 1, size=n**r) for _ in range(s)]
    big = he.compose_type(Bs, n, r)
    assert big.shape == (n**s, n ** (r * s))
    lhs = big @ he.compose(zs)
    rhs = he.compose([B @ z for B, z in zip(Bs, zs)])
    assert np.allclose(lhs, rhs)
    # The STP chain B_1 ⋉ (I ⊗ B_2) ⋉ (I ⊗ B_3) gives the same matrix, bit for bit.
    chain = Bs[0]
    for j, b in enumerate(Bs[1:], start=1):
        chain = he.stp(chain, np.kron(np.eye(n ** (j * r)), b))
    assert np.array_equal(big, chain)


# ---------------------------------------------------------------------------
# Problem validation and power conversion
# ---------------------------------------------------------------------------


def test_problem_shape_validation():
    tm = he.named_type("markov", 2, 3, 1)
    with pytest.raises(ValueError):
        he.UEigenProblem(a=np.zeros((3, 8)), type_map=tm, mode="D")
    with pytest.raises(ValueError):
        he.UEigenProblem(a=np.zeros((2, 5)), type_map=tm, mode="D")
    with pytest.raises(ValueError):
        he.UEigenProblem(a=np.zeros((2, 4)), type_map=tm, mode="U")  # lhs power != 3
    idp = he.named_type("identity-power", 2, 2, 1)
    with pytest.raises(ValueError):
        he.UEigenProblem(a=np.zeros((2, 4)), type_map=idp, mode="U")


def test_raise_power_monic_anchor_identity():
    rng = np.random.default_rng(11)
    n, r, s = 2, 2, 2
    a = rng.uniform(-1, 1, size=(n**s, n**r))
    for e_x in range(1, n**r + 1):
        big = he.diagonal_index(e_x, n**r, s)
        atil = he.raise_power(a, big, n, r, s)
        assert atil.shape == (n**s, n ** (r * s))
        x = rng.uniform(-1, 1, size=n**r)
        x[e_x - 1] = 1.0
        assert np.allclose(atil @ he.stp_power(x, s), a @ x)


def test_raise_power_rejects_off_diagonal_anchor():
    a = np.zeros((4, 4))
    with pytest.raises(ValueError):
        he.raise_power(a, 2, 2, 2, 2)  # index 2 splits to (1, 2): not diagonal


def test_raise_power_single_copy_is_identity():
    a = np.arange(8.0).reshape(2, 4)
    assert np.array_equal(he.raise_power(a, 3, 2, 2, 1), a)


def test_lower_power_monic_identity():
    rng = np.random.default_rng(12)
    for n, (low, high) in itertools.product((1, 2, 3), [(1, 2), (1, 3), (2, 3)]):
        for mu_x in range(1, n + 1):
            E = he.lower_power_E(n, low, high, mu_x)
            # E by its definition: I_{n^low} ⊗ [(δ_n^μ)ᵀ]^{⊗(high−low)}.
            chain = np.ones((1, 1))
            for _ in range(high - low):
                chain = np.kron(chain, np.eye(n)[mu_x - 1].reshape(1, n))
            assert np.array_equal(E, np.kron(np.eye(n**low), chain))
            assert np.array_equal(he.lower_power_E(n, high, low, mu_x), E)
            z = rng.uniform(-1, 1, size=n)
            z[mu_x - 1] = 1.0
            assert np.allclose(E @ he.stp_power(z, high), he.stp_power(z, low))
    with pytest.raises(ValueError):
        he.lower_power_E(2, 2, 2, 1)


def test_power_conversions_equal_their_selector_products():
    rng = np.random.default_rng(13)
    for n, r, s in itertools.product((1, 2, 3), (1, 2), (1, 2, 3)):
        a = rng.uniform(-1, 1, size=(n, n**r))
        b = rng.uniform(-1, 1, size=(n, n**s))
        for mu_x in range(1, n + 1):
            pencil = he.build_d_pencil(a, b, n, r, s, mu_x)
            if r < s:
                assert np.array_equal(pencil.a, a @ he.lower_power_E(n, r, s, mu_x))
            elif r > s:
                assert np.array_equal(pencil.b, b @ he.lower_power_E(n, r, s, mu_x))
        if s > 1:
            e = he.diagonal_index(n**r, n**r, s)
            assert np.array_equal(
                he.raise_power(a, e, n, r, s), a @ he.xi_matrix(e, 1, (n**r,) * s)
            )


def test_consistency_rows_equal_their_selector_differences():
    for n, t in itertools.product((1, 2, 3), (1, 2, 3, 4)):
        dims = (n,) * t
        for e0 in range(1, n + 1):
            anchor = he.diagonal_index(e0, n, t)
            first = he.xi_matrix(anchor, 1, dims)
            want = np.vstack(
                [np.zeros((0, n**t))]
                + [first - he.xi_matrix(anchor, i, dims) for i in range(2, t + 1)]
            )
            got = he.u_eigen._consistency_rows(anchor, n, t)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # same bits, signed zeros too


def test_build_d_pencil_shapes():
    n = 2
    a_eq = np.ones((2, 8))
    b_eq = np.ones((2, 8))
    assert he.build_d_pencil(a_eq, b_eq, n, 3, 3, 1).shape == (2, 8)
    a_low = np.ones((2, 4))
    assert he.build_d_pencil(a_low, b_eq, n, 2, 3, 1).shape == (2, 8)
    b_low = np.ones((2, 4))
    assert he.build_d_pencil(a_eq, b_low, n, 3, 2, 1).shape == (2, 8)


# ---------------------------------------------------------------------------
# Witness solvers on the bundled problems
# ---------------------------------------------------------------------------


def _witness_set(witnesses):
    out = set()
    for w in witnesses:
        z = w.decomposition.components[0]
        out.add((w.case, round(w.lam, 6), tuple(round(float(v), 6) for v in z)))
    return out


def test_d_solve_cubic_markov_witnesses():
    """x_i^3 = lam*(x1+x2)^2*x_i admits (1,0)@1, (0,1)@1 and (1,1)@0.25 exactly."""
    prob = load_problem("ex_6_3_1.json")
    ws = he.d_solve(prob)
    assert all(w.diagonal for w in ws)
    assert all(w.residual <= 1e-10 for w in ws)
    assert _witness_set(ws) == {
        ((1,), 0.25, (1.0, 1.0)),
        ((1,), 1.0, (1.0, 0.0)),
        ((2,), 1.0, (0.0, 1.0)),
    }


def test_d_solve_quadratic_over_cubic_witnesses():
    """A z^2 = lam*B z^3 with unequal powers: the pencil is built by lowering."""
    prob = load_problem("ex_5_2_3.json")
    assert prob.lhs_power == 2
    assert prob.type_map.input_power == 3
    ws = he.d_solve(prob)
    assert _witness_set(ws) == {
        ((1,), 0.5, (1.0, 1.0)),
        ((1,), 1.0, (1.0, 0.0)),
        ((2,), 1.0, (0.0, 1.0)),
    }


def test_d_solve_rotation_type_matrix():
    prob = load_problem("ex_7_1i.json")
    ws = he.d_solve(prob)
    assert _witness_set(ws) == {((1,), 1.0, (1.0, -1.0))}


def test_d_solve_orthogonal_image_problem():
    """9x3 lhs against a 9x9 composed quadratic type: one monic witness (0,1,0) at 0."""
    prob = load_problem("ex_7_1ii.json")
    ws = he.d_solve(prob)
    assert len(ws) == 1
    w = ws[0]
    assert w.case == (2,)
    assert w.lam == pytest.approx(0.0, abs=1e-12)
    z = w.decomposition.components[0]
    assert np.allclose(z, [0.0, 1.0, 0.0], atol=1e-12)
    b1, b2 = prob.type_map.factors
    assert np.allclose(b1 @ z, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(b2 @ z, [0.0, 0.0, -1.0], atol=1e-12)


def test_u_solve_on_matrix_problem():
    prob_d = load_problem_dict("ex_7_1i.json")
    prob_d["mode"] = "U"
    prob = he.problem_from_dict(prob_d)
    ws = he.u_solve(prob)
    assert any(
        w.case == (1,)
        and abs(w.lam - 1.0) <= 1e-6
        and np.allclose(w.decomposition.components[0], [1.0, -1.0], atol=1e-6)
        and w.residual <= 1e-10
        for w in ws
    )


def test_u_solve_with_two_type_factors_matches_d_solve():
    """ex_7_1ii has p = r = 1 and s = 2: U mode splits ξ = x ⊗ x into two tied groups."""
    prob_d = load_problem_dict("ex_7_1ii.json")
    prob_d["mode"] = "U"
    prob = he.problem_from_dict(prob_d)
    ws = he.u_solve(prob)
    expected = he.d_solve(load_problem("ex_7_1ii.json"))
    assert [(w.case, w.lam) for w in ws] == [(w.case, w.lam) for w in expected]
    for w, d in zip(ws, expected):
        assert np.array_equal(w.xi, d.xi)
        assert np.array_equal(w.decomposition.components[0], d.decomposition.components[0])
    b1, b2 = prob.type_map.factors
    for w in ws:
        (x,) = w.decomposition.components
        assert np.allclose(prob.a @ x, w.lam * np.kron(b1 @ x, b2 @ x), atol=1e-12)


def test_component_split_requires_tied_groups():
    prob_d = load_problem_dict("ex_7_1ii.json")
    prob_d["mode"] = "U"
    eq = he.u_eigen._case_equation(he.problem_from_dict(prob_d), (2,))
    x, y = np.array([0.0, 1.0, 0.5]), np.array([0.0, 1.0, -0.5])
    rows = np.stack([np.kron(x, x), np.kron(x, y), np.kron(x[::-1], x[::-1])])
    kept, (split,) = he.u_eigen._components_of(eq, rows, 1e-8)
    # Row 1 is untied; row 2 is case (1,).
    assert kept.tolist() == [0]
    assert np.array_equal(split[0], x)


def test_solve_reports_case_facts_with_d_solve_witnesses():
    prob = load_problem("ex_6_3_1.json")
    result = he.solve(prob)
    assert [f.case for f in result.cases] == [(1,), (2,)]
    for f in result.cases:
        pencil = he.case_pencil(prob, f.case)
        assert np.array_equal(f.pencil.a, pencil.a) and np.array_equal(f.pencil.b, pencil.b)
        assert f.generic_rank == he.generic_rank(pencil)
        assert list(f.essential) == he.essential_eigenvalues_real(pencil)
    expected = he.d_solve(prob)
    assert [(w.case, w.lam) for w in result.witnesses] == [(w.case, w.lam) for w in expected]
    with pytest.raises(ValueError):
        he.case_pencil(prob, (3,))


def test_witnesses_satisfy_original_equation():
    prob = load_problem("ex_6_3_1.json")
    b = prob.type_map.composed
    for w in he.d_solve(prob):
        z = w.decomposition.components[0]
        lhs = prob.a @ he.stp_power(z, 3)
        rhs = w.lam * (b @ he.stp_power(z, 3))
        assert np.allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# Fixed-point iteration
# ---------------------------------------------------------------------------


def test_iteration_trace_and_convergence():
    prob = load_problem("ex_7_101.json")
    x0 = np.array([0.5915, -0.7467, -0.3043])
    history = []
    final = he.iterate_least_squares(prob, x0, history=history)
    assert history[0].k == 0
    assert history[0].lam == pytest.approx(-0.1163, abs=1e-3)
    assert history[0].residual == pytest.approx(0.1787, abs=1e-3)
    assert np.allclose(history[1].x, [0.6808, -0.7214, -0.1271], atol=5e-4)
    assert final.converged
    assert final.k <= 200
    assert final.residual <= 1e-3
    assert final.lam == pytest.approx(0.0413, abs=5e-3)
    assert np.allclose(np.abs(final.x), [0.8168, 0.5769, 0.0], atol=5e-3)


def test_iteration_history_is_consistent():
    prob = load_problem("ex_7_101.json")
    history = []
    final = he.iterate_least_squares(prob, [1.0, 1.0, 1.0], history=history)
    assert [s.k for s in history] == list(range(len(history)))
    assert history[-1] == final
    for s in history:
        assert abs(np.linalg.norm(s.x) - 1.0) <= 1e-12


def test_iteration_rejects_negative_max_iter():
    prob = load_problem("ex_7_101.json")
    with pytest.raises(ValueError, match="max_iter"):
        he.iterate_least_squares(prob, [1.0, 1.0, 1.0], max_iter=-1)


def test_iteration_rejects_a_start_vector_without_a_finite_norm():
    prob = load_problem("ex_7_101.json")
    for x0 in ([1e300, 1e300, 0.0], [np.inf, 0.0, 0.0], [np.nan, 1.0, 0.0]):
        with pytest.raises(ValueError, match="start vector has a non-finite norm"):
            he.iterate_least_squares(prob, x0)


def test_iteration_breakdown_on_annihilating_type():
    tm = he.TypeMap(n=2, r=1, s=1, factors=(np.zeros((2, 2)),))
    prob = he.UEigenProblem(a=np.eye(2), type_map=tm, mode="D")
    with pytest.raises(he.IterationBreakdown, match="type map annihilates"):
        he.iterate_least_squares(prob, [1.0, 0.0])


def test_iteration_on_a_square_pencil_says_it_needs_a_wide_one():
    prob = load_problem("ex_7_1i.json")
    with pytest.raises(he.IterationBreakdown, match="needs a wide pencil, not a 2x2 one"):
        he.iterate_least_squares(prob, [0.6, 0.8])


# ---------------------------------------------------------------------------
# Problem / options serialization
# ---------------------------------------------------------------------------


def test_problem_dict_roundtrip():
    d = load_problem_dict("ex_7_1ii.json")
    prob = he.problem_from_dict(d)
    back = he.problem_to_dict(prob)
    again = he.problem_from_dict(back)
    assert np.array_equal(prob.a, again.a)
    assert np.array_equal(prob.type_map.composed, again.type_map.composed)
    assert prob.mode == again.mode


def test_problem_dict_roundtrip_named_type():
    d = load_problem_dict("ex_6_3_1.json")
    prob = he.problem_from_dict(d)
    back = he.problem_to_dict(prob)
    assert back["type"] == d["type"]
    again = he.problem_from_dict(back)
    assert again.type_map.kind == "markov"
    assert np.array_equal(prob.a, again.a)
    assert np.array_equal(prob.type_map.composed, again.type_map.composed)
    assert again.mode == "D"


def test_problem_from_dict_missing_key():
    d = load_problem_dict("ex_6_3_1.json")
    del d["type"]
    with pytest.raises(ValueError):
        he.problem_from_dict(d)


def test_options_from_dict():
    opts = he.options_from_dict({"max_iter": 3}, seed=7)
    assert opts.max_iter == 3
    assert opts.seed == 7
    assert he.options_from_dict(None).seed == 42
    with pytest.raises(ValueError):
        he.options_from_dict({"no_such_option": 1})
    for not_an_object in (5, [["seed"]], "seed"):
        with pytest.raises(ValueError, match="options must be an object"):
            he.options_from_dict(not_an_object)
