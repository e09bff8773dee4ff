"""Acceptance checks: bundled-problem reproductions and randomized property suites.

Each ``test_aNN`` function asserts one published behavior of the library at its
stated tolerance.  Tests that pin stored target values say in their docstrings
how each target is worked out by hand, independently of the implementation.
"""

import numpy as np
import pytest

import hypereig as he
from conftest import load_problem

# The 2x3 pencil used by the first two checks.
A23 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
B23 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _projection_residual(target, basis):
    q = np.column_stack(basis)
    t = np.asarray(target, dtype=float)
    return float(np.linalg.norm(t - q @ (q.T @ t)))


# ---------------------------------------------------------------------------
# 1-2: pencil analysis on the 2x3 example
# ---------------------------------------------------------------------------


def test_a01_pencil_rank_essential_kernel_and_reduction():
    pen = he.Pencil(A23, B23)
    assert he.generic_rank(pen) == 2
    essential = he.essential_eigenvalues_real(pen)
    assert len(essential) == 1
    assert abs(essential[0] - 1.0) <= 1e-8
    for lam in (0.7, 2.3, -1.2):
        basis = he.kernel_basis(pen, lam)
        assert len(basis) == 1
        v = basis[0] / basis[0][2]
        assert np.allclose(v, [0.0, lam, 1.0], atol=1e-8)
    psi, apsi = he.psi_reduction(pen)
    assert np.array_equal(apsi, [[1.0, 0.0], [0.0, 0.0]])
    assert sorted(np.linalg.eigvals(apsi).real) == [0.0, 1.0]
    assert he.classify(pen, 0.0, rg=2) == he.EigenClass.QUASI
    assert he.classify(pen, 1.0, rg=2) == he.EigenClass.ESSENTIAL


def test_a02_kernel_plane_at_unit_eigenvalue():
    pen = he.Pencil(A23, B23)
    basis = he.kernel_basis(pen, 1.0)
    assert len(basis) == 2
    for v in basis:
        assert np.linalg.norm(pen.at(1.0) @ v) <= 1e-12
    assert _projection_residual([1.0, 0.0, 0.0], basis) <= 1e-10
    assert _projection_residual([0.0, 1.0, 1.0], basis) <= 1e-10


def test_a02b_stored_kernel_pair_span_equality():
    """At lambda = 1 the pencil is A - B = [[0,0,0],[0,1,-1]], whose only
    condition is x2 = x3: the kernel plane is span{(1,0,0),(0,1,1)}.  Both
    stored vectors lie in the two-dimensional kernel basis, so the spans are
    equal.  ((0,1,-1) is not a kernel vector: (A - B) @ (0,1,-1) = (0,2).)"""
    pen = he.Pencil(A23, B23)
    basis = he.kernel_basis(pen, 1.0)
    assert len(basis) == 2
    assert _projection_residual([1.0, 0.0, 0.0], basis) <= 1e-10
    assert _projection_residual([0.0, 1.0, 1.0], basis) <= 1e-10


# ---------------------------------------------------------------------------
# 3-4: witness solvers on the cubic problems
# ---------------------------------------------------------------------------


def _monic_witnesses(witnesses):
    return {
        (w.case, round(w.lam, 9), tuple(round(float(v), 9) for v in
                                        w.decomposition.components[0]))
        for w in witnesses
    }


def test_a03_unit_basis_witnesses_at_one():
    prob = load_problem("ex_6_3_1.json")
    ws = he.d_solve(prob)
    found = _monic_witnesses(ws)
    assert ((1,), 1.0, (1.0, 0.0)) in found
    assert ((2,), 1.0, (0.0, 1.0)) in found
    assert all(w.residual <= 1e-10 for w in ws)
    for case in ((1,), (2,)):
        assert he.essential_eigenvalues_real(he.case_pencil(prob, case)) == []


def test_a03b_witness_list_has_exactly_two_members():
    """The monic real solutions of z_i^3 = lambda*(z1+z2)^2*z_i are exactly
    three.  Case z = (0,1): 1 = lambda.  Case z = (1,t): the first equation
    gives lambda*(1+t)^2 = 1, so the second reads t^3 = t, i.e. t in {0,1,-1};
    t = 0 gives (1,0) at 1, t = 1 gives (1,1) at 1/4 (1 = 4/4), and t = -1
    would need 1 = lambda*0.  (Equivalently: with both entries nonzero,
    z1^2 = z2^2, and (1,-1) is excluded.)  The name predates the third
    member; the check is that the witness set is exactly this one."""
    prob = load_problem("ex_6_3_1.json")
    found = _monic_witnesses(he.d_solve(prob))
    assert found == {
        ((1,), 1.0, (1.0, 0.0)),
        ((2,), 1.0, (0.0, 1.0)),
        ((1,), 0.25, (1.0, 1.0)),
    }


def test_a04_free_component_family_witnesses():
    prob = load_problem("ex_6_3_2.json")
    ws = he.u_solve(prob)
    for theta in (0.0, 1.0, 2.5):
        hits = [
            w for w in ws
            if w.case == (2, 1, 2)
            and abs(w.lam - 1.0) <= 1e-9
            and np.allclose(w.decomposition.components[0], [0.0, 1.0], atol=1e-9)
            and np.allclose(w.decomposition.components[1], [1.0, theta], atol=1e-9)
            and np.allclose(w.decomposition.components[2], [0.0, 1.0], atol=1e-9)
        ]
        assert hits, f"no witness with middle component (1, {theta})"
        assert all(w.residual <= 1e-10 for w in hits)
        assert all(w.family for w in hits)


# ---------------------------------------------------------------------------
# 5-6: matrix-type problems
# ---------------------------------------------------------------------------


def test_a05_square_pencil_double_eigenvalue():
    prob = load_problem("ex_7_1i.json")
    pen = he.case_pencil(prob, (1,))
    eigs = he.square_pencil_eigen(pen)
    assert np.allclose(sorted(eigs.real), [1.0, 1.0], atol=1e-9)
    assert np.allclose(eigs.imag, 0.0, atol=1e-9)
    basis = he.kernel_basis(pen, 1.0)
    assert len(basis) == 1
    _, z = he.monicize(basis[0])
    assert np.allclose(z, [1.0, -1.0], atol=1e-12)
    b = prob.type_map.factors[0]
    assert abs(z @ (b @ z)) <= 1e-12


def test_a06_sole_witness_and_orthogonal_images():
    prob = load_problem("ex_7_1ii.json")
    ws = he.d_solve(prob)
    assert len(ws) == 1
    w = ws[0]
    assert abs(w.lam) <= 1e-12
    z = w.decomposition.components[0]
    assert np.allclose(z, [0.0, 1.0, 0.0], atol=1e-12)
    b1, b2 = prob.type_map.factors
    y1, y2 = b1 @ z, b2 @ z
    assert np.allclose(y1, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(y2, [0.0, 0.0, -1.0], atol=1e-12)
    assert abs(y1 @ z) <= 1e-12
    assert abs(y2 @ z) <= 1e-12


def test_a06b_case_pencil_generic_rank_is_five():
    """The case-(2,) pencil of ex_7_1ii.json is A*E - lambda*Bt with
    Bt = B1 (x) B2 (9x9) and E*z^2 = z for z_2 = 1; its generic rank is 6.
    Rows (i,1) of Bt vanish because row 1 of B2 is zero, and A*E is nonzero
    only in row (1,1), which is e1 (x) e2, and row (3,3), which is e3 (x) e2.
    So row (1,1) of the pencil is e1 (x) e2, a vector in Bt's row space
    R^3 (x) span(e2, e3); row (3,3) is -(1 + lambda) times Bt's row (3,3);
    every other row is -lambda times Bt's row.  For lambda not in {0, -1} the
    rank is therefore rank B1 * rank B2 = 3 * 2 = 6 (it drops to 2 at 0 and
    to 5 at -1).  The name predates this reckoning; the target is 6."""
    prob = load_problem("ex_7_1ii.json")
    assert he.generic_rank(he.case_pencil(prob, (2,))) == 6


# ---------------------------------------------------------------------------
# 7: least-squares iteration trajectory
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trajectory():
    prob = load_problem("ex_7_101.json")
    history = []
    final = he.iterate_least_squares(
        prob, [0.5915, -0.7467, -0.3043], history=history
    )
    return prob, history, final


def test_a07_iteration_start_and_converged_residual(trajectory):
    prob, history, final = trajectory
    assert history[0].lam == pytest.approx(-0.1163, abs=1e-3)
    assert history[0].residual == pytest.approx(0.1787, abs=1e-3)
    assert final.converged
    assert final.k <= 200
    assert final.residual <= 0.0206
    assert np.all(np.abs(final.x - np.array([0.8021, -0.5951, -0.0495])) <= 5e-2)
    for case in ((1,), (2,), (3,)):
        assert he.essential_eigenvalues_real(he.case_pencil(prob, case)) == []


# The real eigenpair of ex_7_101.json next to the iteration's limit.
Z_STAR = np.array([0.816848, -0.576853, 0.0])
LAM_STAR = 0.0412955


def test_a07b_converged_eigenvalue_is_small(trajectory):
    """The converged eigenvalue lies within 1e-3 of the stored eigenvalue.

    ex_7_101.json is A z^3 = lambda |z|^2 z with n = 3.  Its real eigenpairs,
    enumerated on the chart z = (1,u,v) (resultant in u of the two cross
    conditions, degree 13 in v, the complex eigenpair count for order 4 and
    n = 3) plus the charts (0,1,v) and (0,0,1) (no solutions), are exactly
    three: lambda in {-0.226872, 0.0412955, 0.2883}, so none has
    |lambda| <= 1e-3.  A 20 000-start Newton solve on the unit sphere finds
    the same three.  The one next to the iteration's limit (and to the stored
    x of test_a07) is z* = (0.816848, -0.576853, 0), lambda* = 0.0412955; the
    iteration stops by its step test at lambda = 0.041127, 1.7e-4 from it.
    The stored pair is itself checked against the original equation."""
    prob, _, final = trajectory
    lhs = prob.a @ he.stp_power(Z_STAR, prob.lhs_power)
    rhs = prob.type_map.composed @ he.stp_power(Z_STAR, prob.type_map.input_power)
    assert np.linalg.norm(lhs - LAM_STAR * rhs) <= 1e-6
    assert abs(final.lam - LAM_STAR) <= 1e-3


# ---------------------------------------------------------------------------
# 8-9: construction displays
# ---------------------------------------------------------------------------


def _delta_row(e, n):
    v = np.zeros((1, n))
    v[0, e - 1] = 1.0
    return v


def _from_nonzeros(shape, entries):
    m = np.zeros(shape)
    for (i, j), v in entries.items():
        m[i - 1, j - 1] = v
    return m


# Stored 4x16 targets for the four anchor cases (e1, e2).
B_TARGETS = {
    (1, 1): {(1, 1): 1, (2, 2): 1, (3, 9): 1, (4, 10): 1},
    (1, 2): {(1, 5): 1, (2, 6): 1, (3, 13): 1, (4, 14): 1},
    (2, 1): {(1, 3): 1, (2, 4): 1, (3, 11): 1, (4, 12): 1},
    (2, 2): {(1, 7): 1, (2, 8): 1, (3, 15): 1, (4, 16): 1},
}
A_TARGETS = {
    (1, 1): {(1, 1): 1, (1, 5): 2, (1, 9): 1, (2, 13): 1, (3, 5): 2, (3, 13): 1, (4, 9): 1},
    (1, 2): {(1, 2): 1, (1, 6): 2, (1, 10): 1, (2, 14): 1, (3, 6): 2, (3, 14): 1, (4, 10): 1},
    (2, 1): {(1, 3): 1, (1, 7): 2, (1, 11): 1, (2, 15): 1, (3, 7): 2, (3, 15): 1, (4, 11): 1},
    (2, 2): {(1, 4): 1, (1, 8): 2, (1, 12): 1, (2, 16): 1, (3, 8): 2, (3, 16): 1, (4, 12): 1},
}
A4 = np.array(
    [[1.0, 2, 1, 0], [0, 0, 0, 1], [0, 2, 0, 1], [0, 0, 1, 0]]
)


def _anchor_factors(e1, e2):
    return [
        np.kron(np.eye(2), _delta_row(e2, 2)),
        np.kron(_delta_row(e1, 2), np.eye(2)),
    ]


def test_a08_composed_type_matrices_bit_exact():
    for (e1, e2), target in B_TARGETS.items():
        big = he.compose_type(_anchor_factors(e1, e2), 2, 2)
        assert np.array_equal(big, _from_nonzeros((4, 16), target)), (e1, e2)


def test_a08b_raised_matrices_bit_exact():
    """Raising A4 at anchor e extracts x from kron(x, x) through the entries
    x_j * x_e = x_j, which sit at column 4(j-1)+e; so entry A_ij goes to
    (i, 4(j-1)+e) and Atilde @ kron(x, x) == A @ x whenever x_e = 1.  Row 1
    (1,2,1,0) gives (1,e), (1,4+e)=2, (1,8+e); row 2 (0,0,0,1) gives (2,12+e);
    row 3 (0,2,0,1) gives (3,4+e)=2, (3,12+e); row 4 (0,0,1,0) gives (4,8+e).
    All four rows are compared bit for bit."""
    for (e1, e2), target in A_TARGETS.items():
        e = he.index_join((e1, e2), 2, 2)
        atil = he.raise_power(A4, he.diagonal_index(e, 4, 2), 2, 2, 2)
        assert np.array_equal(atil, _from_nonzeros((4, 16), target)), (e1, e2)


def test_a08c_raised_matrices_anchor_rows_and_identity():
    rng = np.random.default_rng(7)
    for (e1, e2), target in A_TARGETS.items():
        e = he.index_join((e1, e2), 2, 2)
        atil = he.raise_power(A4, he.diagonal_index(e, 4, 2), 2, 2, 2)
        stored = _from_nonzeros((4, 16), target)
        assert np.array_equal(atil[[0, 2]], stored[[0, 2]]), (e1, e2)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=4)
            x[e - 1] = 1.0
            assert np.allclose(atil @ np.kron(x, x), A4 @ x, atol=1e-12)


def test_a09_named_type_displays_bit_exact():
    h = he.named_type("H", 2, 3, 1).composed
    assert np.array_equal(h, _from_nonzeros((2, 8), {(1, 1): 1, (2, 8): 1}))
    markov = he.named_type("markov", 2, 3, 1).composed
    assert np.array_equal(
        markov,
        [[1, 2, 0, 0, 0, 0, 1, 0], [0, 1, 0, 2, 0, 0, 0, 1]],
    )
    inner = he.named_type("inner-product", 2, 3, 1).composed
    assert np.array_equal(
        inner,
        [[1, 0, 0, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 1]],
    )


# ---------------------------------------------------------------------------
# 10: randomized property suites (1000 trials each)
# ---------------------------------------------------------------------------

TRIALS = 1000


def test_a10a_stp_algebra_laws():
    """Associativity, transpose reversal, and inverse reversal of the
    semi-tensor product over random shapes."""
    rng = np.random.default_rng(101)
    for _ in range(TRIALS):
        m1, n1, m2, n2, m3, n3 = rng.integers(1, 5, size=6)
        a = rng.uniform(-1, 1, size=(m1, n1))
        b = rng.uniform(-1, 1, size=(m2, n2))
        c = rng.uniform(-1, 1, size=(m3, n3))
        assert np.allclose(
            he.stp(he.stp(a, b), c), he.stp(a, he.stp(b, c)), atol=1e-10
        )
        assert np.allclose(he.stp(a, b).T, he.stp(b.T, a.T), atol=1e-12)
        k1, k2 = rng.integers(1, 4, size=2)
        sa = rng.uniform(-1, 1, size=(k1, k1)) + 3 * np.eye(k1)
        sb = rng.uniform(-1, 1, size=(k2, k2)) + 3 * np.eye(k2)
        assert np.allclose(
            np.linalg.inv(he.stp(sa, sb)),
            he.stp(np.linalg.inv(sb), np.linalg.inv(sa)),
            atol=1e-10,
        )


def test_a10b_monic_decomposition_roundtrip_and_uniqueness():
    """Decomposing c * (z1 x ... x zr) with monic factors recovers the factors
    and the scalar; redistributing the scalar across the factors leaves the
    monic decomposition unchanged."""
    rng = np.random.default_rng(102)
    for _ in range(TRIALS):
        r = int(rng.integers(2, 4))
        dims = tuple(int(d) for d in rng.integers(2, 4, size=r))
        comps = []
        for d in dims:
            v = rng.uniform(-1, 1, size=d)
            j = int(rng.integers(0, d))
            v[:j] = 0.0
            v[j] = 1.0
            comps.append(v)
        c = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        x = c * he.compose(comps)
        d = he.monic_decompose(x, dims)
        assert d is not None
        assert d.c0 == pytest.approx(c, rel=1e-9)
        for got, want in zip(d.components, comps):
            assert np.allclose(got, want, atol=1e-9)
        assert np.allclose(d.c0 * he.compose(d.components), x, atol=1e-9)
        ks = rng.uniform(0.5, 2.0, size=r) * rng.choice([-1.0, 1.0], size=r)
        d2 = he.monic_decompose(he.compose([k * v for k, v in zip(ks, comps)]), dims)
        assert d2 is not None and d2.e == d.e
        assert d2.c0 == pytest.approx(float(np.prod(ks)), rel=1e-9)
        for got, want in zip(d2.components, comps):
            assert np.allclose(got, want, atol=1e-9)


def test_a10c_index_map_roundtrips():
    """index_split/index_join invert each other, agree with the mixed-radix
    oracle, and diagonal_index equals joining r equal component indices."""
    rng = np.random.default_rng(103)
    for _ in range(TRIALS):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, 5))
        e = int(rng.integers(1, n**r + 1))
        comps = he.index_split(e, (n,) * r)
        assert he.index_join(comps, n, r) == e
        comps2 = tuple(int(v) for v in rng.integers(1, n + 1, size=r))
        assert he.index_split(he.index_join(comps2, n, r), (n,) * r) == comps2
        e0 = int(rng.integers(1, n + 1))
        assert he.diagonal_index(e0, n, r) == he.index_join((e0,) * r, n, r)
        dims = tuple(int(d) for d in rng.integers(2, 5, size=rng.integers(1, 5)))
        e3 = int(rng.integers(1, np.prod(dims) + 1))
        comps3 = he.index_split(e3, dims)
        assert (
            int(np.ravel_multi_index(tuple(c - 1 for c in comps3), dims)) + 1 == e3
        )


def test_a10d_flatten_unflatten_roundtrips():
    """flatten followed by unflatten with the same partition restores every
    entry of a random hypermatrix exactly."""
    rng = np.random.default_rng(104)
    for _ in range(TRIALS):
        order = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 4, size=order))
        h = he.Hypermatrix.from_array(rng.uniform(-1, 1, size=dims))
        ids = list(rng.permutation(order) + 1)
        split = int(rng.integers(0, order + 1))
        part = he.IndexPartition(
            rows=tuple(sorted(ids[:split])), cols=tuple(sorted(ids[split:]))
        )
        m = he.flatten(h, part)
        h2 = he.unflatten(m, dims, part)
        assert np.array_equal(h2.to_array(), h.to_array())


def test_a10e_type_composition_matches_factorwise_action():
    """The composed type matrix applied by semi-tensor product to stacked
    factor inputs equals the tensor of the per-factor images."""
    rng = np.random.default_rng(105)
    for _ in range(TRIALS):
        n = int(rng.integers(2, 4))
        r = int(rng.integers(1, 3))
        s = int(rng.integers(1, 4))
        Bs = [rng.uniform(-1, 1, size=(n, n**r)) for _ in range(s)]
        xs = [rng.uniform(-1, 1, size=n**r) for _ in range(s)]
        big = he.compose_type(Bs, n, r)
        lhs = np.asarray(he.stp_all([big, *xs])).ravel()
        rhs = he.compose([B @ x for B, x in zip(Bs, xs)])
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_a10f_witness_soundness(monkeypatch):
    """Every witness returned for 1000 random problems satisfies the original
    equation a @ z^p = lambda * b @ z^q to within 1e-7 relative residual.

    The search runs with cheap sample sizes: soundness must not depend on them."""
    rng = np.random.default_rng(106)
    for name, value in [
        ("_NEWTON_STARTS", 1),
        ("_PROJ_STARTS", 1),
        ("_QUASI_PROBES", 1),
        ("_PAIR_ANGLES", 6),
        ("_NEWTON_MAX_ITER", 15),
    ]:
        monkeypatch.setattr(he.u_eigen, name, value)
    total = 0
    for i in range(TRIALS):
        p = 1 + i % 2
        r = 1 + (i // 2) % 2
        a = rng.uniform(-1, 1, size=(2, 2**p))
        tm = he.TypeMap(n=2, r=r, s=1, factors=(rng.uniform(-1, 1, size=(2, 2**r)),))
        prob = he.UEigenProblem(a=a, type_map=tm, mode="D")
        for w in he.d_solve(prob):
            total += 1
            z = w.decomposition.components[0]
            lhs = a @ he.stp_power(z, p)
            rhs = w.lam * (tm.composed @ he.stp_power(z, r))
            assert (
                np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(lhs)) <= 1e-7
            )
    assert total >= TRIALS // 2  # the random families do produce witnesses


def test_a10g_witness_scaling_law():
    """Scaling a degree-(1, s) witness z by k rescales its eigenvalue by
    k^(1-s); restoring the monic normalization multiplies it by c0^(s-1) =
    k^(s-1), recovering the original eigenvalue.  k cycles {2, -1, 0.5}."""
    rng = np.random.default_rng(107)
    ks = (2.0, -1.0, 0.5)
    for i in range(TRIALS):
        n = int(rng.integers(2, 4))
        s = int(rng.integers(2, 4))
        tm = he.TypeMap(
            n=n, r=1, s=s,
            factors=tuple(rng.uniform(-1, 1, size=(n, n)) for _ in range(s)),
        )
        z = rng.uniform(-1, 1, size=n)
        z[0] = 1.0
        lam0 = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        u = tm.composed @ he.stp_power(z, s)
        a = lam0 * np.outer(u, np.eye(n)[0])
        assert np.linalg.norm(a @ z - lam0 * u) <= 1e-12
        k = ks[i % 3]
        w = k * z
        lam_k = lam0 * k ** (1 - s)
        resid = np.linalg.norm(a @ w - lam_k * (tm.composed @ he.stp_power(w, s)))
        assert resid <= 1e-9 * max(1.0, float(np.linalg.norm(a @ w)))
        c0, z_back = he.monicize(w)
        assert c0 == pytest.approx(k, rel=1e-12)
        assert np.allclose(z_back, z, atol=1e-12)
        assert lam_k * c0 ** (s - 1) == pytest.approx(lam0, rel=1e-9)
