"""The batched kernel search equals a candidate-at-a-time search, bit for bit.

The references below evaluate one candidate at a time: a Gauss–Newton run
per start (its Jacobian column by column) and a rank-1 screen per
two-vector combination.  The batched code must give the same floats, not
merely close ones, so that ``solve`` output stays byte-identical.
"""

import itertools
import math

import numpy as np
import pytest

import hypereig as he
from hypereig import u_eigen as ue
from hypereig.hypervector import index_join


# ---------------------------------------------------------------------------
# One-candidate-at-a-time references
# ---------------------------------------------------------------------------


def _gauss_newton_one(fun, x0, max_iter):
    """Damped Gauss–Newton from one start with a finite-difference Jacobian."""
    x = np.asarray(x0, dtype=float).copy()
    f = fun(x)
    fnorm = float(np.linalg.norm(f))
    for _ in range(max_iter):
        if fnorm < 1e-14:
            break
        jac = np.empty((f.size, x.size))
        for j in range(x.size):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            jac[:, j] = (fun(xp) - fun(xm)) / (2 * h)
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        scale = 1.0
        accepted = False
        for _ in range(25):
            xn = x + scale * step
            fn = fun(xn)
            fn_norm = float(np.linalg.norm(fn))
            if fn_norm < fnorm:
                x, f, fnorm = xn, fn, fn_norm
                accepted = True
                break
            scale /= 2.0
        if not accepted or float(np.linalg.norm(step)) * scale < 1e-15 * max(
            1.0, float(np.linalg.norm(x))
        ):
            break
    return x


def _rank_one_factor(w, n):
    svals = np.linalg.svd(w.reshape(n, -1), compute_uv=False)
    return svals.size < 2 or svals[1] <= 1e-6 * max(svals[0], np.finfo(float).tiny)


def _screen_one_at_a_time(kmat, n, angles):
    kept = []
    for i, j in itertools.combinations(range(kmat.shape[1]), 2):
        for theta in np.linspace(0.0, np.pi, angles, endpoint=False):
            w = math.cos(theta) * kmat[:, i] + math.sin(theta) * kmat[:, j]
            if _rank_one_factor(w, n):
                kept.append(w)
    return kept


def _power_one(comps, k):
    x = comps[0]
    for c in comps[1:]:
        x = np.multiply.outer(x, c).ravel()
    out = x
    for _ in range(k - 1):
        out = np.multiply.outer(out, x).ravel()
    return out


def _unpack_one(eq, u):
    comps, pos = [], 0
    for anchor in eq.case:
        size = eq.n - anchor
        v = np.zeros(eq.n)
        v[anchor - 1] = 1.0
        v[anchor:] = u[pos : pos + size]
        comps.append(v)
        pos += size
    return comps


def _search_case_one_at_a_time(eq, essential, opts):
    """All four tactics, one candidate at a time, verified in the same order."""
    found = []

    def add(comps, lam):
        w = ue._verify_witness(eq, comps, lam, opts)
        if w is not None:
            found.append(w)

    total_free = sum(eq.n - anchor for anchor in eq.case)
    rng = np.random.default_rng(
        opts.seed + 1009 * (index_join(eq.case, eq.n, len(eq.case)) + 1)
    )
    for lam in ue._lambda_candidates(essential, opts):
        basis = he.kernel_basis(eq.pencil, lam, opts.rank_tol)
        if not basis:
            continue
        kmat = np.column_stack(basis)
        for v in basis:
            comps = ue._components_of(eq, v, opts.recon_tol)
            if comps is not None:
                add(comps, lam)
        if 2 <= kmat.shape[1] <= ue._MAX_PAIR_KERNEL_DIM:
            for w in _screen_one_at_a_time(kmat, eq.n, ue._PAIR_ANGLES):
                comps = ue._components_of(eq, w, opts.recon_tol)
                if comps is not None:
                    add(comps, lam)
        if total_free:
            for _ in range(ue._PROJ_STARTS):
                u0 = rng.standard_normal(total_free)

                def proj_resid(u):
                    xi = _power_one(_unpack_one(eq, u), eq.xi)
                    return xi - kmat @ (kmat.T @ xi)

                u = _gauss_newton_one(proj_resid, u0, ue._NEWTON_MAX_ITER)
                add(_unpack_one(eq, u), lam)
    for _ in range(ue._NEWTON_STARTS):
        w0 = np.append(rng.standard_normal(total_free), rng.standard_normal())

        def orig_resid(w):
            comps = _unpack_one(eq, w[:-1])
            lhs = eq.a @ _power_one(comps, eq.lhs)
            return lhs - w[-1] * (eq.bt @ _power_one(comps, eq.rhs))

        w = _gauss_newton_one(orig_resid, w0, ue._NEWTON_MAX_ITER)
        add(_unpack_one(eq, w[:-1]), float(w[-1]))
        add(_unpack_one(eq, w[:-1]), None)
    return found


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def _random_problem(mode, p, r, seed):
    rng = np.random.default_rng(seed)
    a = np.round(rng.standard_normal((2, 2**p)), 4)
    b = np.round(rng.standard_normal((2, 2**r)), 4)
    return he.UEigenProblem(a=a, type_map=he.TypeMap(n=2, r=r, s=1, factors=(b,)), mode=mode)


#: A D case (p = 2, r = 3) and a U case with r = 3, each over a 2 × 8 pencil.
CASES = {
    "D": (_random_problem("D", 2, 3, 5), (1,)),
    "U-r3": (_random_problem("U", 3, 3, 6), (1, 1, 2)),
}


def _case(name):
    prob, case = CASES[name]
    eq = ue._case_equation(prob, case)
    essential = he.essential_eigenvalues_real(eq.pencil, seed=42)
    return eq, essential


def _kernel(eq, lam=0.0):
    return np.column_stack(he.kernel_basis(eq.pencil, lam))


def _proj_resid_one(eq, kmat):
    def fun(u):
        xi = _power_one(_unpack_one(eq, u), eq.xi)
        return xi - kmat @ (kmat.T @ xi)

    return fun


def _proj_resid_rows(eq, kmat):
    def fun(u, owners):
        comps = [np.stack(c) for c in zip(*(_unpack_one(eq, row) for row in u))]
        xi = ue._power(comps, eq.xi)
        return xi - ue._matvecs(kmat, ue._matvecs(kmat.T, xi))

    return fun


def _orig_resid_one(eq):
    def fun(w):
        comps = _unpack_one(eq, w[:-1])
        lhs = eq.a @ _power_one(comps, eq.lhs)
        return lhs - w[-1] * (eq.bt @ _power_one(comps, eq.rhs))

    return fun


def _orig_resid_rows(eq):
    def fun(w, owners):
        comps = [np.stack(c) for c in zip(*(_unpack_one(eq, row[:-1]) for row in w))]
        lhs, rhs = ue._sides(eq, comps)
        return lhs - w[:, -1:] * rhs

    return fun


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_gauss_newton_equals_one_start_at_a_time(name):
    eq, _ = _case(name)
    kmat = _kernel(eq)
    free = sum(eq.n - anchor for anchor in eq.case)
    rng = np.random.default_rng(11)
    for resid_rows, resid_one, width in (
        (_proj_resid_rows(eq, kmat), _proj_resid_one(eq, kmat), free),
        (_orig_resid_rows(eq), _orig_resid_one(eq), free + 1),
    ):
        starts = rng.standard_normal((9, width))
        ends = ue._gauss_newton(resid_rows, starts, ue._NEWTON_MAX_ITER)
        for start, end in zip(starts, ends):
            assert np.array_equal(end, _gauss_newton_one(resid_one, start, ue._NEWTON_MAX_ITER))


def test_batched_gauss_newton_keeps_each_line_search_and_stop():
    """A rough residual whose line searches accept at every depth up to the
    25th trial, or fail, and whose runs stop at different iterations."""

    def one(x):
        return np.array([np.sin(40 * x[0]) + 0.05 * x[0] - 0.3,
                         np.abs(x[1]) ** 0.5 - 0.2,
                         x[0] * x[1] - 0.01])

    def rows(x, owners):
        return np.stack([np.sin(40 * x[:, 0]) + 0.05 * x[:, 0] - 0.3,
                         np.abs(x[:, 1]) ** 0.5 - 0.2,
                         x[:, 0] * x[:, 1] - 0.01], axis=1)

    starts = 3 * np.random.default_rng(3).standard_normal((40, 2))
    for max_iter in (0, 1, 7, 60):
        ends = ue._gauss_newton(rows, starts, max_iter)
        for start, end in zip(starts, ends):
            assert np.array_equal(end, _gauss_newton_one(one, start, max_iter))


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_powers_and_sides_equal_one_point_at_a_time(name):
    eq, _ = _case(name)
    rng = np.random.default_rng(12)
    points = [_unpack_one(eq, rng.standard_normal(eq.n * len(eq.case))) for _ in range(7)]
    stacks = [np.stack(c) for c in zip(*points)]
    lhs, rhs = ue._sides(eq, stacks)
    for k in (1, 2, 3):
        powers = ue._power(stacks, k)
        for row, comps in enumerate(points):
            assert np.array_equal(powers[row], _power_one(comps, k))
            assert np.array_equal(ue._power(comps, k), _power_one(comps, k))
    for row, comps in enumerate(points):
        assert np.array_equal(lhs[row], eq.a @ _power_one(comps, eq.lhs))
        assert np.array_equal(rhs[row], eq.bt @ _power_one(comps, eq.rhs))


def _rank_one_kernel(rng, n, width, dim, offset=0.0):
    """Kernel columns: two rank-1 reshapes, ``offset`` times a second rank-1 term
    away from it (survivors of the pair screen when small), and random ones."""
    cols = [
        np.kron(rng.standard_normal(n), rng.standard_normal(width))
        + offset * np.kron(rng.standard_normal(n), rng.standard_normal(width))
        for _ in range(2)
    ]
    cols += [rng.standard_normal(n * width) for _ in range(dim - 2)]
    return np.column_stack(cols)


@pytest.mark.parametrize("angles", [24, 6, 5])
def test_stacked_pair_screen_equals_one_combination_at_a_time(monkeypatch, angles):
    monkeypatch.setattr(ue, "_PAIR_ANGLES", angles)
    rng = np.random.default_rng(13)
    for name in sorted(CASES):
        eq, _ = _case(name)
        kernels = [_kernel(eq), _kernel(eq, 1.0)]
        kernels += [_rank_one_kernel(rng, 2, 4, dim) for dim in (2, 3, 8)]
        for kmat in kernels:
            want = _screen_one_at_a_time(kmat, eq.n, angles)
            got = ue._rank_one_pairs(kmat, eq.n)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # Second singular values around the screen's 1e-6 threshold: the stacked
    # screen keeps exactly the combinations the per-combination SVD keeps.
    kept = []
    for offset in (1e-7, 3e-7, 6e-7, 1e-6, 2e-6, 5e-6, 1e-4, 1e-2):
        for n, width in ((2, 4), (3, 3)):
            kmat = _rank_one_kernel(rng, n, width, 3, offset)
            want = _screen_one_at_a_time(kmat, n, angles)
            got = ue._rank_one_pairs(kmat, n)
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            kept.append(len(want) > 0)
    assert any(kept) and not all(kept)
    # θ = 0 keeps each rank-1 column; θ = π/2 is on the grid only for an even count.
    assert len(ue._rank_one_pairs(_rank_one_kernel(rng, 2, 4, 2), 2)) == (
        2 if angles % 2 == 0 else 1
    )


def _same_witnesses(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.case == w.case
        assert g.lam == w.lam and g.residual == w.residual
        assert np.array_equal(g.xi, w.xi)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(g.decomposition.components, w.decomposition.components)
        )


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_search_equals_one_candidate_at_a_time(name):
    eq, essential = _case(name)
    opts = he.SolveOptions()
    got = ue._search_case(eq, essential, opts)
    assert got  # the case has witnesses to compare
    _same_witnesses(got, _search_case_one_at_a_time(eq, essential, opts))


def test_patched_sample_sizes_are_honoured(monkeypatch):
    for attr, value in (("_PAIR_ANGLES", 5), ("_PROJ_STARTS", 2), ("_NEWTON_STARTS", 3)):
        monkeypatch.setattr(ue, attr, value)
    shapes = []
    batched = ue._gauss_newton

    def spy(fun, starts, max_iter):
        shapes.append(starts.shape)
        return batched(fun, starts, max_iter)

    monkeypatch.setattr(ue, "_gauss_newton", spy)
    eq, essential = _case("U-r3")
    opts = he.SolveOptions()
    got = ue._search_case(eq, essential, opts)
    free = sum(eq.n - anchor for anchor in eq.case)
    kernels = sum(
        bool(he.kernel_basis(eq.pencil, lam)) for lam in ue._lambda_candidates(essential, opts)
    )
    # Tactic 3: two starts per kernel, all kernels in one batch; tactic 4: three starts.
    assert shapes == [(2 * kernels, free), (3, free + 1)]
    _same_witnesses(got, _search_case_one_at_a_time(eq, essential, opts))
