"""The batched kernel search equals a candidate-at-a-time search, bit for bit.

The references below evaluate one candidate at a time: a Gauss–Newton run
per start (its Jacobian column by column), a monic decomposition per vector,
and, for tactic 2, a rank-1 screen per two-vector combination before it is
split.  The batched code must give the same floats, not merely close ones,
so that ``solve`` output stays byte-identical.
"""

import itertools
import math

import numpy as np
import pytest

import hypereig as he
from hypereig import pencil_eigen as pe
from hypereig import u_eigen as ue
from hypereig.hypervector import _decompose_rows, index_join


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


def _mu_one(x):
    """Position (1-based) of the first entry above 1e-10 of the largest magnitude."""
    mags = np.abs(x)
    return int(np.flatnonzero(mags > 1e-10 * float(np.max(mags)))[0]) + 1


def _monic_decompose_one(x, dims, recon_tol):
    """The monic decomposition algorithm on one vector: ``(e, c0, components)`` or None."""
    x = np.asarray(x, dtype=float)
    e = _mu_one(x)
    c0 = float(x[e - 1])
    comps = [he.extract_component(x, e, i, dims) / c0 for i in range(1, len(dims) + 1)]
    err = float(np.linalg.norm(c0 * _power_one(comps, 1) - x))
    if err > recon_tol * float(np.linalg.norm(x)):
        return None
    return e, c0, comps


def _split_one(eq, v, recon_tol):
    """One pencil vector split into the case's components, or None."""
    width = len(eq.case)
    d = _monic_decompose_one(v, (eq.n,) * (width * eq.xi), recon_tol)
    if d is None:
        return None
    comps = d[2]
    if any(np.max(np.abs(c - comps[j % width])) > ue._TIE_TOL for j, c in enumerate(comps)):
        return None
    try:
        on_case = tuple(_mu_one(c) for c in comps[:width]) == eq.case
    except IndexError:  # a component without a leading entry
        return None
    return comps[:width] if on_case else None


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
        w = ue._verify_rows(eq, [np.asarray(c, dtype=float)[None] for c in comps], [lam], opts)[0]
        if w is not None:
            found.append(w)

    total_free = sum(eq.n - anchor for anchor in eq.case)
    rng = np.random.default_rng(
        opts.seed + 1009 * (index_join(eq.case, eq.n, len(eq.case)) + 1)
    )
    for lam in ue._lambda_candidates(essential, opts):
        basis = he.kernel_basis(eq.pencil, lam)
        if not basis:
            continue
        kmat = np.column_stack(basis)
        for v in basis:
            comps = _split_one(eq, v, opts.recon_tol)
            if comps is not None:
                add(comps, lam)
        if 2 <= kmat.shape[1] <= ue._MAX_PAIR_KERNEL_DIM:
            for w in _screen_one_at_a_time(kmat, eq.n, ue._PAIR_ANGLES):
                comps = _split_one(eq, w, opts.recon_tol)
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


def _check_gauss_newton_case(name):
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


def _check_line_searches_and_stops():
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


def _without_lstsq_gufunc(monkeypatch):
    """Take NumPy 1.x's path, which has no stacked ``lstsq`` gufunc; count its one-row solves."""
    calls = []
    numpy_lstsq = np.linalg.lstsq
    monkeypatch.setattr(pe, "_lstsq_gufunc", None)
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or numpy_lstsq(*a, **k))
    return calls


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_gauss_newton_equals_one_start_at_a_time(name):
    _check_gauss_newton_case(name)


def test_batched_gauss_newton_keeps_each_line_search_and_stop():
    _check_line_searches_and_stops()


@pytest.mark.parametrize("name", sorted(CASES))
def test_gauss_newton_without_the_lstsq_gufunc_equals_one_start_at_a_time(monkeypatch, name):
    calls = _without_lstsq_gufunc(monkeypatch)
    _check_gauss_newton_case(name)
    assert calls


def test_gauss_newton_without_the_lstsq_gufunc_keeps_each_line_search_and_stop(monkeypatch):
    calls = _without_lstsq_gufunc(monkeypatch)
    _check_line_searches_and_stops()
    assert calls


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_stacked_lstsq_call_per_gauss_newton_iteration(monkeypatch, name):
    """Every iteration solves the steps of all its running rows in one gufunc call."""
    gufunc = pe._lstsq_gufunc
    if gufunc is None:
        pytest.skip("this NumPy has no stacked lstsq gufunc")
    eq, essential = _case(name)  # its Chebyshev fit calls np.linalg.lstsq
    stacks, jacobians = [], []

    def counted_gufunc(a, *args, **kwargs):
        stacks.append(len(a))
        return gufunc(a, *args, **kwargs)

    def one_row_lstsq(*args, **kwargs):
        raise AssertionError("a one-row np.linalg.lstsq call")

    batched = ue._gauss_newton

    def counted_gauss_newton(fun, starts, max_iter):
        m = starts.shape[1]
        assert 2 * m != 24  # a Jacobian call differs from a short line search

        def counted_fun(points, owners):
            running = np.unique(owners)
            if np.array_equal(owners, np.repeat(running, 2 * m)):  # one per iteration
                jacobians.append(running.size)
            return fun(points, owners)

        return batched(counted_fun, starts, max_iter)

    monkeypatch.setattr(pe, "_lstsq_gufunc", counted_gufunc)
    monkeypatch.setattr(np.linalg, "lstsq", one_row_lstsq)
    monkeypatch.setattr(ue, "_gauss_newton", counted_gauss_newton)
    assert ue._search_case(eq, essential, he.SolveOptions())
    assert len(jacobians) > 10 and max(jacobians) > 1
    assert stacks == jacobians


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


def _product_rows(rng, dims, count):
    """Products ``c0·x_1 ⊗ … ⊗ x_r`` whose components start with zeros at random."""
    rows = []
    for _ in range(count):
        comps = []
        for n in dims:
            c = rng.standard_normal(n)
            c[: rng.integers(n)] = 0.0
            comps.append(c)
        rows.append(rng.uniform(0.5, 2.0) * he.compose(comps))
    return rows


def _decomposition_rows(rng, dims):
    """Rows that exercise each step of the algorithm, with their labels."""
    size = math.prod(dims)
    rows = {"product": _product_rows(rng, dims, 8)}
    # Perturbations on a product's support around recon_tol = 1e-8: some
    # pass, some do not.
    near = []
    for offset in (1e-10, 1e-9, 3e-9, 1e-8, 3e-8):
        for x in _product_rows(rng, dims, 3):
            d = rng.standard_normal(size) * (x != 0)
            near.append(x + offset * float(np.linalg.norm(x)) * d / float(np.linalg.norm(d)))
    rows["near recon_tol"] = near
    # Entries at, just under and just over the μ floor (1e-10 of the peak)
    # before a product: an entry above the floor becomes the anchor.
    floor = []
    for x in _product_rows(rng, dims, 4):
        lead = int(np.flatnonzero(x)[0])
        peak = float(np.max(np.abs(x)))
        for scale in (0.5e-10, 1e-10, 2e-10, 1e-6):
            if lead:
                y = x.copy()
                y[lead - 1] = scale * peak
                floor.append(y)
    rows["mu floor"] = floor
    rows["entangled"] = [rng.standard_normal(size) for _ in range(4)] + [
        he.compose([np.eye(n)[0] for n in dims]) + he.compose([np.eye(n)[-1] for n in dims])
    ]
    # Ξ readings that are zero but for the anchor entry, which every reading
    # holds (so none is all zero): unit components.
    rows["unit readings"] = [
        he.compose([np.eye(n)[rng.integers(n)] for n in dims]) for _ in range(4)
    ]
    return rows


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2), (2, 3, 2), (4,), (2, 2, 2, 2, 2, 2)])
def test_batched_decomposition_equals_monic_decompose_row_by_row(dims):
    rng = np.random.default_rng(21)
    groups = _decomposition_rows(rng, dims)
    for recon_tol in (1e-8, 1e-4):
        verdicts = {}
        for label, rows in groups.items():
            kept, e, c0, comps = _decompose_rows(np.array(rows), dims, recon_tol)
            verdicts[label] = kept.size
            accepted = dict(zip(kept.tolist(), range(kept.size)))
            for i, x in enumerate(rows):
                want = _monic_decompose_one(x, dims, recon_tol)
                one = he.monic_decompose(x, dims, recon_tol)
                assert (want is None) == (one is None) == (i not in accepted)
                if want is None:
                    continue
                k = accepted[i]
                assert e[k] == one.e == want[0]
                assert c0[k] == one.c0 == want[1]
                for got, single, ref in zip(comps, one.components, want[2]):
                    assert np.array_equal(got[k], ref) and np.array_equal(single, ref)
        assert verdicts["product"] == 8 and verdicts["unit readings"] == 4
        if len(dims) > 1:  # one factor: every vector decomposes
            assert verdicts["entangled"] == 0 and verdicts["mu floor"] > 0
            if recon_tol == 1e-8:
                assert 0 < verdicts["near recon_tol"] < 15


def _rank_one_kernel(rng, eq, dim, offset=0.0):
    """Kernel columns: two case products ``ξ = x^xi``, each ``offset`` times a
    second product away from it, and random ones."""
    free = sum(eq.n - anchor for anchor in eq.case)

    def product():
        return _power_one(_unpack_one(eq, rng.standard_normal(free)), eq.xi)

    cols = [rng.uniform(0.5, 2.0) * product() + offset * product() for _ in range(2)]
    cols += [rng.standard_normal(eq.n ** (len(eq.case) * eq.xi)) for _ in range(dim - 2)]
    return np.column_stack(cols)


@pytest.mark.parametrize("angles", [24, 6, 5])
def test_batched_split_accepts_what_the_screen_and_split_accept(monkeypatch, angles):
    """Tactic 2 without its rank-1 screen accepts the same combinations."""
    monkeypatch.setattr(ue, "_PAIR_ANGLES", angles)
    rng = np.random.default_rng(13)
    accepted = []
    for name in sorted(CASES):
        eq, _ = _case(name)
        kernels = [_kernel(eq), _kernel(eq, 1.0)]
        kernels += [_rank_one_kernel(rng, eq, dim) for dim in (2, 3, 8)]
        for offset in (1e-7, 3e-7, 6e-7, 1e-6, 2e-6, 5e-6, 1e-4, 1e-2):
            kernels.append(_rank_one_kernel(rng, eq, 3, offset))
        for kmat in kernels:
            want = [
                (w, comps)
                for w in _screen_one_at_a_time(kmat, eq.n, angles)
                if (comps := _split_one(eq, w, 1e-8)) is not None
            ]
            combos = ue._pair_combinations(kmat)
            rows, comps = ue._components_of(eq, combos, 1e-8)
            assert len(rows) == len(want)
            for i, (k, (w, ref)) in enumerate(zip(rows, want)):
                assert np.array_equal(combos[k], w)
                assert all(np.array_equal(c[i], r) for c, r in zip(comps, ref))
            accepted.append(len(want))
    # θ = 0 keeps each product column; θ = π/2 is on the grid only for an even count.
    assert any(accepted) and not all(accepted)
    assert accepted[2] == (2 if angles % 2 == 0 else 1)


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
