"""Matrix pencils: generic rank, essential/quasi classification, kernels, QZ."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import hypereig as he
import hypereig.pencil_eigen as pe
from conftest import load_problem

# Wide 2x3 pencil whose rank drops from 2 to 1 exactly at lambda = 1.
A23 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
B23 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def test_numerical_rank_thresholds():
    assert he.numerical_rank(np.zeros((3, 3))) == 0
    assert he.numerical_rank(np.eye(3)) == 3
    m = np.diag([1.0, 1e-16])
    assert he.numerical_rank(m) == 1
    # Relative to the largest singular value: the scale does not matter.
    assert he.numerical_rank(np.ldexp(m, -600)) == 1
    assert he.numerical_rank(np.diag([1.0, 1e-11])) == 2
    assert he.numerical_rank(np.diag([1e-300, 1e-305])) == 2


def test_generic_rank_wide_pencil():
    assert he.generic_rank(he.Pencil(A23, B23)) == 2


def test_essential_set_of_wide_pencil():
    ess = he.essential_eigenvalues_real(he.Pencil(A23, B23))
    assert len(ess) == 1
    assert ess[0] == pytest.approx(1.0, abs=1e-8)


def test_kernel_at_generic_lambda_is_line():
    p = he.Pencil(A23, B23)
    for lam in (0.7, 2.3, -1.2):
        basis = he.kernel_basis(p, lam)
        assert len(basis) == 1
        v = basis[0] / basis[0][2]
        assert np.allclose(v, [0.0, lam, 1.0], atol=1e-12)


def test_kernel_at_rank_drop_is_plane():
    basis = he.kernel_basis(he.Pencil(A23, B23), 1.0)
    assert len(basis) == 2
    K = np.array(basis).T
    for v in ([1.0, 0.0, 0.0], [0.0, 1.0, 1.0]):
        v = np.asarray(v)
        c = np.linalg.lstsq(K, v, rcond=None)[0]
        assert np.linalg.norm(K @ c - v) <= 1e-10


def test_classification():
    p = he.Pencil(A23, B23)
    assert he.classify(p, 0.0) is he.EigenClass.QUASI
    assert he.classify(p, 1.0) is he.EigenClass.ESSENTIAL


@pytest.mark.parametrize("lam", [1j, -1j], ids=["i", "-i"])
def test_complex_eigenvalues_of_a_rotation_pencil_are_essential(lam):
    """``A − λI`` with ``A`` a rotation drops from rank 2 to 1 at λ = ±i."""
    p = he.Pencil(np.array([[0.0, -1.0], [1.0, 0.0]]), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert he.numerical_rank(p.at(lam)) == 1
        assert he.classify(p, lam) is he.EigenClass.ESSENTIAL
        sol = he.solution_at(p, lam)
    assert sol is not None and sol.eigen_class is he.EigenClass.ESSENTIAL
    assert len(sol.kernel) == 1
    assert sol.residual <= 1e-15
    assert he.classify(p, 0.5 + 1j) is None


def test_psi_reduction_reduced_matrix():
    p = he.Pencil(A23, B23)
    psi, apsi = he.psi_reduction(p)
    assert np.array_equal(apsi, np.array([[1.0, 0.0], [0.0, 0.0]]))
    lams, vecs = np.linalg.eig(apsi)
    for lam, v in zip(lams, vecs.T):
        # Eigenvectors of A@Psi map into the pencil kernel through Psi.
        assert np.linalg.norm(p.at(lam) @ (psi @ v)) <= 1e-12


def test_psi_reduction_requires_full_row_rank():
    with pytest.raises(ValueError):
        he.psi_reduction(he.Pencil(np.eye(2), np.array([[1.0, 0.0], [2.0, 0.0]])))


def test_square_pencil_double_eigenvalue():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    b = np.array([[0.0, 1.0], [-1.0, 0.0]])
    p = he.Pencil(a, b)
    lams = he.square_pencil_eigen(p)
    assert np.allclose(sorted(lams.real), [1.0, 1.0], atol=1e-9)
    assert np.allclose(lams.imag, 0.0, atol=1e-9)
    basis = he.kernel_basis(p, 1.0)
    assert len(basis) == 1
    v = basis[0] / basis[0][0]
    assert np.allclose(v, [1.0, -1.0], atol=1e-12)


def test_degenerate_square_pencil_raises():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(he.DegeneratePencilError):
        he.square_pencil_eigen(he.Pencil(m, m))


def test_solution_at_bundles_class_kernel_residual():
    p = he.Pencil(A23, B23)
    sol = he.solution_at(p, 1.0)
    assert sol is not None
    assert sol.eigen_class is he.EigenClass.ESSENTIAL
    assert len(sol.kernel) == 2
    assert sol.residual <= 1e-12
    square = he.Pencil(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert he.solution_at(square, 0.5) is None


def test_essential_scan_finds_clustered_and_multiple_roots():
    """A 9x9 pencil with generic rank 6 whose rank drops to 2 at 0 and to 5 at -1."""
    prob = load_problem("ex_7_1ii.json")
    p = he.case_pencil(prob, (2,))
    rg = he.generic_rank(p)
    assert rg == 6
    ess = sorted(he.essential_eigenvalues_real(p))
    assert len(ess) == 2
    assert ess[0] == pytest.approx(-1.0, abs=1e-6)
    assert ess[1] == pytest.approx(0.0, abs=1e-6)
    assert he.numerical_rank(p.at(0.0)) == 2
    assert he.numerical_rank(p.at(-1.0)) == 5
    # Independent coarse scan: no other real rank drop in [-3, 3].
    for lam in np.linspace(-3.0, 3.0, 241):
        if min(abs(lam - e) for e in ess) > 0.05:
            assert he.numerical_rank(p.at(lam)) == rg


def test_essential_scan_empty_for_positive_definite_distance():
    prob = load_problem("ex_7_101.json")
    p = he.Pencil(prob.a, prob.type_map.composed)
    assert he.generic_rank(p) == 3
    assert he.essential_eigenvalues_real(p) == []


def test_kernel_basis_orthonormal():
    rng = np.random.default_rng(9)
    a = rng.uniform(-1, 1, size=(3, 6))
    b = rng.uniform(-1, 1, size=(3, 6))
    basis = he.kernel_basis(he.Pencil(a, b), 0.37)
    K = np.array(basis)
    assert K.shape[0] == 3
    assert np.allclose(K @ K.T, np.eye(3), atol=1e-10)
    for v in basis:
        assert np.linalg.norm((a - 0.37 * b) @ v) <= 1e-10


@pytest.mark.parametrize("lam", [0.37, 0.37 + 0.0j, 0.37 + 0.5j])
def test_kernel_basis_vectors_own_their_data(lam):
    rng = np.random.default_rng(9)
    p = he.Pencil(rng.uniform(-1, 1, size=(3, 6)), rng.uniform(-1, 1, size=(3, 6)))
    m = p.at(lam)
    if np.iscomplexobj(m) and not m.imag.any():
        m = m.real
    expected = np.linalg.svd(m)[2][3:].conj()
    basis = he.kernel_basis(p, lam)
    assert len(basis) == 3
    for v, row in zip(basis, expected):
        assert v.base is None
        assert np.iscomplexobj(v) == (lam.imag != 0)
        assert np.array_equal(v, row)


@pytest.mark.parametrize("exponent", [-45, -70, -330])
def test_square_pencil_eigen_is_scale_free(exponent):
    """Scaling both sides by a power of two keeps the QZ eigenvalues of a regular pencil."""
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    expected = he.square_pencil_eigen(he.Pencil(a, b))
    scaled = he.square_pencil_eigen(he.Pencil(np.ldexp(a, exponent), np.ldexp(b, exponent)))
    np.testing.assert_allclose(scaled, expected, rtol=1e-12, atol=0.0)
    m = np.ldexp(np.array([[1.0, 0.0], [0.0, 0.0]]), exponent)
    with pytest.raises(he.DegeneratePencilError):
        he.square_pencil_eigen(he.Pencil(m, m))


# Planted pencils S·(diag(λ₁…λ_k) ⊕ L_ε blocks)·T: k planted λ and the ten
# shapes from 3x4 to 14x17 of the pencil benchmark.
PLANTED_SHAPES = [(2, (1,)), (3, (1,)), (4, (1,)), (3, (1, 1)), (5, (1, 2)),
                  (8, (1, 1)), (6, (2, 3)), (9, (1, 1, 1)), (11, (1, 1, 1)), (8, (2, 2, 2))]


def _planted_pencil(rng, k, epsilons):
    """Wide pencil whose real essential eigenvalues are exactly the returned λ."""
    lams = np.sort(rng.uniform(-2.0, 2.0, size=k))
    return _pencil_with_roots(rng, lams, epsilons), lams


def _pencil_with_roots(rng, lams, epsilons):
    """Wide pencil whose real essential eigenvalues are exactly ``lams``."""
    k = len(lams)
    core_a = [np.diag(lams)]
    core_b = [np.eye(k)]
    for eps in epsilons:  # L_ε = [I 0] − λ[0 I] keeps full row rank at every λ
        core_a.append(np.hstack([np.eye(eps), np.zeros((eps, 1))]))
        core_b.append(np.hstack([np.zeros((eps, 1)), np.eye(eps)]))
    a, b = sla.block_diag(*core_a), sla.block_diag(*core_b)
    s = np.eye(a.shape[0]) + 0.3 * rng.standard_normal((a.shape[0],) * 2) / np.sqrt(a.shape[0])
    t = np.eye(a.shape[1]) + 0.3 * rng.standard_normal((a.shape[1],) * 2) / np.sqrt(a.shape[1])
    return he.Pencil(s @ a @ t, s @ b @ t)


def _verified_one_at_a_time(p, cands, rg):
    """Polish, rank-check and deduplicate each candidate in turn (no Weyl skip)."""
    out = []
    for lam in cands:
        lam = pe._polish_rank_drop(p, lam, rg)
        if he.numerical_rank(p.at(lam)) < rg:
            if not any(abs(lam - prev) <= 1e-6 * max(1.0, abs(prev)) for prev in out):
                out.append(lam)
    return sorted(out)


def _scaled(p, scale):
    """``p`` with both sides times ``scale`` (``None``: ``p`` itself); λ and ranks stay."""
    return p if scale is None else he.Pencil(scale * p.a, scale * p.b)


def _equivalence_pencils():
    rng = np.random.default_rng(2024)
    for k, eps in PLANTED_SHAPES:
        yield _planted_pencil(rng, k, eps)[0]
    for size in (3, 5):
        s, t = rng.standard_normal((2, size, size))
        yield he.Pencil(s @ np.diag(rng.uniform(-2.0, 2.0, size)) @ t, s @ t)
    yield he.case_pencil(load_problem("ex_7_1ii.json"), (2,))
    # Two essential roots closer than, near and beyond the 1e-6 deduplication
    # tolerance, relative to max(1, |λ|), below and above |λ| = 1.
    for gap in (1e-7, 4e-7, 2e-6, 1e-4):
        for lam in (0.3, -1.7):
            yield _pencil_with_roots(rng, [lam, lam + gap * max(1.0, abs(lam)), 1.1], (1,))


# The Weyl tests run on the pencils as built and with both sides scaled down,
# which keeps every λ: the rank threshold and the bound must scale along.
SCALES = [None, 1e-9, 1e-3]


@pytest.mark.parametrize("scale", SCALES)
def test_weyl_skip_returns_what_one_at_a_time_verification_returns(monkeypatch, scale):
    skipped = polished = found = 0
    for p in _equivalence_pencils():
        p = _scaled(p, scale)
        got = he.essential_eigenvalues_real(p)
        found += len(got)
        with monkeypatch.context() as patch:
            patch.setattr(pe, "_verified", _verified_one_at_a_time)
            expected = he.essential_eigenvalues_real(p)
        assert got == expected
        assert all(type(lam) is float for lam in got)
        # Count the candidates that skip the polish, so that the test is not vacuous.
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(pe, "_verified", lambda *args: calls.append(args) or [])
            he.essential_eigenvalues_real(p)
        for _, cands, rg in calls:
            if cands:
                skip = pe._weyl_rejected(p, np.array(cands), rg)
                skipped += int(skip.sum())
                polished += int((~skip).sum())
    assert skipped > 0 and polished > 0 and found > 0


@pytest.mark.parametrize("scale", SCALES)
def test_weyl_skip_only_drops_candidates_the_polish_rejects(scale):
    rng = np.random.default_rng(7)
    skipped = kept = 0
    for k, eps in PLANTED_SHAPES:
        p, roots = _planted_pencil(rng, k, eps)
        p = _scaled(p, scale)
        rg = he.generic_rank(p)
        cands = [lam + sign * 10.0**-e * max(1.0, abs(lam))
                 for lam in roots for e in range(1, 17) for sign in (1, -1)]
        cands += list(roots) + list(rng.uniform(-3.0, 3.0, size=20))
        skip = pe._weyl_rejected(p, np.array(cands), rg)
        for lam, s in zip(cands, skip):
            if s:
                polished_lam = pe._polish_rank_drop(p, lam, rg)
                assert he.numerical_rank(p.at(polished_lam)) >= rg, lam
        skipped += int(skip.sum())
        kept += int((~skip).sum())
    assert skipped > 0 and kept > 0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_weyl_skip_keeps_candidates_at_the_edge_of_the_polish_span(sign):
    """σ₂ = |0.5 − λ| with ‖B‖₂ = 1: a candidate just beyond the polish span of the root.

    The polish ends at the edge of its span, 1e-2 from the candidate, where
    σ₂ equals the overshoot x; it is accepted while x is below the rank
    threshold (about 7e-13), so the bound must not skip it there.
    """
    p = he.Pencil(np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                  np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    rg = he.generic_rank(p)
    assert rg == 2
    for overshoot in (0.0, 1e-14, 1e-13, 3e-13, 1e-12, 3e-12, 1e-11):
        cands = [0.5 - sign * (1e-2 + overshoot)]
        expected = _verified_one_at_a_time(p, cands, rg)
        assert pe._verified(p, cands, rg) == expected
        assert bool(expected) == (overshoot < 1e-12)
        assert bool(pe._weyl_rejected(p, np.array(cands), rg)[0]) == (overshoot > 1e-12)


@pytest.mark.parametrize("shape", [(3, 4), (4, 4), (5, 3), (1, 6), (6, 1), (14, 17), (17, 14)])
@pytest.mark.parametrize("exponent", [0, 300, -300])
def test_singular_values_helper_matches_numpy_bit_for_bit(shape, exponent):
    rng = np.random.default_rng([*shape, exponent + 300])
    stack = np.ldexp(rng.standard_normal((6, *shape)), exponent)
    stack[1] = np.outer(stack[1, :, 0], stack[1, 0])  # rank one
    stack[2, 0] = 0.0
    with pe._svd_errstate():
        got = pe._svals(stack)
        singles = [pe._svals(m) for m in stack]
    expected = np.linalg.svd(stack, compute_uv=False)
    assert np.array_equal(got, expected)
    for row, m, one in zip(expected, stack, singles):
        assert np.array_equal(one, row)
        assert np.array_equal(np.linalg.svd(m, compute_uv=False), row)


def test_singular_values_helper_raises_like_numpy_on_nan():
    m = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(m, compute_uv=False)
    with pytest.raises(np.linalg.LinAlgError), pe._svd_errstate():
        pe._svals(m)


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("shape", [(5, 3), (4, 4), (3, 5), (1, 4), (6, 1), (12, 7)])
@pytest.mark.parametrize("exponent", [0, 300, -300])
def test_least_squares_helper_matches_numpy_bit_for_bit(monkeypatch, shape, exponent, fallback):
    """Each system of the stack gets the bits ``np.linalg.lstsq`` gives it alone."""
    if fallback:
        monkeypatch.setattr(pe, "_lstsq_gufunc", None)
    rows, cols = shape
    rng = np.random.default_rng([rows, cols, exponent + 300])
    # Transposed views, as the Gauss–Newton step passes its Jacobians.
    a = np.ldexp(rng.standard_normal((5, cols, rows)), exponent).transpose(0, 2, 1)
    b = np.ldexp(rng.standard_normal((5, rows)), exponent)
    a[1, :, 0] = 0.0  # a zero column
    a[2, :, -1] = a[2, :, 0]  # two equal columns
    a[3] = 0.0
    for k in (5, 1):
        got = pe._lstsq(a[:k], b[:k])
        assert got.shape == (k, cols) and got.dtype == np.float64
        for row, m, rhs in zip(got, a, b):
            assert np.array_equal(row, np.linalg.lstsq(m, rhs, rcond=None)[0])


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_least_squares_helper_raises_like_numpy_on_nan_and_inf(monkeypatch, bad, fallback):
    if fallback:
        monkeypatch.setattr(pe, "_lstsq_gufunc", None)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4, 2))
    b = rng.standard_normal((3, 4))
    a[1, 2, 1] = bad
    with pytest.raises(np.linalg.LinAlgError) as expected:
        np.linalg.lstsq(a[1], b[1], rcond=None)
    with pytest.raises(np.linalg.LinAlgError) as got:
        pe._lstsq(a, b)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_stacked_gram_scan_matches_a_loop_over_the_nodes():
    rng = np.random.default_rng(5)
    for k, eps in PLANTED_SHAPES:
        p, _ = _planted_pencil(rng, k, eps)
        nodes = rng.uniform(-20.0, 20.0, size=2 * p.shape[0] + 1)
        vals, peak = pe._gram_scan(p, nodes)
        expected = np.array([float(np.linalg.det(m @ m.T)) for m in map(p.at, nodes)])
        assert np.array_equal(vals, expected)
        assert peak == float(np.max(np.abs(expected)))


@pytest.mark.parametrize("scale", SCALES)
def test_early_stopped_polishes_end_at_duplicates(monkeypatch, scale):
    """A polish stops early only where the full polish returns a duplicate or a rejection."""
    full_polish = pe._polish_rank_drop
    stops = []

    def polish(p, lam, rg, sigma0=None, accepted=()):
        out = full_polish(p, lam, rg, sigma0, accepted)
        if out is None:
            stops.append((p, lam, rg, list(accepted)))
        return out

    monkeypatch.setattr(pe, "_polish_rank_drop", polish)
    for p in _equivalence_pencils():
        he.essential_eigenvalues_real(_scaled(p, scale))
    assert stops
    for p, lam, rg, accepted in stops:
        polished = full_polish(p, lam, rg)
        assert any(abs(polished - prev) <= 0.5e-6 * max(1.0, abs(prev)) for prev in accepted)


def test_numpy_svd_fallback_gives_the_same_essential_eigenvalues(monkeypatch):
    """NumPy 1.x has no ``svd`` gufunc; the helper then calls ``np.linalg.svd``."""
    pencils = list(_equivalence_pencils())
    expected = [he.essential_eigenvalues_real(p) for p in pencils]
    calls = []
    numpy_svd = np.linalg.svd
    monkeypatch.setattr(pe, "_svd_gufunc", None)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or numpy_svd(*a, **k))
    assert [he.essential_eigenvalues_real(p) for p in pencils] == expected
    assert calls


@pytest.mark.parametrize("fallback", [False, True])
def test_complex_singular_values_match_numpy_bit_for_bit(monkeypatch, fallback):
    """Complex input takes the ``D->d`` loop, which ``np.linalg.svd`` runs, or the fallback."""
    if fallback:
        monkeypatch.setattr(pe, "_svd_gufunc", None)
    rng = np.random.default_rng(17)
    stack = rng.standard_normal((4, 5, 7)) + 1j * rng.standard_normal((4, 5, 7))
    stack[1] = np.outer(stack[1, :, 0], stack[1, 0])  # rank one
    with pe._svd_errstate():
        got = pe._svals(stack)
    expected = np.linalg.svd(stack, compute_uv=False)
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)
    assert [he.numerical_rank(m) for m in stack] == [5, 1, 5, 5]


def test_importing_the_package_does_not_import_scipy_linalg():
    src = os.path.dirname(os.path.dirname(os.path.abspath(he.__file__)))
    code = "import sys, hypereig; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("root", [1e-3, -1e-3, 2e-3, -4e-3, 5e-4, -6e-3])
def test_early_stop_needs_a_polish_that_beats_the_candidate(root):
    """σ₂ = min(|λ|, |root − λ|): a search from λ₀ = 0 may close in on ``root``.

    Even inside the window of the accepted ``root`` it must not stop there,
    since it cannot beat σ₂(0) = 0 and so returns λ₀, which is no duplicate.
    """
    p = he.Pencil(np.array([[0.0, 0.0, 0.0], [0.0, root, 0.0]]),
                  np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert pe._polish_rank_drop(p, 0.0, 2, None, [root]) == pe._polish_rank_drop(p, 0.0, 2) == 0.0
    cands = [root, 0.0]
    assert pe._verified(p, cands, 2) == _verified_one_at_a_time(p, cands, 2)
    assert len(pe._verified(p, cands, 2)) == 2
