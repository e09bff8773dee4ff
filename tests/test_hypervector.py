"""Index calculus, Ξ selectors, and the monic decomposition of product vectors."""

import numpy as np
import pytest

import hypereig as he


def test_index_join_and_split_small_cases():
    # Base 2, degree 3: (2,1,2) joins to 1*4 + 0*2 + 2 = 6, last index fastest.
    assert he.index_join((2, 1, 2), 2, 3) == 6
    assert he.index_split(6, (2, 2, 2)) == (2, 1, 2)
    assert he.index_join((1, 1, 1), 2, 3) == 1
    assert he.index_join((2, 2, 2), 2, 3) == 8
    # Mixed factor dimensions: (2, 3) over dims (2, 3) is (2-1)*3 + 3 = 6.
    assert he.index_split(6, (2, 3)) == (2, 3)


def test_index_split_range_checks():
    with pytest.raises(ValueError):
        he.index_split(0, (2, 2))
    with pytest.raises(ValueError):
        he.index_split(5, (2, 2))


def test_diagonal_index_closed_form():
    # (e0-1)(n^r-1)/(n-1) + 1: over n=2, r=3 the diagonal entries sit at 1 and 8.
    assert he.diagonal_index(1, 2, 3) == 1
    assert he.diagonal_index(2, 2, 3) == 8
    assert he.diagonal_index(2, 3, 2) == 5
    assert he.diagonal_index(3, 3, 2) == 9
    for n, r, e0 in [(2, 3, 2), (3, 4, 3), (4, 2, 4)]:
        assert he.diagonal_index(e0, n, r) == he.index_join((e0,) * r, n, r)


def test_mu_and_monicize():
    assert he.mu([0.0, 0.0, 3.0, 1.0]) == 3
    c0, x0 = he.monicize([0.0, -2.0, 4.0])
    assert c0 == -2.0
    assert np.allclose(x0, [0.0, 1.0, -2.0])
    for x in ([0.0, 0.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="no leading index"):
            he.mu(x)


def test_xi_matrix_extracts_scaled_components():
    rng = np.random.default_rng(4)
    dims = (2, 3, 2)
    comps = [rng.uniform(-1, 1, size=n) for n in dims]
    x = he.compose(comps)
    anchors = tuple(int(np.argmax(np.abs(c))) + 1 for c in comps)
    e = 1
    for a, n in zip(anchors, dims):
        e = (e - 1) * n + a
    for i in range(1, 4):
        xi = he.xi_matrix(e, i, dims)
        scale = np.prod([comps[j][anchors[j] - 1] for j in range(3) if j != i - 1])
        assert np.allclose(xi @ x, scale * comps[i - 1])


def test_monic_decompose_known_product():
    # (0,2,0,4) over dims (2,2): anchor e=2, scale 2, components (1,2) and (0,1).
    d = he.monic_decompose([0.0, 2.0, 0.0, 4.0], (2, 2))
    assert d is not None
    assert d.e == 2
    assert d.c0 == pytest.approx(2.0)
    assert np.allclose(d.components[0], [1.0, 2.0])
    assert np.allclose(d.components[1], [0.0, 1.0])
    recon = d.c0 * he.compose(d.components)
    assert np.allclose(recon, [0.0, 2.0, 0.0, 4.0])


def test_monic_decompose_rejects_entangled_vector():
    # (1,0,0,1) folds to the 2x2 identity, which has rank 2, so no product form exists.
    assert he.monic_decompose([1.0, 0.0, 0.0, 1.0], (2, 2)) is None


def test_monic_decompose_zero_vector_raises():
    with pytest.raises(ValueError):
        he.monic_decompose([0.0, 0.0, 0.0, 0.0], (2, 2))


def test_monic_decompose_delta_vector():
    d = he.monic_decompose([0.0, 0.0, 0.0, 1.0], (2, 2))
    assert d is not None
    assert d.e == 4
    assert d.c0 == pytest.approx(1.0)
    assert np.allclose(d.components[0], [0.0, 1.0])
    assert np.allclose(d.components[1], [0.0, 1.0])


def test_is_diagonal():
    z = np.array([1.0, -0.5])
    w = np.array([1.0, 0.5])
    d = he.monic_decompose(np.kron(z, z), (2, 2))
    assert d is not None and he.is_diagonal(d)
    d2 = he.monic_decompose(np.kron(z, w), (2, 2))
    assert d2 is not None and not he.is_diagonal(d2)


def _xi_by_kronecker(e, i, dims):
    """Ξ by its definition: Kronecker chain of basis rows with the identity at slot i."""
    out = np.ones((1, 1))
    for j, (n, c) in enumerate(zip(dims, he.index_split(e, dims)), start=1):
        out = np.kron(out, np.eye(n) if j == i else np.eye(n)[c - 1].reshape(1, n))
    return out


def test_extract_component_matches_xi():
    rng = np.random.default_rng(5)
    for dims in [(3, 3), (2, 1, 3), (3, 2), (1,), (2, 2, 2)]:
        x = rng.uniform(-1, 1, size=int(np.prod(dims)))
        for e in range(1, x.size + 1):
            for i in range(1, len(dims) + 1):
                xi = he.xi_matrix(e, i, dims)
                assert np.array_equal(xi, _xi_by_kronecker(e, i, dims))
                assert np.array_equal(he.extract_component(x, e, i, dims), xi @ x)
        with pytest.raises(ValueError):
            he.extract_component(x, 1, len(dims) + 1, dims)
        with pytest.raises(ValueError):
            he.extract_component(x, x.size + 1, 1, dims)
        with pytest.raises(ValueError):
            he.extract_component(np.append(x, 1.0), 1, 1, dims)
