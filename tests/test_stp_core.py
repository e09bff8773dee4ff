"""Semi-tensor product primitives: padding, folds, powers, pushdown."""

import numpy as np
import pytest

import hypereig as he


def test_stp_reduces_to_matmul_when_conformable():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, size=(3, 4))
    b = rng.uniform(-1, 1, size=(4, 2))
    assert np.allclose(he.stp(a, b), a @ b)


def test_stp_of_column_vectors_is_kronecker():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 4.0])
    assert np.allclose(he.stp(x.reshape(-1, 1), y.reshape(-1, 1)).ravel(), np.kron(x, y))


def test_stp_padding_shape_and_value():
    # a is 1x2, b is 4x1: t = lcm(2, 4) = 4, result is (1*2) x (1*1) = 2x1.
    a = np.array([[1.0, 2.0]])
    b = np.array([[1.0], [0.0], [0.0], [2.0]])
    out = he.stp(a, b)
    expect = (np.kron(a, np.eye(2)) @ np.kron(b, np.eye(1)))
    assert out.shape == (2, 1)
    assert np.allclose(out, expect)


def test_stp_identity_absorbs():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, size=(2, 6))
    assert np.allclose(he.stp(np.eye(2), a), a)
    assert np.allclose(he.stp(a, np.eye(6)), a)


def test_stp_all_left_fold():
    rng = np.random.default_rng(2)
    ms = [rng.uniform(-1, 1, size=(2, 2)) for _ in range(3)]
    assert np.allclose(he.stp_all(ms), he.stp(he.stp(ms[0], ms[1]), ms[2]))
    with pytest.raises(ValueError):
        he.stp_all([])


def test_stp_power_is_iterated_kron():
    z = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(he.stp_power(z, 1), z)
    assert np.array_equal(he.stp_power(z, 3), np.kron(np.kron(z, z), z))
    # compose runs the same Kronecker loop over distinct (and mixed-size) factors.
    rng = np.random.default_rng(4)
    vs = [rng.uniform(-1, 1, size=n) for n in (2, 1, 3)]
    assert np.array_equal(he.compose(vs), np.kron(np.kron(vs[0], vs[1]), vs[2]))
    assert np.array_equal(he.compose([z]), z)
    with pytest.raises(ValueError):
        he.stp_power(z, 0)


def test_pushdown_swaps_vector_and_matrix():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=3)
    a = rng.uniform(-1, 1, size=(2, 2))
    left = he.stp(x.reshape(-1, 1), a)
    right = he.stp(he.pushdown(x, a), x.reshape(-1, 1))
    assert np.allclose(left, right)


def test_stp_rejects_non_numeric():
    with pytest.raises((ValueError, TypeError)):
        he.stp("nope", np.eye(2))
