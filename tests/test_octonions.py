import numpy as np

from metallicgeo.octonions import MULT_TABLE, cross7_matrix

# the multiplication table and the cross product written as plain bilinear
# maps, so the algebraic laws below test MULT_TABLE and cross7_matrix


def oct_mult(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of two octonions given as length-8 coefficient vectors."""
    return np.einsum("abc,a,b->c", MULT_TABLE, x, y)


def cross7(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product of imaginary octonions: the imaginary part of their product."""
    return oct_mult(np.concatenate(([0.0], u)), np.concatenate(([0.0], v)))[1:]


def test_unit_element():
    rng = np.random.default_rng(0)
    one = np.zeros(8)
    one[0] = 1.0
    for _ in range(10):
        x = rng.normal(size=8)
        assert np.allclose(oct_mult(one, x), x)
        assert np.allclose(oct_mult(x, one), x)


def test_norm_multiplicativity():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        xy = oct_mult(x, y)
        assert abs(xy @ xy - (x @ x) * (y @ y)) < 1e-10


def test_alternativity():
    """(x x) y = x (x y) and (x y) y = x (y y); octonions are alternative."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        assert np.allclose(oct_mult(oct_mult(x, x), y), oct_mult(x, oct_mult(x, y)), atol=1e-12)
        assert np.allclose(oct_mult(oct_mult(x, y), y), oct_mult(x, oct_mult(y, y)), atol=1e-12)


def test_not_associative():
    # octonions are not associative: the associator must be nonzero somewhere
    e = np.eye(8)
    a = oct_mult(oct_mult(e[1], e[2]), e[4]) - oct_mult(e[1], oct_mult(e[2], e[4]))
    assert np.max(np.abs(a)) > 1.0


def test_imaginary_units_square_to_minus_one():
    for a in range(1, 8):
        sq = MULT_TABLE[a, a]
        assert sq[0] == -1.0 and np.allclose(sq[1:], 0.0)


def test_cross_orthogonality_and_norm_1000_pairs():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        c = cross7(u, v)
        scale = max(1.0, np.linalg.norm(u) * np.linalg.norm(v))
        assert abs(c @ u) / scale < 1e-12
        assert abs(c @ v) / scale < 1e-12
        # |u x v|^2 = |u|^2 |v|^2 - <u,v>^2  (the sin-theta law)
        expect = (u @ u) * (v @ v) - (u @ v) ** 2
        assert abs(c @ c - expect) / max(1.0, expect) < 1e-12


def test_cross_double_product_identity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        lhs = cross7(u, cross7(u, v))
        rhs = (u @ v) * u - (u @ u) * v
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_cross_matrix_agrees_with_cross():
    rng = np.random.default_rng(5)
    u = rng.normal(size=7)
    v = rng.normal(size=7)
    assert np.allclose(cross7_matrix(u) @ v, cross7(u, v))
