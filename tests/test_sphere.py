"""Unit tests for the exact round-sphere backend.

Forms are polynomial data in z: degree 0 is f(z), degree 1 is
a(z) dz + b(z)(1-z^2) dphi, degree 2 is c(z) dz^dphi.  All expected
values below were derived by hand from the round metric
(1-z^2)^{-1} dz^2 + (1-z^2) dphi^2 and checked against the classical
Legendre eigenrelation.
"""

import math
from fractions import Fraction

import pytest

from equihodge import TruncationError, make_sphere_backend
from equihodge.sphere import legendre


@pytest.fixture(scope="module")
def sphere():
    return make_sphere_backend(6)


def rand_poly(rng, max_deg):
    return tuple(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
                 for _ in range(max_deg + 1))


def random_form(rng, backend, q):
    deg = backend.truncation
    if q == 0:
        return backend.zero_form(rand_poly(rng, deg))
    if q == 1:
        return backend.one_form(rand_poly(rng, deg), rand_poly(rng, deg))
    return backend.two_form(rand_poly(rng, deg))


def test_dimensions(sphere):
    c = sphere.capacity
    assert sphere.dimension(0) == c + 1
    assert sphere.dimension(1) == 2 * (c + 1)
    assert sphere.dimension(2) == c + 1
    assert sphere.dimension(-1) == 0
    assert sphere.dimension(3) == 0


def test_d_of_coordinate(sphere):
    z = sphere.zero_form((0, 1))
    dz = sphere.one_form((1,), ())
    assert sphere.d(z) == dz


def test_d_of_dphi_component(sphere):
    # d(b(z)(1-z^2)dphi) = ((1-z^2)b)' dz^dphi; b = 1 gives -2z dz^dphi
    w = sphere.one_form((), (1,))
    assert sphere.d(w) == sphere.two_form((0, -2))


def test_d_squared_zero(sphere):
    import numpy as np

    rng = np.random.default_rng(7)
    for q in (0, 1):
        for _ in range(5):
            w = random_form(rng, sphere, q)
            assert sphere.d(sphere.d(w)).is_zero


def test_star_table(sphere):
    one = sphere.zero_form((1,))
    vol = sphere.two_form((1,))
    assert sphere.star(one) == vol
    assert sphere.star(vol) == one
    a_dz = sphere.one_form((0, 0, 1), ())   # z^2 dz
    assert sphere.star(a_dz) == sphere.one_form((), (0, 0, 1))
    b_dphi = sphere.one_form((), (1,))      # (1-z^2) dphi
    assert sphere.star(b_dphi) == sphere.one_form((-1,), ())


def test_star_square_sign(sphere):
    import numpy as np

    rng = np.random.default_rng(8)
    for q, sign in ((0, 1), (1, -1), (2, 1)):
        w = random_form(rng, sphere, q)
        assert sphere.star(sphere.star(w)) == w.scale(sign)


def test_codifferential_of_dz(sphere):
    dz = sphere.one_form((1,), ())
    assert sphere.codifferential(dz) == sphere.zero_form((0, 2))


def test_adjointness_random(sphere):
    import numpy as np

    rng = np.random.default_rng(9)
    for q in (1, 2):
        for _ in range(5):
            a = random_form(rng, sphere, q - 1)
            b = random_form(rng, sphere, q)
            lhs = sphere.inner_product(sphere.d(a), b)
            rhs = sphere.inner_product(a, sphere.codifferential(b))
            assert (lhs - rhs).is_zero


def test_legendre_eigenrelation(sphere):
    for ell in range(1, 7):
        p = sphere.zero_form(legendre(ell))
        lam = Fraction(ell * (ell + 1))
        assert sphere.laplacian(p) == p.scale(lam)
        assert sphere.green(p) == p.scale(1 / lam)


def test_one_form_eigenvalues(sphere):
    dz = sphere.one_form((1,), ())
    assert sphere.laplacian(dz) == dz.scale(2)
    assert sphere.green(dz) == dz.scale(Fraction(1, 2))


def test_total_area(sphere):
    one = sphere.zero_form((1,))
    ip = sphere.inner_product(one, one)
    assert ip.coeff == 4 and ip.pi_power == 1


def test_an_exact_norm_neither_overflows_nor_underflows():
    """The exact square is scaled into float range before its root, so a
    huge or tiny rational has the norm of its float-range multiple."""
    b = make_sphere_backend(8)
    unit = b.norm(b.two_form((1,)))
    assert b.norm(b.two_form((10 ** 200, 1))) == pytest.approx(1e200 * unit, rel=1e-15)
    assert (b.norm(b.two_form((Fraction(1, 10 ** 200),)))
            == pytest.approx(1e-200 * unit, rel=1e-15))
    for k in (-1000, -400, 400, 1000):
        assert b.norm(b.two_form((Fraction(2) ** k,))) == math.ldexp(unit, k)
    assert b.norm(b.two_form((10 ** 400,))) == math.inf


def test_harmonic_dimensions(sphere):
    assert [len(sphere.harmonic_basis(q)) for q in range(3)] == [1, 0, 1]


def test_contraction_table(sphere):
    vol = sphere.two_form((1,))
    assert sphere.contraction(0, vol) == sphere.one_form((-1,), ())
    w = sphere.one_form((), (1,))
    assert sphere.contraction(0, w) == sphere.zero_form((1, 0, -1))
    f = sphere.zero_form((1, 2))
    assert sphere.contraction(0, f).is_zero


def test_hodge_decomposition_of_z(sphere):
    z = sphere.zero_form((0, 1))
    split = sphere.hodge_decompose(z)
    assert split.harmonic.is_zero
    assert split.exact.is_zero
    assert split.coexact == z
    assert split.total() == z


def test_truncation_error_not_silent():
    b = make_sphere_backend(2, stages=0)
    # codifferential raises the z-degree by one, so the top basis 1-form
    # cannot fit in a zero-margin coefficient space
    top = b.one_form((0,) * b.capacity + (1,), ())
    with pytest.raises(TruncationError):
        b.codifferential(top)


def test_symplectic_scenario(sphere):
    omega, mu = sphere.symplectic_scenario()
    assert omega == sphere.two_form((1,))
    assert mu == sphere.zero_form((0, -1))
    assert sphere.d(mu) == sphere.contraction(0, omega)
