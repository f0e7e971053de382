"""Unit tests for the exact flat-torus backend.

The circle subaction is generated by a constant integer field v; the
invariant modes are cos(k.x), sin(k.x) with k.v = 0.  With v = (1, 0) on
T^2 the invariant functions depend on x1 only, which makes every expected
value below a one-variable Fourier computation.
"""

from fractions import Fraction

import pytest

from equihodge import COS, SIN, make_torus_backend


@pytest.fixture(scope="module")
def torus():
    return make_torus_backend(2, 2, (1, 0))


def test_mode_enumeration(torus):
    # invariant canonical modes with v = (1, 0): (0, 0), (0, 1), (0, 2)
    assert torus._modes == [(0, 0), (0, 1), (0, 2)]
    assert torus.dimension(0) == 5
    assert torus.dimension(1) == 10
    assert torus.dimension(2) == 5


def test_canonical_sign_convention(torus):
    # sin(-k.x) = -sin(k.x); cos is even
    w = torus.basis_form(0, (0, -1), SIN, ())
    assert w == torus.basis_form(0, (0, 1), SIN, ()).scale(-1)
    assert torus.basis_form(0, (0, -1), COS, ()) == torus.basis_form(
        0, (0, 1), COS, ())


def test_d_of_cos(torus):
    # d cos(y) = -sin(y) dy  (y = x1)
    c = torus.basis_form(0, (0, 1), COS, ())
    assert torus.d(c) == torus.basis_form(1, (0, 1), SIN, (1,), -1)


def test_d_squared_zero(torus):
    for i in range(torus.dimension(0)):
        coeffs = [Fraction(0)] * torus.dimension(0)
        coeffs[i] = Fraction(1)
        w = torus.form(0, coeffs)
        assert torus.d(torus.d(w)).is_zero


def test_star_table(torus):
    dx = torus.basis_form(1, (0, 0), COS, (0,))
    dy = torus.basis_form(1, (0, 0), COS, (1,))
    vol = torus.basis_form(2, (0, 0), COS, (0, 1))
    one = torus.basis_form(0, (0, 0), COS, ())
    assert torus.star(dx) == dy
    assert torus.star(dy) == dx.scale(-1)
    assert torus.star(one) == vol
    assert torus.star(vol) == one
    assert torus.star(torus.star(dx)) == dx.scale(-1)


def test_codifferential_example(torus):
    # d*(cos(y) dy) = sin(y) * 1
    w = torus.basis_form(1, (0, 1), COS, (1,))
    assert torus.codifferential(w) == torus.basis_form(0, (0, 1), SIN, ())


def test_adjointness_all_basis_pairs(torus):
    for q in (1, 2):
        for i in range(torus.dimension(q - 1)):
            a = torus.form(q - 1, [Fraction(int(i == m))
                                   for m in range(torus.dimension(q - 1))])
            for j in range(torus.dimension(q)):
                b = torus.form(q, [Fraction(int(j == m))
                                   for m in range(torus.dimension(q))])
                lhs = torus.inner_product(torus.d(a), b)
                rhs = torus.inner_product(a, torus.codifferential(b))
                assert (lhs - rhs).is_zero


def test_eigenvalues_diagonal():
    b = make_torus_backend(2, 5, (1, 0))
    for q in range(3):
        for i in range(b.dimension(q)):
            coeffs = [Fraction(0)] * b.dimension(q)
            coeffs[i] = Fraction(1)
            w = b.form(q, coeffs)
            fi, _ = b._basis[q][i]
            mi, _ = b._funcs[fi]
            k = b._modes[mi]
            lam = sum(c * c for c in k)
            assert b.laplacian(w) == w.scale(lam)
            if lam:
                assert b.green(w) == w.scale(Fraction(1, lam))
            else:
                assert b.green(w).is_zero
                assert b.harmonic_projection(w) == w


def test_harmonic_dimensions(torus):
    assert [len(torus.harmonic_basis(q)) for q in range(3)] == [1, 2, 1]


def test_total_volume(torus):
    one = torus.basis_form(0, (0, 0), COS, ())
    ip = torus.inner_product(one, one)
    assert ip.coeff == 4 and ip.pi_power == 2  # (2 pi)^2


def test_contraction_is_interior_product_with_v(torus):
    dx = torus.basis_form(1, (0, 0), COS, (0,))
    dy = torus.basis_form(1, (0, 0), COS, (1,))
    vol = torus.basis_form(2, (0, 0), COS, (0, 1))
    one = torus.basis_form(0, (0, 0), COS, ())
    assert torus.contraction(0, dx) == one
    assert torus.contraction(0, dy).is_zero
    assert torus.contraction(0, vol) == dy


def test_invariance_constraint_enforced():
    with pytest.raises(ValueError):
        make_torus_backend(2, 2, (0, 0))
    b = make_torus_backend(2, 1, (1, 1))
    # modes orthogonal to (1, 1) within |k_i| <= 1: (0,0) and (1,-1)
    assert b._modes == [(0, 0), (1, -1)]


@pytest.mark.parametrize("q,k,I", [
    (1, (1, 0), (0,)),      # k.v != 0
    (1, (0, 3), (0,)),      # |k_i| > K
    (1, (0, 1), (2,)),      # axis out of range
    (2, (0, 1), (0, 0)),    # repeated axis
    (2, (0, 1), (1,)),      # wrong number of axes
])
def test_basis_form_outside_the_basis_is_a_backend_mismatch(torus, q, k, I):
    from equihodge import BackendMismatch

    with pytest.raises(BackendMismatch) as exc:
        torus.basis_form(q, k, COS, I)
    assert isinstance(exc.value, ValueError)
    message = str(exc.value)
    assert "k=%s" % (k,) in message
    assert "I=%s" % (tuple(sorted(I)),) in message
    assert "v=(1, 0)" in message
