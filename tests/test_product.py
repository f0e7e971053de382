"""Unit tests for the tensor-product backend (rank-2 torus actions)."""

from fractions import Fraction

import numpy as np
import pytest

from equihodge import (
    BackendMismatch,
    ExactBackend,
    extend,
    make_product_backend,
    make_sphere_backend,
    make_torus_backend,
    verify_extension,
)


@pytest.fixture(scope="module")
def ss():
    """S^2 x S^2 with the rank-2 rotation torus."""
    b1 = make_sphere_backend(3, stages=2)
    b2 = make_sphere_backend(3, stages=2)
    return make_product_backend(b1, b2)


from conftest import random_exact_form as random_form


def test_dimensions_are_block_sums(ss):
    for q in range(5):
        expected = sum(
            ss.b1.dimension(q1) * ss.b2.dimension(q - q1)
            for q1 in range(0, 3)
        )
        assert ss.dimension(q) == expected
    assert ss.dimension(5) == 0


def test_generator_spec_rank_two(ss):
    assert ss.generator_spec.rank == 2
    assert ss.generator_spec.degrees == (2, 2)


def test_kuenneth_harmonic_dimensions(ss):
    assert [len(ss.harmonic_basis(q)) for q in range(5)] == [1, 0, 2, 0, 1]


def test_d_is_a_derivation(ss):
    rng = np.random.default_rng(11)
    for q1 in (0, 1, 2):
        for q2 in (0, 1, 2):
            w1 = random_form(rng, ss.b1, q1)
            w2 = random_form(rng, ss.b2, q2)
            t = ss.tensor(w1, w2)
            sign = -1 if q1 % 2 else 1
            expected = ss.tensor(ss.b1.d(w1), w2) + ss.tensor(
                w1, ss.b2.d(w2)).scale(sign)
            assert ss.d(t) == expected


def test_d_squared_zero(ss):
    rng = np.random.default_rng(12)
    for q in (0, 1, 2, 3):
        w = random_form(rng, ss, q)
        assert ss.d(ss.d(w)).is_zero


def test_star_on_pure_tensors(ss):
    rng = np.random.default_rng(13)
    for q1 in (0, 1, 2):
        for q2 in (0, 1, 2):
            w1 = random_form(rng, ss.b1, q1)
            w2 = random_form(rng, ss.b2, q2)
            sign = -1 if (q2 * (2 - q1)) % 2 else 1
            assert ss.star(ss.tensor(w1, w2)) == ss.tensor(
                ss.b1.star(w1), ss.b2.star(w2)).scale(sign)


def test_laplacian_splits_on_pure_tensors(ss):
    rng = np.random.default_rng(14)
    for q1, q2 in ((0, 0), (1, 0), (1, 1), (2, 1)):
        w1 = random_form(rng, ss.b1, q1)
        w2 = random_form(rng, ss.b2, q2)
        t = ss.tensor(w1, w2)
        expected = ss.tensor(ss.b1.laplacian(w1), w2) + ss.tensor(
            w1, ss.b2.laplacian(w2))
        assert ss.laplacian(t) == expected


def test_green_on_pure_eigen_tensor(ss):
    z = ss.b1.zero_form((0, 1))
    one = ss.b2.zero_form((1,))
    # z is a Legendre eigenfunction (eigenvalue 2) times the harmonic 1
    t = ss.tensor(z, one)
    assert ss.green(t) == t.scale(Fraction(1, 2))


def test_contractions_act_factorwise(ss):
    vol1 = ss.b1.two_form((1,))
    vol2 = ss.b2.two_form((1,))
    t = ss.tensor(vol1, vol2)
    # i_1 hits the left factor only (sign +), i_2 the right with Koszul sign
    assert ss.contraction(0, t) == ss.tensor(ss.b1.contraction(0, vol1), vol2)
    assert ss.contraction(1, t) == ss.tensor(
        vol1, ss.b2.contraction(0, vol2))  # (-1)^deg(vol1) = +1


def test_tensor_rejects_foreign_factors(ss):
    other = make_sphere_backend(3, stages=2)
    with pytest.raises(BackendMismatch):
        ss.tensor(other.two_form((1,)), ss.b2.zero_form((1,)))


def test_extension_of_symplectic_sum(ss):
    omega = ss.tensor(ss.b1.two_form((1,)), ss.b2.zero_form((1,))) + ss.tensor(
        ss.b1.zero_form((1,)), ss.b2.two_form((1,)))
    report = extend(omega)
    assert report.status == "extended"
    assert verify_extension(report) == 0.0
    alpha_hat = report.alpha_hat()
    # moment map terms: t1 (-z (x) 1) and t2 (1 (x) -z)
    mu1 = ss.tensor(ss.b1.zero_form((0, -1)), ss.b2.zero_form((1,)))
    mu2 = ss.tensor(ss.b1.zero_form((1,)), ss.b2.zero_form((0, -1)))
    assert alpha_hat.coefficient((1, 0)) == mu1
    assert alpha_hat.coefficient((0, 1)) == mu2


def test_extension_of_product_symplectic_form(ss):
    omega = ss.tensor(ss.b1.two_form((1,)), ss.b2.two_form((1,)))
    report = extend(omega)
    assert report.status == "extended"
    assert verify_extension(report) == 0.0
    alpha_hat = report.alpha_hat()
    # the t1*t2 coefficient z (x) z appears at stage 2
    assert report.terminated_at_stage == 2
    expected = ss.tensor(ss.b1.zero_form((0, 1)), ss.b2.zero_form((0, 1)))
    assert alpha_hat.coefficient((1, 1)) == expected


def test_mixed_sphere_torus_product():
    p = make_product_backend(
        make_sphere_backend(3, stages=2), make_torus_backend(1, 2, (1,)))
    assert p.n == 3
    assert [len(p.harmonic_basis(q)) for q in range(4)] == [1, 1, 1, 1]
    rng = np.random.default_rng(15)
    w = random_form(rng, p, 2)
    assert p.d(p.d(w)).is_zero


@pytest.mark.parametrize("make", [
    lambda: make_product_backend(make_sphere_backend(2, stages=2),
                                 make_sphere_backend(2, stages=2)),
    lambda: make_product_backend(make_torus_backend(1, 2, (1,)),
                                 make_torus_backend(2, 1, (1, 0))),
    lambda: make_product_backend(
        make_product_backend(make_sphere_backend(2, stages=2),
                             make_torus_backend(1, 1, (1,))),
        make_torus_backend(1, 1, (1,))),
], ids=["sphere-x-sphere", "circle-x-torus2", "nested"])
def test_codifferential_matches_the_star_reference(make):
    """The one-pass Koszul codifferential equals the signed star conjugate
    of d, exactly, in every degree."""
    p = make()
    rng = np.random.default_rng(16)
    for q in range(p.n + 1):
        for _ in range(3):
            w = random_form(rng, p, q)
            assert p.codifferential(w) == ExactBackend.codifferential(p, w)
