"""Tests for backends extended by formal higher-degree generators."""

import math
from fractions import Fraction

import pytest

from equihodge import (
    EquivariantElement,
    FormalGenerator,
    PreconditionViolated,
    backend_from_tag,
    cartan_d,
    extend,
    make_sphere_backend,
    partial_d,
    with_formal_generators,
)


def zero_operator(backend):
    return lambda w: backend.zero(w.degree - 3)


def test_generator_degree_validation():
    with pytest.raises(ValueError):
        FormalGenerator(3, "odd", lambda w: w)
    with pytest.raises(ValueError):
        FormalGenerator(0, "zero", lambda w: w)
    FormalGenerator(4, "ok", lambda w: w)  # no error


def test_spec_grows_and_operators_delegate():
    base = make_sphere_backend(4)
    wrapped = with_formal_generators(
        base, [FormalGenerator(4, "p4", zero_operator(base))])
    assert wrapped.generator_spec.degrees == (2, 4)
    assert wrapped.generator_spec.labels[-1] == "p4"
    w = wrapped.form(2, base.two_form((0, 1)).coeffs)
    assert wrapped.d(w).is_zero
    assert wrapped.codifferential(w).coeffs == base.codifferential(
        base.two_form((0, 1))).coeffs
    assert wrapped.tag.startswith("formal:[sphere:")


def test_wrapped_forms_do_not_mix_with_base_forms():
    from equihodge import BackendMismatch

    base = make_sphere_backend(4)
    wrapped = with_formal_generators(
        base, [FormalGenerator(4, "p4", zero_operator(base))])
    with pytest.raises(BackendMismatch):
        wrapped.d(base.two_form((1,)))


def test_extension_with_inactive_formal_generator_matches_base():
    base = make_sphere_backend(6)
    wrapped = with_formal_generators(
        base, [FormalGenerator(4, "p4", zero_operator(base))])
    omega_base, mu_base = base.symplectic_scenario()
    omega = wrapped.form(2, omega_base.coeffs)
    report = extend(omega)
    assert report.status == "extended"
    assert cartan_d(report.alpha_hat()).is_zero
    # the extra generator contributes nothing; t1 carries the Hamiltonian
    hat = report.alpha_hat()
    assert set(hat.terms) == {(0, 0), (1, 0)}
    assert hat.terms[(1, 0)].coeffs == mu_base.coeffs


def test_degree_bookkeeping_of_formal_contraction():
    base = make_sphere_backend(4)

    def lower_by_three(w):
        # d* i_V d* has total degree -3, matching a degree-4 generator
        return base.codifferential(base.contraction(0, base.codifferential(w)))

    wrapped = with_formal_generators(
        base, [FormalGenerator(4, "p4", lower_by_three)])
    w = wrapped.form(2, base.two_form((0, 1)).coeffs)
    x = EquivariantElement.from_form(w)
    b = partial_d(x)
    assert b.total_degree == 3
    # only the rank-1 torus part contributes for a 2-form input: the formal
    # contraction would land in degree -1
    assert set(b.terms) == {(1, 0)}


def test_formal_contraction_result_is_validated():
    base = make_sphere_backend(4)

    def wrong_degree(w):
        return base.zero(w.degree - 1)  # should be degree - 3

    wrapped = with_formal_generators(
        base, [FormalGenerator(4, "p4", wrong_degree)])
    w = wrapped.form(2, base.two_form((1,)).coeffs)
    # the correct image degree is 2 - 3 = -1; returning degree 1 must fail
    with pytest.raises(PreconditionViolated) as exc:
        wrapped.contraction(1, w)
    assert exc.value.index == 1


def test_foreign_backend_result_is_rejected():
    base = make_sphere_backend(4)
    other = make_sphere_backend(4)

    def foreign(w):
        return other.zero(w.degree - 3)

    wrapped = with_formal_generators(
        base, [FormalGenerator(4, "p4", foreign)])
    w = wrapped.form(2, base.two_form((1,)).coeffs)
    with pytest.raises(PreconditionViolated):
        wrapped.contraction(1, w)


def test_star_over_dec_raises_a_typed_error():
    # DEC stars are dual cochains, not forms; the wrapper must not receive
    # a bare array from the base backend
    from equihodge import BackendMismatch

    base = backend_from_tag("dec:nsym=4,level=1,zigzag=0.1")
    wrapped = with_formal_generators(
        base, [FormalGenerator(4, "p4", zero_operator(base))])
    w = wrapped.form(2, base.volume_form_cochain().coeffs)
    with pytest.raises(BackendMismatch):
        wrapped.star(w)


@pytest.mark.parametrize("e", [200, -200], ids=["huge", "tiny"])
@pytest.mark.parametrize("tag", ["dec:nsym=4,level=0,zigzag=0.1", "sphere:N=4,stages=3"])
def test_a_formal_wrapper_takes_its_base_s_norm(tag, e):
    """Over the mesh the wrapper took the root of the float inner product:
    inf, with an overflow warning, at scale 1e200 and 0.0 at 1e-200."""
    base = backend_from_tag(tag)
    if base.is_exact:
        w = base.two_form((0, 1)).scale(Fraction(10) ** e)
    else:
        w = base.volume_form_cochain().scale(10.0 ** e)
    wrapped = with_formal_generators(
        base, [FormalGenerator(4, "p4", zero_operator(base))])
    norm = wrapped.norm(wrapped.form(2, w.coeffs))
    assert norm == base.norm(w) and 0.0 < norm < math.inf
