"""Tests of the equivariant model: boundary operator, Cartan differential,
the extension iteration, obstructions, and partial-extension continuation."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_exact_form
from equihodge import (
    COS,
    SIN,
    BackendMismatch,
    DecBackend,
    EquivariantElement,
    FormalGenerator,
    GeneratorSpec,
    NotClosed,
    ObstructionDetected,
    PiScalar,
    PreconditionViolated,
    build_symmetric_sphere,
    cartan_d,
    coefficient_d,
    extend,
    extend_partial,
    make_product_backend,
    make_sphere_backend,
    make_torus_backend,
    moment_map,
    obstruction_residual,
    p_operator,
    partial_d,
    verify_extension,
    with_formal_generators,
)


@pytest.fixture(scope="module")
def sphere():
    return make_sphere_backend(6)


@pytest.fixture(scope="module")
def torus():
    return make_torus_backend(2, 2, (1, 0))


@pytest.fixture(scope="module")
def product():
    return make_product_backend(
        make_sphere_backend(3, stages=2), make_sphere_backend(3, stages=2))


def embed(form):
    return EquivariantElement.from_form(form)


def random_element(rng, backend, total_degree):
    """Random homogeneous element with every admissible monomial populated."""
    from equihodge.equivariant import monomial_degree
    from itertools import product as iproduct

    spec = backend.generator_spec
    terms = {}
    for mono in iproduct(range(3), repeat=spec.rank):
        q = total_degree - monomial_degree(mono, spec)
        if 0 <= q <= backend.n and backend.dimension(q) > 0:
            terms[mono] = random_exact_form(rng, backend, q)
    return EquivariantElement(backend, total_degree, terms)


@pytest.fixture(scope="module")
def bad_inputs(sphere):
    """The objects the calls of the typed-error table are made on."""
    S = make_sphere_backend(4)
    formal = with_formal_generators(S, [FormalGenerator(4, "p4", lambda w: w)])
    torus = make_torus_backend(2, 2, (1, 0))
    return SimpleNamespace(
        sphere=sphere, S=S, omega=S.two_form((1,)),
        other=make_sphere_backend(4).two_form((1,)),
        dec=DecBackend(build_symmetric_sphere(4, 0, zigzag=0.1)),
        formal_omega=formal.form(2, S.two_form((1,)).coeffs),
        obstructed=extend(torus.basis_form(2, (0, 0), 0, (0, 1))),
    )


#: (id, call on the objects of ``bad_inputs``, the error it must raise)
TYPED_ERRORS = [
    ("homogeneity", lambda o: EquivariantElement(
        o.sphere, 2, {(1,): o.sphere.two_form((1,))}), BackendMismatch),
    ("monomial-rank", lambda o: EquivariantElement(
        o.S, 2, {(0, 0): o.omega}), BackendMismatch),
    ("coefficient-backend", lambda o: EquivariantElement(
        o.S, 2, {(0,): o.other}), BackendMismatch),
    ("element-sum-backends", lambda o: embed(o.omega) + embed(o.other),
     BackendMismatch),
    ("element-sum-degrees",
     lambda o: embed(o.omega) + embed(o.S.zero_form((1,))), BackendMismatch),
    ("form-sum-backends", lambda o: o.omega + o.other, BackendMismatch),
    ("form-sum-degrees", lambda o: o.omega + o.S.zero_form((1,)),
     BackendMismatch),
    ("coefficient-count", lambda o: o.S.form(2, [1, 2]), BackendMismatch),
    ("sphere-generator", lambda o: o.S.contraction(1, o.omega), IndexError),
    ("dec-generator", lambda o: o.dec.contraction(
        1, o.dec.volume_form_cochain()), IndexError),
    ("formal-generator", lambda o: o.formal_omega.backend.contraction(
        2, o.formal_omega), IndexError),
    ("verify-obstructed", lambda o: verify_extension(o.obstructed), ValueError),
    ("partial-past-end", lambda o: extend_partial([embed(o.omega)], 1),
     ValueError),
    ("partial-negative", lambda o: extend_partial([embed(o.omega)], -1),
     ValueError),
    ("spec-odd-degree", lambda o: GeneratorSpec((3,), ("x",)), ValueError),
    ("spec-empty", lambda o: GeneratorSpec((), ()), ValueError),
    ("spec-labels", lambda o: GeneratorSpec((2,), ()), ValueError),
    ("pi-powers", lambda o: PiScalar(1, 1) + PiScalar(1, 2), ValueError),
    ("hash-form", lambda o: hash(o.omega), TypeError),
]


@pytest.mark.parametrize("call,error", [case[1:] for case in TYPED_ERRORS],
                         ids=[case[0] for case in TYPED_ERRORS])
def test_homogeneity_enforced(bad_inputs, call, error):
    """Each input that breaks a documented rule raises its typed error."""
    with pytest.raises(error):
        call(bad_inputs)


def test_partial_d_of_volume(sphere):
    # boundary(dz^dphi) = t * i_V(dz^dphi) = t * (-dz)
    x = embed(sphere.two_form((1,)))
    b = partial_d(x)
    assert b.total_degree == 3
    assert list(b.terms) == [(1,)]
    assert b.terms[(1,)] == sphere.one_form((-1,), ())


def test_cartan_d_squared_zero(sphere, torus, product):
    rng = np.random.default_rng(21)
    cases = [(sphere, 2), (sphere, 3), (torus, 2), (torus, 3),
             (product, 2), (product, 3), (product, 4)]
    for backend, deg in cases:
        for _ in range(4):
            x = random_element(rng, backend, deg)
            assert cartan_d(cartan_d(x)).is_zero


def test_p_operator_is_degree_zero_and_coexact(sphere):
    x = embed(sphere.two_form((1,)))
    px = p_operator(x)
    assert px.total_degree == 2
    assert px.terms[(1,)] == sphere.zero_form((0, -1))
    for form in px.terms.values():
        assert sphere.harmonic_projection(form).is_zero
        assert sphere.codifferential(form).is_zero


def test_boundary_squared_zero(sphere, torus, product):
    # the t_j commute while the contractions anticommute, so boundary^2 = 0
    rng = np.random.default_rng(22)
    for backend in (sphere, torus, product):
        for deg in (2, 3):
            for _ in range(3):
                x = random_element(rng, backend, deg)
                assert partial_d(partial_d(x)).is_zero


def test_extend_requires_closed_input(sphere):
    with pytest.raises(NotClosed):
        extend(sphere.zero_form((0, 1)))  # d(z) != 0


def test_extension_of_sphere_symplectic_form(sphere):
    omega, mu = sphere.symplectic_scenario()
    report = extend(omega)
    assert report.status == "extended"
    assert len(report.terms) == 2
    assert report.terms[0].terms[(0,)] == omega
    assert report.terms[1].terms[(1,)] == mu
    assert verify_extension(report) == 0.0
    assert report.final_residual_norm == 0.0


def test_extension_is_linear(sphere):
    w1 = sphere.two_form((1, 0, 2))
    w2 = sphere.two_form((0, 3))
    h1 = extend(w1).alpha_hat()
    h2 = extend(w2).alpha_hat()
    h12 = extend(w1 + w2).alpha_hat()
    assert h12 == h1 + h2


def test_exact_contraction_free_input_terminates_immediately(sphere):
    # a 0-form is closed only if constant; constants have zero contraction
    report = extend(sphere.zero_form((5,)))
    assert report.status == "extended"
    assert len(report.terms) == 1


def test_termination_bound(sphere, torus, product):
    # for torus-type generators P^m(alpha) = 0 once 2m exceeds deg(alpha)
    cases = [(sphere, sphere.two_form((0, 0, 1))),
             (product, product.tensor(product.b1.two_form((1,)),
                                      product.b2.two_form((1,)))),
             ]
    for backend, alpha in cases:
        report = extend(alpha)
        assert report.status == "extended"
        assert len(report.terms) <= alpha.degree // 2 + 1
        assert p_operator(report.terms[-1]).is_zero


def test_obstruction_on_free_torus_action(torus):
    vol = torus.basis_form(2, (0, 0), COS, (0, 1))
    report = extend(vol)
    assert report.status == "obstructed"
    assert report.obstruction_stage == 0
    assert len(report.terms) == 1          # nothing was projected away
    assert report.stage_obstructions[-1] > 0
    # i_V(dx^dy) = dy is harmonic with norm 2*pi
    assert report.stage_obstructions[-1] == pytest.approx(2 * np.pi)


def test_obstruction_residual_values(sphere, torus):
    dy = torus.basis_form(1, (0, 0), COS, (1,))
    assert obstruction_residual(dy) == pytest.approx(2 * np.pi)
    assert obstruction_residual(sphere.one_form((1,), ())) == 0.0
    with pytest.raises(NotClosed):
        obstruction_residual(torus.basis_form(1, (0, 1), SIN, (0,)))


def test_moment_map_examples(sphere, torus):
    omega, mu = sphere.symplectic_scenario()
    assert moment_map(omega) == mu
    # weighted area form z dz^dphi has Hamiltonian (1 - 3z^2)/6
    w = sphere.two_form((0, 1))
    assert moment_map(w) == sphere.zero_form(
        (Fraction(1, 6), 0, Fraction(-1, 2)))
    with pytest.raises(ObstructionDetected):
        moment_map(torus.basis_form(2, (0, 0), COS, (0, 1)))


def test_moment_map_requires_closed_input():
    b = make_product_backend(make_sphere_backend(4), make_sphere_backend(4))
    omega = b.tensor(b.b1.one_form((), (1,)), b.b2.one_form((1,), ()))
    with pytest.raises(NotClosed):
        moment_map(omega)


def test_moment_map_contracts_with_generator_0_only():
    """On S^2 x T^2 the 2-form 1 (x) dx^dy has i_0 omega = 0, so its moment
    map is zero, while its T^2 contraction dy is harmonic and obstructs the
    full extension at stage 0."""
    b = make_product_backend(make_sphere_backend(4),
                             make_torus_backend(2, 2, (1, 0)))
    omega = b.tensor(b.b1.zero_form((1,)),
                     b.b2.basis_form(2, (0, 0), COS, (0, 1)))
    assert moment_map(omega) == b.zero(0)
    report = extend(omega)
    assert report.status == "obstructed" and report.obstruction_stage == 0


def test_moment_map_requires_two_form(sphere):
    with pytest.raises(ValueError):
        moment_map(sphere.zero_form((1,)))


def test_extend_partial_reproduces_extension(product):
    omega = product.tensor(product.b1.two_form((1,)),
                           product.b2.two_form((1,)))
    report = extend(omega)
    terms = [report.terms[0]]
    for m in range(len(report.terms) - 1):
        terms.append(extend_partial(terms, m))
        assert terms[-1] == report.terms[m + 1]
    # and the defining chain relation d(a_{j}) = boundary(a_{j-1})
    for j in range(1, len(terms)):
        assert coefficient_d(terms[j]) == partial_d(terms[j - 1])


def test_extend_partial_rejects_bad_chains(sphere):
    omega, mu = sphere.symplectic_scenario()
    a0 = embed(omega)
    bogus = EquivariantElement(sphere, 2, {(1,): sphere.zero_form((1,))})
    with pytest.raises(PreconditionViolated) as exc:
        extend_partial([a0, bogus], 1)
    assert exc.value.index == 1
    not_closed = embed(sphere.zero_form((0, 1)))
    with pytest.raises(PreconditionViolated) as exc:
        extend_partial([not_closed], 0)
    assert exc.value.index == 0


def test_extend_partial_raises_on_obstruction(torus):
    vol = torus.basis_form(2, (0, 0), COS, (0, 1))
    with pytest.raises(ObstructionDetected) as exc:
        extend_partial([embed(vol)], 0)
    assert exc.value.stage == 0
    assert exc.value.residual > 0


def test_zero_minus_element_is_its_negative(product):
    rng = np.random.default_rng(40)
    x = random_element(rng, product, 4)
    zero = EquivariantElement(product, 0, {})
    diff = zero - x
    assert diff == x.scale(-1)
    assert diff.total_degree == x.total_degree == 4


def test_element_minus_itself_is_zero(sphere, torus, product):
    rng = np.random.default_rng(41)
    for backend in (sphere, torus, product):
        x = random_element(rng, backend, 2)
        assert not x.is_zero
        assert (x - x).is_zero


def test_subtraction_keeps_monomials_of_the_right_operand_only(product):
    rng = np.random.default_rng(42)
    a = random_exact_form(rng, product, 2)
    b = random_exact_form(rng, product, 0)
    x = EquivariantElement(product, 2, {(0, 0): a})
    y = EquivariantElement(product, 2, {(0, 0): a, (1, 0): b})
    assert x - y == EquivariantElement(product, 2, {(1, 0): b.scale(-1)})
    assert y - x == EquivariantElement(product, 2, {(1, 0): b})


@pytest.mark.parametrize("make", [
    lambda: make_sphere_backend(4),
    lambda: make_torus_backend(2, 2, (1, 0)),
    lambda: DecBackend(build_symmetric_sphere(4, 1, zigzag=0.1)),
], ids=["sphere", "torus", "dec"])
def test_form_subtraction_adds_the_negative(make):
    backend = make()
    rng = np.random.default_rng(43)
    for q in range(backend.n + 1):
        if backend.is_exact:
            a, b = (random_exact_form(rng, backend, q) for _ in range(2))
        else:
            a, b = (backend.form(q, rng.standard_normal(backend.dimension(q)))
                    for _ in range(2))
        assert a - b == a + b.scale(-1)
        assert -b == b.scale(-1)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_the_final_residual_is_the_cartan_differential_bit_for_bit(level):
    """extend's residual, d of each coefficient minus the boundaries its
    stages summed, is the recomputed |d_G(alpha_hat)| to the last bit on
    the mesh backend; the noise cochain is fault (c)'s input."""
    backend = DecBackend(build_symmetric_sphere(4, level, zigzag=0.1))
    z = backend.vertex_heights()
    noise = np.random.default_rng(20260).standard_normal(backend.dimension(2))
    for alpha in (backend.volume_form_cochain(),
                  backend.d(backend.form(0, z ** 2)),
                  backend.form(2, noise)):
        r = extend(alpha)
        assert r.status == "extended"
        assert r.final_residual_norm == cartan_d(r.alpha_hat()).norm()


def test_every_exact_preset_that_extends_has_residual_zero():
    from equihodge.cli import PRESETS
    from equihodge.serialization import backend_from_tag

    extended = 0
    for tag, make in PRESETS.values():
        backend = backend_from_tag(tag)
        if backend.is_exact:
            r = extend(make(backend))
            if r.status == "extended":
                extended += 1
                assert r.final_residual_norm == 0.0
    assert extended == 4


def test_extend_contracts_each_coefficient_once(monkeypatch):
    """The final residual reuses the stages' boundaries: one S^2 x S^2
    extension makes (coefficients x rank) contractions per stage and no
    more."""
    b = make_product_backend(make_sphere_backend(4), make_sphere_backend(4))
    alpha = (b.tensor(b.b1.two_form((1,)), b.b2.zero_form((1,)))
             + b.tensor(b.b1.zero_form((1,)), b.b2.two_form((1,))))
    calls = []
    contraction = b.contraction
    monkeypatch.setattr(b, "contraction",
                        lambda j, w: calls.append(j) or contraction(j, w))
    r = extend(alpha)
    assert r.status == "extended" and len(r.terms) == 2
    rank = b.generator_spec.rank
    assert len(calls) == sum(len(t.terms) * rank for t in r.terms) == 6
