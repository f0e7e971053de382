"""Acceptance suite: one test (one pass/fail line under ``pytest -v``) per
criterion, each at its stated tolerance.  Exact-backend checks compare
Fraction coefficients, so "zero" means identically zero.

Oracle provenance is marked per assertion:
  [DERIVED]  value computed independently (by hand or via the sympy
             oracles in bruteforce.py),
  [TRIVIAL]  structural identity asserted directly.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_exact_form
from equihodge import (
    COS,
    DecBackend,
    EquivariantElement,
    ObstructionDetected,
    build_symmetric_sphere,
    cartan_d,
    extend,
    extend_partial,
    coefficient_d,
    make_product_backend,
    make_sphere_backend,
    make_torus_backend,
    moment_map,
    p_operator,
    partial_d,
    verify_extension,
)
from equihodge.sphere import legendre


def test_criterion_01_sphere_symplectic_example_exact():
    """extend(dz^dphi) = omega - t z, verified and timed."""
    start = time.monotonic()
    b = make_sphere_backend(8)
    omega = b.two_form((1,))
    report = extend(omega)
    assert report.status == "extended"
    assert len(report.terms) == 2
    # [DERIVED] the two terms are exactly omega and -t*z
    assert report.terms[0].terms == {(0,): omega}
    assert report.terms[1].terms == {(1,): b.zero_form((0, -1))}
    # [TRIVIAL] independent recheck is exactly zero
    assert verify_extension(report) == 0.0
    # [DERIVED] moment map is -z with exactly zero harmonic part
    mu = moment_map(omega)
    assert mu == b.zero_form((0, -1))
    assert b.harmonic_projection(mu).is_zero
    assert time.monotonic() - start < 1.0


def test_criterion_02_randomized_equivariant_closedness_exact():
    """>= 50 random closed unobstructed forms: cartan_d(alpha_hat) == 0."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    cases = []

    sphere = make_sphere_backend(8)
    for _ in range(20):  # closed 2-forms, z-degree <= 8
        cases.append(sphere.two_form(
            [Fraction(int(rng.integers(-5, 6))) for _ in range(9)]))
    for _ in range(10):  # exact 1-forms d(f)
        cases.append(sphere.d(random_exact_form(rng, sphere, 0)))

    prod = make_product_backend(
        make_sphere_backend(3, stages=2), make_sphere_backend(3, stages=2))
    h2 = prod.harmonic_basis(2)
    h4 = prod.harmonic_basis(4)
    for _ in range(8):   # closed 2-forms: exact + harmonic
        w = prod.d(random_exact_form(rng, prod, 1))
        for h in h2:
            w = w + h.scale(Fraction(int(rng.integers(-3, 4))))
        cases.append(w)
    for _ in range(8):   # closed (exact) 3-forms
        cases.append(prod.d(random_exact_form(rng, prod, 2)))
    for _ in range(8):   # closed 4-forms: exact + harmonic
        w = prod.d(random_exact_form(rng, prod, 3))
        for h in h4:
            w = w + h.scale(Fraction(int(rng.integers(-3, 4))))
        cases.append(w)

    assert len(cases) >= 50
    for alpha in cases:
        report = extend(alpha)
        assert report.status == "extended"
        assert all(r == 0.0 for r in report.stage_obstructions)
        # [TRIVIAL] exact equivariant closedness in rational arithmetic
        assert cartan_d(report.alpha_hat()).is_zero
    assert time.monotonic() - start < 30.0


def test_criterion_03_hodge_identity_suite_exact():
    """d^2, (d*)^2, Delta = dd* + d*d, adjointness, Green contracts, star."""
    backends = [make_sphere_backend(6), make_torus_backend(2, 3, (1, 0))]
    rng = np.random.default_rng(3)
    for b in backends:
        # adjointness on all basis pairs at truncation <= 6
        from test_hodge import basis

        for q in range(1, b.n + 1):
            for a in basis(b, q - 1):
                da = b.d(a)
                for w in basis(b, q):
                    assert (b.inner_product(da, w)
                            - b.inner_product(a, b.codifferential(w))).is_zero
        for q in range(b.n + 1):
            for _ in range(3):
                w = random_exact_form(rng, b, q)
                assert b.d(b.d(w)).is_zero
                assert b.codifferential(b.codifferential(w)).is_zero
                # [TRIVIAL] Delta = dd* + d*d is the library definition;
                # check it against the star-conjugate form instead
                lap = b.laplacian(w)
                sign = -1 if (b.n * (w.degree + 1) + 1) % 2 else 1
                delta_w = b.star(b.d(b.star(w))).scale(sign)
                assert b.codifferential(w) == delta_w
                g = b.green(w)
                h = b.harmonic_projection(w)
                assert b.laplacian(g) == w - h           # Delta G = I - H
                assert b.green(h).is_zero                # G H = 0
                assert b.harmonic_projection(g).is_zero  # H G = 0
                assert b.green(b.d(w)) == b.d(g)         # G d = d G
                assert b.green(b.codifferential(w)) == b.codifferential(g)
                # star-square sign law: ** = (-1)^(q(n-q))
                ss = -1 if (w.degree * (b.n - w.degree)) % 2 else 1
                assert b.star(b.star(w)) == w.scale(ss)


def test_criterion_04_spectral_oracle_exact():
    """Legendre eigenrelation on the sphere; |k|^2 eigenvalues on the torus."""
    b = make_sphere_backend(6)
    for ell in range(1, 7):
        p = b.zero_form(legendre(ell))            # [DERIVED] classical P_l
        lam = Fraction(ell * (ell + 1))
        assert b.laplacian(p) == p.scale(lam)
        assert b.green(p) == p.scale(1 / lam)
    t = make_torus_backend(2, 5, (1, 0))
    for q in range(3):
        for i in range(t.dimension(q)):
            coeffs = [Fraction(0)] * t.dimension(q)
            coeffs[i] = Fraction(1)
            w = t.form(q, coeffs)
            k, _, _ = t._basis[q][i]
            lam = sum(c * c for c in k)  # [DERIVED] |k|^2
            assert t.laplacian(w) == w.scale(lam)


def test_criterion_05_termination_bound_exact():
    """P^m(alpha) = 0 exactly once 2m > deg(alpha); the loop stops there."""
    sphere = make_sphere_backend(6)
    torus = make_torus_backend(2, 2, (1, 0))
    prod = make_product_backend(
        make_sphere_backend(3, stages=2), make_sphere_backend(3, stages=2))
    rng = np.random.default_rng(5)
    cases = [sphere.two_form((1, 2, 0, 3)),
             sphere.d(random_exact_form(rng, sphere, 0)),
             torus.basis_form(1, (0, 1), COS, (0,)),
             prod.tensor(prod.b1.two_form((1,)), prod.b2.two_form((1,))),
             prod.d(random_exact_form(rng, prod, 2))]
    for alpha in cases:
        q = alpha.degree
        x = EquivariantElement.from_form(alpha)
        m = 0
        while 2 * m <= q:
            x = p_operator(x)
            m += 1
        assert x.is_zero                          # first m with 2m > q
        assert p_operator(x).is_zero
        if alpha.backend.is_zero(alpha.backend.d(alpha)):
            report = extend(alpha)
            assert len(report.terms) <= q // 2 + 1


def test_criterion_06_p_after_boundary_vanishes_exact():
    """p_operator(partial_d(x)) = 0 for >= 25 random x per exact backend."""
    sphere = make_sphere_backend(5)
    torus = make_torus_backend(2, 2, (1, 0))
    prod = make_product_backend(
        make_sphere_backend(3, stages=2), make_torus_backend(1, 2, (1,)))
    rng = np.random.default_rng(6)
    for backend in (sphere, torus, prod):
        count = 0
        while count < 25:
            deg = int(rng.integers(1, backend.n + 2))
            q0 = min(deg, backend.n)
            terms = {}
            spec = backend.generator_spec
            mono0 = (0,) * spec.rank
            terms[mono0] = random_exact_form(rng, backend, q0)
            x = EquivariantElement(backend, q0, terms)
            if x.is_zero:
                continue
            assert p_operator(partial_d(x)).is_zero
            count += 1


def test_criterion_07_obstruction_detected_not_projected():
    """Free T^2 action: dx^dy and dx are obstructed at stage 0."""
    t = make_torus_backend(2, 2, (1, 0))
    for alpha in (t.basis_form(2, (0, 0), COS, (0, 1)),
                  t.basis_form(1, (0, 0), COS, (0,))):
        report = extend(alpha)
        assert report.status == "obstructed"
        assert report.obstruction_stage == 0
        assert report.stage_obstructions[0] > 0.0
        assert len(report.terms) == 1     # nothing was silently projected
        # the raising interface reports the same stage
        with pytest.raises(ObstructionDetected) as exc:
            extend_partial([EquivariantElement.from_form(alpha)], 0)
        assert exc.value.stage == 0 and exc.value.residual > 0


def test_criterion_08_multi_generator_monomials_exact():
    """S^2 x S^2: omega1 ^ omega2 extends with a nonzero t1 t2 coefficient."""
    prod = make_product_backend(
        make_sphere_backend(4, stages=3), make_sphere_backend(4, stages=3))
    omega = prod.tensor(prod.b1.two_form((1,)), prod.b2.two_form((1,)))
    report = extend(omega)
    assert report.status == "extended"
    assert verify_extension(report) == 0.0
    assert report.terminated_at_stage <= 3
    c = report.alpha_hat().coefficient((1, 1))
    assert not c.is_zero
    # [DERIVED] by hand: the t1 t2 coefficient is z (x) z
    assert c == prod.tensor(prod.b1.zero_form((0, 1)),
                            prod.b2.zero_form((0, 1)))


def test_criterion_09_partial_extension_continuation_exact():
    """extend_partial continues any successful prefix and reproduces it."""
    prod = make_product_backend(
        make_sphere_backend(4, stages=3), make_sphere_backend(4, stages=3))
    sphere = make_sphere_backend(6)
    inputs = [sphere.two_form((1,)),
              prod.tensor(prod.b1.two_form((1,)), prod.b2.two_form((1,)))]
    for alpha in inputs:
        report = extend(alpha)
        assert report.status == "extended"
        terms = [report.terms[0]]
        for m in range(len(report.terms) - 1):
            nxt = extend_partial(terms, m)
            # d(a_{m+1}) = boundary(a_m) exactly
            assert coefficient_d(nxt) == partial_d(terms[m])
            terms.append(nxt)
        assert terms == report.terms
        # iterating past the end yields zero continuations
        tail = extend_partial(terms, len(terms) - 1)
        assert tail.is_zero


def test_criterion_10_dec_convergence():
    """Residual and moment-map error decrease monotonically over 4 levels."""
    start = time.monotonic()
    residuals = []
    mu_errors = []
    for level in range(4):
        mesh = build_symmetric_sphere(4, level, zigzag=0.1)
        dec = DecBackend(mesh)
        vol = dec.volume_form_cochain()
        report = extend(vol)
        assert report.status == "extended"
        residuals.append(cartan_d(report.alpha_hat()).norm())
        mu = moment_map(vol)
        target = dec.form(0, -dec.vertex_heights())
        target = target - dec.harmonic_projection(target)
        mu_errors.append(float(np.max(np.abs(mu.coeffs - target.coeffs))))
    for prev, cur in zip(residuals, residuals[1:]):
        assert cur < prev
        assert cur / prev <= 0.7
    for prev, cur in zip(mu_errors, mu_errors[1:]):
        assert cur < prev
    assert time.monotonic() - start < 120.0


def test_criterion_11_brute_force_matrix_equivalence():
    """Every operator matrix matches the sympy oracle entry for entry."""
    from bruteforce import SphereOracle, TorusOracle

    # -- sphere at N = 3 ----------------------------------------------------
    b = make_sphere_backend(3, stages=1)
    oracle = SphereOracle(3, b.capacity)

    def lib_columns(op, q):
        cols = []
        for w in _sphere_domain_basis(b, q):
            cols.append(tuple(op(w).coeffs))
        return cols

    ops = {
        "d": b.d,
        "star": b.star,
        "delta": b.codifferential,
        "laplacian": b.laplacian,
        "contraction": lambda w: b.contraction(0, w),
        "green": b.green,
        "p": lambda w: b.codifferential(b.green(b.contraction(0, w))),
    }
    degrees = {"d": (0, 1), "star": (0, 1, 2), "delta": (1, 2),
               "laplacian": (0, 1, 2), "contraction": (1, 2),
               "green": (0, 1, 2), "p": (2,)}
    for name, qs in degrees.items():
        for q in qs:
            assert lib_columns(ops[name], q) == oracle.matrix(name, q), \
                "sphere %s degree %d" % (name, q)

    # -- torus at K = 2 -----------------------------------------------------
    t = make_torus_backend(2, 2, (1, 0))
    toracle = TorusOracle(t)

    def t_columns(op, q):
        cols = []
        for i in range(t.dimension(q)):
            coeffs = [Fraction(0)] * t.dimension(q)
            coeffs[i] = Fraction(1)
            cols.append(tuple(op(t.form(q, coeffs)).coeffs))
        return cols

    tops = {
        "d": t.d,
        "star": t.star,
        "delta": t.codifferential,
        "laplacian": t.laplacian,
        "contraction": lambda w: t.contraction(0, w),
        "green": t.green,
        "p": lambda w: t.codifferential(t.green(t.contraction(0, w))),
    }
    tdegrees = {"d": (0, 1), "star": (0, 1, 2), "delta": (1, 2),
                "laplacian": (0, 1, 2), "contraction": (1, 2),
                "green": (0, 1, 2), "p": (2,)}
    for name, qs in tdegrees.items():
        for q in qs:
            assert t_columns(tops[name], q) == toracle.matrix(name, q), \
                "torus %s degree %d" % (name, q)


def _sphere_domain_basis(b, q):
    mono = lambda i: (0,) * i + (1,)
    out = []
    for i in range(b.truncation + 1):
        if q == 0:
            out.append(b.zero_form(mono(i)))
        elif q == 2:
            out.append(b.two_form(mono(i)))
    if q == 1:
        for i in range(b.truncation + 1):
            out.append(b.one_form(mono(i), ()))
        for i in range(b.truncation + 1):
            out.append(b.one_form((), mono(i)))
    return out
