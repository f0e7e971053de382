"""Property tests of the exact backends on random sparse rational forms.

``hypothesis`` draws forms with a few nonzero rational coefficients inside
each backend's user truncation and checks the identities the Hodge engine
rests on, exactly: ``d d = 0``, ``<d a, b> = <a, d* b>``, the Cartan
relations ``d i + i d = 0`` and ``i_j i_k + i_k i_j = 0``, and
``d_G(alpha_hat) = 0`` for every random closed form that extends.  The
eigenvalue and squared norm the engine reads for one eigen-coordinate are
those of its eigenvector.  The report and form text formats must read back
what they wrote.  Every element the extension layer builds, on these
backends and on a DEC mesh, is one the validating constructor accepts.
"""

from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equihodge import (DecBackend, EquivariantElement, InvariantForm,
                       ObstructionDetected, PiScalar, ProductBackend,
                       SphereBackend, build_symmetric_sphere, cartan_d,
                       coefficient_d, extend, make_product_backend,
                       make_sphere_backend, make_torus_backend, p_operator,
                       parse_form, parse_report, partial_d, serialize_form,
                       serialize_report)
from equihodge.equivariant import monomial_degree

BACKENDS = {
    "sphere": make_sphere_backend(4),
    "torus-2": make_torus_backend(2, 2, (1, 0)),
    "torus-3": make_torus_backend(3, 1, (1, 1, 0)),
    "s2xs2": make_product_backend(make_sphere_backend(2, 2),
                                  make_sphere_backend(2, 2)),
    "s2xs1": make_product_backend(make_sphere_backend(2, 2),
                                  make_torus_backend(1, 2, (1,))),
}

WITH_MESH = {**BACKENDS, "dec": DecBackend(build_symmetric_sphere(4, 1, zigzag=0.1))}

VALUES = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)


def user_indices(b, q):
    """Coefficient indices of degree q inside the user truncation: sphere
    z-degrees up to ``truncation``, every torus mode, and the products of
    those on each block of a product."""
    if isinstance(b, SphereBackend):
        m = b.capacity + 1
        return [k for k in range(b.dimension(q)) if k % m <= b.truncation]
    if isinstance(b, ProductBackend):
        return [offset + i * d2 + j
                for q1, q2, offset, _, d2 in b.block_layout(q)
                for i in user_indices(b.b1, q1) for j in user_indices(b.b2, q2)]
    return list(range(b.dimension(q)))


def sparse_form(data, b, q):
    """A degree-q form with at most four nonzero rational coefficients."""
    coeffs = [0] * b.dimension(q)
    indices = user_indices(b, q)
    if indices:
        for k in data.draw(st.lists(st.sampled_from(indices), max_size=4,
                                    unique=True)):
            coeffs[k] = data.draw(VALUES)
    return b.form(q, coeffs)


def any_form(data, b, q):
    """:func:`sparse_form` on an exact backend; on the mesh, the symmetrized
    cochain with at most four small integer values."""
    if b.is_exact:
        return sparse_form(data, b, q)
    values = np.zeros(b.dimension(q))
    if values.size:
        for k in data.draw(st.lists(st.integers(0, values.size - 1),
                                    max_size=4, unique=True)):
            values[k] = data.draw(st.integers(-4, 4))
    return b.symmetrize(InvariantForm(b, q, values))


def closed_form(data, b, q):
    """d of a drawn (q-1)-form plus a random combination of the degree-q
    harmonic basis."""
    alpha = b.d(any_form(data, b, q - 1)) if q > 0 else b.zero(q)
    for h in b.harmonic_basis(q):
        alpha = alpha + h.scale(data.draw(st.integers(-2, 2)))
    return alpha


def any_element(data, b, total_degree):
    """An element of the given total degree, one drawn form per admissible
    monomial of exponents below 3, made by the validating constructor."""
    spec = b.generator_spec
    terms = {}
    for mono in iproduct(range(3), repeat=spec.rank):
        q = total_degree - monomial_degree(mono, spec)
        if 0 <= q <= b.n:
            terms[mono] = any_form(data, b, q)
    return EquivariantElement(b, total_degree, terms)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_d_squared_is_zero(name, data):
    b = BACKENDS[name]
    q = data.draw(st.integers(0, b.n))
    assert b.d(b.d(sparse_form(data, b, q))).is_zero


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_codifferential_is_the_adjoint_of_d(name, data):
    b = BACKENDS[name]
    q = data.draw(st.integers(0, b.n - 1))
    a, c = sparse_form(data, b, q), sparse_form(data, b, q + 1)
    assert b.inner_product(b.d(a), c) == b.inner_product(a, b.codifferential(c))


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_eigen_pair_is_that_of_the_eigenvector(name, data):
    """For an eigen-coordinate k inside the user truncation, the eigenvector
    h with coordinates e_k has Laplacian lam_k h and squared norm n_k pi^p
    exactly, (lam_k, n_k) being what the engine reads for k.  Its energy
    |d h|^2 + |d* h|^2, read in the degrees above and below, is lam_k n_k
    pi^p, which ties n_k to d and d* rather than to the engine alone."""
    b = BACKENDS[name]
    q = data.draw(st.integers(0, b.n))
    k = data.draw(st.sampled_from(user_indices(b, q)))
    lam, norm = b._eigen(q, k)
    h = b._from_eigen(InvariantForm.from_entries(b, q, ((k, Fraction(1)),)))
    assert b.laplacian(h) == h.scale(lam)
    assert b.inner_product(h, h) == PiScalar(norm, b._pi_power)
    up, down = b.d(h), b.codifferential(h)
    assert b.inner_product(up, up) + b.inner_product(down, down) == PiScalar(
        lam * norm, b._pi_power)


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cartan_relations(name, data):
    """On forms of every degree, d i_j + i_j d = 0 (the Lie derivative of an
    invariant form vanishes) and i_j i_k + i_k i_j = 0, identically, for
    every pair of generators: the relations that make d_G square to zero."""
    b = BACKENDS[name]
    rank = b.generator_spec.rank
    for q in range(b.n + 1):
        w = sparse_form(data, b, q)
        for j in range(rank):
            assert (b.d(b.contraction(j, w)) + b.contraction(j, b.d(w))).is_zero
            for k in range(j, rank):
                assert (b.contraction(j, b.contraction(k, w))
                        + b.contraction(k, b.contraction(j, w))).is_zero


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_extended_closed_forms_are_equivariantly_closed(name, data):
    """A random closed form either extends with d_G(alpha_hat) = 0 exactly
    or is obstructed; its report reads back to the same report."""
    b = BACKENDS[name]
    alpha = closed_form(data, b, data.draw(st.integers(0, b.n)))
    report = extend(alpha)
    if report.status == "extended":
        assert cartan_d(report.alpha_hat()).is_zero
        assert report.final_residual_norm == 0.0
    else:
        assert report.obstruction > 0
    text = serialize_report(report)
    again = parse_report(text)
    assert serialize_report(again) == text
    assert (again.status, again.obstruction) == (report.status, report.obstruction)
    assert [{m: f.coeffs for m, f in t.terms.items()} for t in again.terms] == \
        [{m: f.coeffs for m, f in t.terms.items()} for t in report.terms]


@pytest.mark.parametrize("name", BACKENDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_form_text_round_trip(name, data):
    b = BACKENDS[name]
    w = sparse_form(data, b, data.draw(st.integers(0, b.n)))
    text = serialize_form(w)
    again = parse_form(text)
    assert again.backend.tag == b.tag
    assert (again.degree, again.coeffs) == (w.degree, w.coeffs)
    assert serialize_form(again) == text


@pytest.mark.parametrize("name", WITH_MESH)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_library_elements_keep_the_public_invariant(name, data):
    """Each element the library's operators and extension loop build has
    sorted monomials and no zero coefficient, and the validating
    constructor rebuilds it equal."""
    b = WITH_MESH[name]
    total = data.draw(st.integers(0, b.n + 2))
    x, y = any_element(data, b, total), any_element(data, b, total)
    c = data.draw(st.sampled_from([0, 1, Fraction(-3, 2)]))
    built = [partial_d(x), coefficient_d(x), cartan_d(x), x + y, x - y, x - x,
             x.scale(c)]
    try:
        built.append(p_operator(x))
    except ObstructionDetected:
        pass
    report = extend(closed_form(data, b, data.draw(st.integers(0, b.n))))
    for z in built + report.terms + [report.alpha_hat()]:
        assert list(z.terms) == sorted(z.terms)
        assert not any(f.is_zero for f in z.terms.values())
        assert EquivariantElement(z.backend, z.total_degree, z.terms) == z
