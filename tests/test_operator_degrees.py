"""The degree contract of the four operators that ``Backend`` writes once.

``d`` raises the degree by one, the codifferential lowers it by one, the
star maps degree q to n - q, and the contraction bound to generator j maps
q to q - deg t_j + 1.  Every backend is checked at every degree from -1
to n + 1: a form of a degree outside [0, n] is a zero placeholder, and an
operator that lands outside [0, n] gives a zero form there.
"""

import numpy as np
import pytest

from equihodge import (BackendMismatch, DecBackend, FormalGenerator,
                       build_symmetric_sphere, make_product_backend,
                       make_sphere_backend, make_torus_backend,
                       with_formal_generators)
from conftest import random_exact_form


def _formal():
    """T^3 with a degree-4 generator whose contraction takes a 3-form to
    its star and every other degree to zero."""
    base = make_torus_backend(3, 1, (1, 1, 0))

    def contract(w):
        return base.star(w) if w.degree == 3 else base.zero(w.degree - 3)
    return with_formal_generators(base, [FormalGenerator(4, "u", contract)])


BACKENDS = {
    "sphere": lambda: make_sphere_backend(4),
    "torus-3": lambda: make_torus_backend(3, 1, (1, 0, 0)),
    "s2xs1": lambda: make_product_backend(make_sphere_backend(2, 1),
                                          make_torus_backend(1, 2, (1,))),
    "formal": _formal,
    "dec": lambda: DecBackend(build_symmetric_sphere(4, 0)),
}


def any_form(backend, q, rng):
    """A form of degree q with every coefficient in use: random values on
    the mesh and, on the exact backends, inside the user truncation."""
    if not backend.is_exact:
        return backend.form(q, rng.standard_normal(backend.dimension(q)))
    base = getattr(backend, "base", backend)
    return backend.form(q, random_exact_form(rng, base, q).coeffs)


def assert_lands(backend, res, degree):
    """res is a form of the backend in the given degree, with that degree's
    number of coefficients, and zero when the degree is outside [0, n]."""
    assert res.backend is backend and res.degree == degree
    assert len(res.coeffs) == backend.dimension(degree)
    if not 0 <= degree <= backend.n:
        assert res.is_zero


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_every_operator_lands_in_its_degree(name):
    backend = BACKENDS[name]()
    spec, n = backend.generator_spec, backend.n
    rng = np.random.default_rng(24)
    for q in range(-1, n + 2):
        w = any_form(backend, q, rng)
        assert_lands(backend, w, q)
        assert_lands(backend, backend.d(w), q + 1)
        assert_lands(backend, backend.codifferential(w), q - 1)
        for j, degree in enumerate(spec.degrees):
            assert_lands(backend, backend.contraction(j, w), q - degree + 1)
        for j in (-1, spec.rank):
            with pytest.raises(IndexError, match="generator index out of range"):
                backend.contraction(j, w)
        if backend.is_exact:
            assert_lands(backend, backend.star(w), n - q)
        else:
            with pytest.raises(BackendMismatch):
                backend.star(w)
