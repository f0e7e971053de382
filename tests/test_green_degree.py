"""Green's operator is solved one degree away from the coefficient.

The extension stage computes d* G f as G(d* f), and the Hodge split
computes d d* G w as d G(d* w) and d* d G w as d* G(d w).  These tests pin
the identities that make the orders interchangeable, the degrees the mesh
backend actually solves in, and the split against the single-solve formula
``G w``.
"""

import itertools

import numpy as np
import pytest

from conftest import random_exact_form
from equihodge import (
    DecBackend,
    FormalGenerator,
    FormalGeneratorBackend,
    InvariantForm,
    build_symmetric_sphere,
    extend,
    make_product_backend,
    make_sphere_backend,
    make_torus_backend,
    moment_map,
    with_formal_generators,
)


def _formal():
    base = make_sphere_backend(4, stages=3)
    return with_formal_generators(
        base, [FormalGenerator(4, "p4", lambda w: base.zero(w.degree - 3))])


EXACT = {
    "sphere": lambda: make_sphere_backend(8, stages=3),
    "torus2": lambda: make_torus_backend(2, 2, (1, 0)),
    "torus3": lambda: make_torus_backend(3, 2, (1, 1, 0)),
    "sphere-x-sphere": lambda: make_product_backend(
        make_sphere_backend(4, stages=3), make_sphere_backend(4, stages=3)),
    "formal": _formal,
}


def random_form(rng, backend, q):
    if isinstance(backend, FormalGeneratorBackend):
        return InvariantForm(backend, q,
                             random_exact_form(rng, backend.base, q).coeffs)
    return random_exact_form(rng, backend, q)


@pytest.mark.parametrize("name", sorted(EXACT))
def test_green_commutes_with_the_codifferential_exactly(name):
    backend = EXACT[name]()
    rng = np.random.default_rng(11)
    for q in range(backend.n + 1):
        for _ in range(2):
            f = random_form(rng, backend, q)
            assert backend.green(backend.codifferential(f)) == \
                backend.codifferential(backend.green(f))


def dec_backend_at(n_sym, level, zigzag):
    return DecBackend(build_symmetric_sphere(n_sym, level, zigzag=zigzag))


def smooth_polynomial(rng, points):
    """A random polynomial of degree <= 3 in x, y, z sampled at points."""
    out = np.zeros(len(points))
    for e in itertools.product(range(4), repeat=3):
        if sum(e) <= 3:
            out += rng.standard_normal() * np.prod(points ** np.array(e), axis=1)
    return out


@pytest.mark.parametrize("n_sym,level,zigzag", [
    (4, 0, 0.1), (4, 1, 0.1), (4, 2, 0.1), (4, 3, 0.1), (6, 1, 0.0)])
def test_dec_green_commutes_with_the_codifferential(n_sym, level, zigzag):
    # smooth inputs: the CG stops at a residual relative to the right-hand
    # side, so on a rough cochain each order is only accurate to that
    # residual divided by the smallest eigenvalue
    B = dec_backend_at(n_sym, level, zigzag)
    mesh = B.mesh
    rng = np.random.default_rng(12)
    vol = B.volume_form_cochain()
    centroids = mesh.positions[mesh.tri_vertices].mean(axis=1)
    for _ in range(2):
        f0 = B.symmetrize(B.form(0, smooth_polynomial(rng, mesh.positions)))
        f2 = B.symmetrize(B.form(2, smooth_polynomial(rng, centroids) * vol.coeffs))
        f1 = B.d(f0) + B.codifferential(f2) + B.contraction(0, vol)
        for f in (f1, f2):
            lower = B.green(B.codifferential(f))
            direct = B.codifferential(B.green(f))
            assert B.norm(lower - direct) <= 1e-10 * B.norm(direct)


@pytest.fixture
def recorded_dec(monkeypatch):
    """A DEC backend whose green records the degree of every call."""
    B = dec_backend_at(4, 2, 0.1)
    degrees = []
    solve = B.green

    def green(w):
        degrees.append(w.degree)
        return solve(w)

    monkeypatch.setattr(B, "green", green)
    return B, degrees


def test_dec_extension_and_moment_map_solve_on_vertices(recorded_dec):
    B, degrees = recorded_dec
    assert extend(B.volume_form_cochain()).status == "extended"
    moment_map(B.volume_form_cochain())
    assert degrees and set(degrees) == {0}


@pytest.mark.parametrize("q,expected", [(0, []), (1, [0, 2]), (2, [])])
def test_dec_hodge_split_solve_degrees(recorded_dec, q, expected):
    B, degrees = recorded_dec
    w = B.symmetrize(B.form(q, np.random.default_rng(13).standard_normal(B.dimension(q))))
    B.hodge_decompose(w)
    assert sorted(degrees) == expected


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_dec_hodge_split_properties(level, q):
    B = dec_backend_at(4, level, 0.1)
    rng = np.random.default_rng(100 * level + q)
    w = B.symmetrize(B.form(q, rng.standard_normal(B.dimension(q))))
    split = B.hodge_decompose(w)
    x = w.coeffs
    scale = B.norm(w)
    assert np.abs(split.total().coeffs - x).max() <= 1e-12 * np.abs(x).max()
    parts = (split.harmonic, split.exact, split.coexact)
    for a, b in itertools.combinations(parts, 2):
        assert abs(B.inner_product(a, b)) <= 1e-9 * scale * scale
    assert B.norm(B.d(split.exact)) <= 1e-9 * scale
    assert B.norm(B.codifferential(split.coexact)) <= 1e-9 * scale
    # the single-solve formula: exact = d d* G w, coexact = d* d G w
    g = B.green(w)
    exact = B.d(B.codifferential(g))
    coexact = B.codifferential(B.d(g))
    for new, old in ((split.exact, exact), (split.coexact, coexact),
                     (split.harmonic, w - exact - coexact)):
        assert B.norm(new - old) <= 1e-9 * scale


OUT_OF_RANGE = {
    "sphere": lambda: make_sphere_backend(4, stages=3),
    "torus": lambda: make_torus_backend(2, 2, (1, 0)),
    "product": lambda: make_product_backend(
        make_sphere_backend(3, stages=3), make_sphere_backend(3, stages=3)),
    "dec": lambda: dec_backend_at(4, 1, 0.1),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_operators_on_out_of_range_degrees_give_zero_forms(name):
    B = OUT_OF_RANGE[name]()
    for q in (-1, B.n + 1):
        z = B.zero(q)
        assert B.green(z) == z
        assert B.laplacian(z) == z
        split = B.hodge_decompose(z)
        assert split.harmonic == z and split.exact == z and split.coexact == z
