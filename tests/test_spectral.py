"""The exact spectral engine against independent references.

Inner products and harmonic projections are checked entry for entry
against the sympy oracles of ``bruteforce.py``; product inner products
against the factors'; and the harmonic bases against explicitly written
vectors, in their documented order.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy as sp

from bruteforce import SphereOracle, TorusOracle
from conftest import random_exact_form
from equihodge import (
    COS,
    FormalGenerator,
    InvariantForm,
    make_product_backend,
    make_sphere_backend,
    make_torus_backend,
    with_formal_generators,
)


def _fraction(x):
    x = sp.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _unit(backend, q, i):
    coeffs = [0] * backend.dimension(q)
    coeffs[i] = 1
    return backend.form(q, coeffs)


def test_sphere_inner_products_and_harmonic_parts_match_the_oracle():
    b = make_sphere_backend(3, stages=1)
    oracle = SphereOracle(3, b.capacity)
    for q in range(3):
        domain = oracle.domain_basis(q)
        forms = [b.form(q, oracle._to_coeffs(q, w)) for w in domain]
        for u, fu in zip(domain, forms):
            for w, fw in zip(domain, forms):
                ip = b.inner_product(fu, fw)
                assert ip.pi_power == 1
                assert ip.coeff == _fraction(oracle._inner(q, u, w))
        harmonic = [tuple(b.harmonic_projection(f).coeffs) for f in forms]
        assert harmonic == oracle.matrix("harmonic", q), "degree %d" % q


def test_torus_inner_products_and_harmonic_parts_match_the_oracle():
    t = make_torus_backend(2, 2, (1, 0))
    oracle = TorusOracle(t)
    # every component dx_I is orthonormal, so the form Gram matrix is the
    # scalar one on equal index sets and zero otherwise
    funcs = [fn for _, fn in oracle._basis[0]]
    scalar = [[oracle._inner_scalar(f, g) / sp.pi ** 2 for g in funcs]
              for f in funcs]
    for q in range(3):
        dim = t.dimension(q)
        for i in range(dim):
            k, phase, I = t._basis[q][i]
            fi = t._index[0][(k, phase, ())]
            for j in range(dim):
                kj, phasej, J = t._basis[q][j]
                fj = t._index[0][(kj, phasej, ())]
                ip = t.inner_product(_unit(t, q, i), _unit(t, q, j))
                assert ip.pi_power == 2
                expected = scalar[fi][fj] if I == J else 0
                assert ip.coeff == _fraction(expected)
        harmonic = [tuple(t.harmonic_projection(_unit(t, q, i)).coeffs)
                    for i in range(dim)]
        assert harmonic == oracle.matrix("harmonic", q), "degree %d" % q


def test_product_inner_product_of_pure_tensors_is_the_factor_product():
    s = make_sphere_backend(3, stages=1)
    t = make_torus_backend(1, 2, (1,))
    p = make_product_backend(s, t)
    rng = np.random.default_rng(11)
    for q in range(p.n + 1):
        for q1, q2, _, _, _ in p.block_layout(q):
            for _ in range(3):
                u1, w1 = (random_exact_form(rng, s, q1) for _ in range(2))
                u2, w2 = (random_exact_form(rng, t, q2) for _ in range(2))
                ip = p.inner_product(p.tensor(u1, u2), p.tensor(w1, w2))
                factors = s.inner_product(u1, w1) * t.inner_product(u2, w2)
                assert ip == factors
                assert ip.pi_power == 2


def _sphere_harmonics(b):
    return {0: [b.zero_form((1,))], 1: [], 2: [b.two_form((1,))]}


def _torus_harmonics(t):
    return {q: [t.basis_form(q, (0,) * t.n, COS, I)
                for I in combinations(range(t.n), q)]
            for q in range(t.n + 1)}


def _product_harmonics(p, h1, h2):
    return {q: [p.tensor(a, b)
                for q1 in range(p.b1.n + 1) if 0 <= q - q1 <= p.b2.n
                for a in h1[q1] for b in h2[q - q1]]
            for q in range(p.n + 1)}


def _harmonic_cases():
    s = make_sphere_backend(4, stages=1)
    s2 = make_sphere_backend(2, stages=1)
    t1 = make_torus_backend(1, 2, (1,))
    t2 = make_torus_backend(2, 2, (1, 0))
    t3 = make_torus_backend(3, 1, (1, 1, 0))
    ss = make_product_backend(s, s2)
    st = make_product_backend(s, t1)
    return {
        "sphere": (s, _sphere_harmonics(s)),
        "torus2": (t2, _torus_harmonics(t2)),
        "torus3": (t3, _torus_harmonics(t3)),
        "sphere-sphere": (ss, _product_harmonics(
            ss, _sphere_harmonics(s), _sphere_harmonics(s2))),
        "sphere-torus": (st, _product_harmonics(
            st, _sphere_harmonics(s), _torus_harmonics(t1))),
    }


@pytest.mark.parametrize("name", sorted(_harmonic_cases()))
def test_harmonic_basis_vectors_and_order(name):
    backend, expected = _harmonic_cases()[name]
    for q in range(-1, backend.n + 2):
        assert backend.harmonic_basis(q) == expected.get(q, [])
    formal = with_formal_generators(
        backend, [FormalGenerator(4, "x", lambda w: backend.zero(w.degree - 3))])
    for q in range(backend.n + 1):
        assert formal.harmonic_basis(q) == [
            InvariantForm(formal, q, h.coeffs) for h in expected[q]]
