"""Exact arithmetic over cached nonzero entries equals the dense reference.

Every exact form caches its nonzero ``(index, value)`` entries, and sums,
negation, scaling, the zero test, the operators, Green's operator, harmonic
projection and the inner product read them instead of the whole
coefficient tuple.  These tests compare each of them exactly with the dense
arithmetic kept in ``bruteforce`` (element-wise maps, ``all(c == 0 ...)``,
full-scan mat-vecs and block splits), on sparse and dense forms of every
degree, and check that every form they return caches exactly the nonzeros
of its coefficients.
"""

from fractions import Fraction

import numpy as np
import pytest

from equihodge import (EquivariantElement, FormalGenerator, InvariantForm,
                       make_product_backend, make_sphere_backend,
                       make_torus_backend, with_formal_generators)
from bruteforce import (DenseProduct, DenseSphere, DenseTorus, dense_add,
                        dense_is_zero, dense_neg, dense_scale, dense_sub)
from conftest import random_exact_form

TORI = [(1, 2, (1,)), (2, 2, (1, 0)), (2, 2, (2, 0)), (3, 2, (1, 1, 0)),
        (3, 2, (0, 0, 2))]


def _formal(base):
    """base with a degree-4 generator whose contraction takes a 3-form to
    its star and every other degree to zero."""
    def contract(w):
        return base.star(w) if w.degree == 3 else base.zero(w.degree - 3)
    return with_formal_generators(base, [FormalGenerator(4, "u", contract)])


PAIRS = {"sphere-%d" % N: (lambda N=N: (make_sphere_backend(N), DenseSphere(N)))
         for N in (2, 8, 32)}
PAIRS.update({"torus-%d-%d-%s" % (n, K, "".join(map(str, v))):
              (lambda n=n, K=K, v=v: (make_torus_backend(n, K, v),
                                      DenseTorus(n, K, v)))
              for n, K, v in TORI})
PAIRS.update({"s2xs2-%d" % N: (lambda N=N: (
    make_product_backend(make_sphere_backend(N, 1), make_sphere_backend(N, 1)),
    DenseProduct(DenseSphere(N, 1), DenseSphere(N, 1)))) for N in (2, 3)})
PAIRS["formal"] = lambda: (_formal(make_torus_backend(3, 2, (1, 1, 0))),
                           _formal(DenseTorus(3, 2, (1, 1, 0))))


def scan(w):
    return tuple((i, c) for i, c in enumerate(w.coeffs) if c)


def assert_entries(w, seeded=False):
    """w's cached entries are the nonzeros of its coefficients; a form an
    operator returns has them from its producer."""
    assert isinstance(w.coeffs, tuple)
    assert all(type(c) is Fraction for c in w.coeffs)
    if seeded:
        assert w._entries is not None
    assert w.entries == scan(w), w


def random_form(rng, b, q):
    base = getattr(b, "base", b)
    return b.form(q, random_exact_form(rng, base, q).coeffs)


def sparse_form(rng, b, q, keep):
    """A random form with at most ``keep`` of its nonzeros kept."""
    w = random_form(rng, b, q)
    support = [i for i, c in enumerate(w.coeffs) if c]
    kept = set(rng.permutation(support)[:keep].tolist())
    return b.form(q, [c if i in kept else 0 for i, c in enumerate(w.coeffs)])


def forms(rng, b, q):
    """Zero, sparse, dense, and a form sharing half its support with a
    sparse one, cancelling it there."""
    sparse = [sparse_form(rng, b, q, keep) for keep in (1, 3)]
    dense = random_form(rng, b, q)
    cancel = b.form(q, [-c if i % 2 else d for i, (c, d) in
                        enumerate(zip(dense.coeffs, sparse[1].coeffs))])
    return [b.zero(q)] + sparse + [dense, cancel]


def on(ref, w):
    """w's coefficients as a reference form, with no entries cached."""
    return InvariantForm(ref, w.degree, w.coeffs)


def operators(b):
    ops = [("d", b.d), ("star", b.star), ("codifferential", b.codifferential),
           ("green", b.green), ("harmonic_projection", b.harmonic_projection)]
    return ops + [("contraction %d" % j, lambda w, j=j: b.contraction(j, w))
                  for j in range(b.generator_spec.rank)]


@pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
def test_arithmetic_matches_the_dense_reference(pair):
    """+, -, negation, scale (by 0 too), ==, the zero test and the
    equivariant model's zero pruning agree with the element-wise maps."""
    b, _ = pair()
    rng = np.random.default_rng(14)
    for q in range(b.n + 1):
        ws = forms(rng, b, q)
        for w in ws:
            assert b.is_zero(w) == w.is_zero == dense_is_zero(w)
            assert EquivariantElement.from_form(w).is_zero == dense_is_zero(w)
            assert_entries(w)
            neg = -w
            assert neg.coeffs == dense_neg(w)
            assert_entries(neg)
            for c in (0, 1, Fraction(-3, 7), 5):
                scaled = w.scale(c)
                assert scaled.coeffs == dense_scale(w, c), c
                assert_entries(scaled)
                assert scaled.is_zero == dense_is_zero(scaled)
            for v in ws:
                total, diff = w + v, w - v
                assert total.coeffs == dense_add(w, v)
                assert diff.coeffs == dense_sub(w, v)
                assert_entries(total)
                assert_entries(diff)
                assert total.is_zero == dense_is_zero(total)
                assert diff.is_zero == dense_is_zero(diff)
                assert (w == v) == (w.coeffs == v.coeffs)
            assert (w - w).is_zero and (w + -w).is_zero


@pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
def test_operators_match_the_dense_reference(pair):
    """Every operator, Green's operator, harmonic projection and the inner
    product equal the full-scan engine's exactly."""
    b, ref = pair()
    rng = np.random.default_rng(41)
    for q in range(b.n + 1):
        ws = forms(rng, b, q)
        for w in ws:
            for (name, op), (_, op_ref) in zip(operators(b), operators(ref)):
                res, want = op(w), op_ref(on(ref, w))
                assert (res.degree, res.coeffs) == (want.degree, want.coeffs), \
                    (name, q)
                assert_entries(res, seeded=True)
            for v in ws:
                assert b.inner_product(w, v) == ref.inner_product(
                    on(ref, w), on(ref, v)), q
            assert b.inner_product(w, w) == ref.inner_product(
                on(ref, w), on(ref, w))


@pytest.mark.parametrize("N", [2, 3])
def test_tensor_matches_the_dense_reference(N):
    b = make_product_backend(make_sphere_backend(N, 1), make_sphere_backend(N, 1))
    ref = DenseProduct(DenseSphere(N, 1), DenseSphere(N, 1))
    rng = np.random.default_rng(7)
    for q1 in range(3):
        for q2 in range(3):
            for w1 in forms(rng, b.b1, q1):
                for w2 in forms(rng, b.b2, q2):
                    res = b.tensor(w1, w2)
                    want = ref.tensor(on(ref.b1, w1), on(ref.b2, w2))
                    assert res.coeffs == want.coeffs
                    assert_entries(res, seeded=True)


def test_operator_columns_are_stored_from_their_entries():
    """A column fill stores the entries its producer gave, with no rescan:
    the cached column is the very tuple of the column form's entries."""
    b = make_sphere_backend(4)
    seen = []
    column = b._column
    b._column = lambda op, q, k: seen.append(column(op, q, k)) or seen[-1]
    b.d(b.zero_form((1, 2, 3)))
    assert len(seen) == 3
    for k, res in enumerate(seen):
        assert b._columns["d", 0][k] == (1, res.entries)
        assert b._columns["d", 0][k][1] is res._entries
        assert_entries(res, seeded=True)


ZERO_OPS = []


def _recording(name):
    def op(self, other):
        if self == 0 or other == 0:
            ZERO_OPS.append(name)
        return getattr(Fraction, name)(self, other)
    return op


class Spy(Fraction):
    """A Fraction that records in ZERO_OPS every sum, difference, product
    or negation with a zero operand."""

    __add__, __radd__ = _recording("__add__"), _recording("__radd__")
    __sub__, __rsub__ = _recording("__sub__"), _recording("__rsub__")
    __mul__, __rmul__ = _recording("__mul__"), _recording("__rmul__")

    def __neg__(self):
        if self == 0:
            ZERO_OPS.append("__neg__")
        return Fraction.__neg__(self)


def test_form_arithmetic_does_nothing_with_a_zero_operand():
    """+, -, negation and scale touch only nonzero values: on forms whose
    every coefficient records its zero-operand arithmetic, nothing is
    recorded, while the element-wise reference records some."""
    del ZERO_OPS[:]
    b = make_sphere_backend(8)
    dim = b.dimension(0)
    u = InvariantForm(b, 0, tuple(Spy(int(i in (0, 3))) for i in range(dim)))
    v = InvariantForm(b, 0, tuple(Spy(2 * int(i in (3, 5))) for i in range(dim)))
    results = [u + v, u - v, v - u, -u, u.scale(3), u.scale(0), u + b.zero(0)]
    assert ZERO_OPS == []
    assert [r.coeffs[:6] for r in results] == [
        (1, 0, 0, 3, 0, 2), (1, 0, 0, -1, 0, -2), (-1, 0, 0, 1, 0, 2),
        (-1, 0, 0, -1, 0, 0), (3, 0, 0, 3, 0, 0), (0,) * 6, (1, 0, 0, 1, 0, 0)]
    dense_add(u, v)
    assert ZERO_OPS
