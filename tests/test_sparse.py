"""Exact arithmetic over cached nonzero entries equals the dense reference.

Every exact form caches its nonzero ``(index, value)`` entries, and sums,
negation, scaling, the zero test, the operators, Green's operator, harmonic
projection and the inner product read them instead of the whole
coefficient tuple.  These tests compare the arithmetic exactly with the
element-wise maps of ``bruteforce`` (``dense_add``, ``all(c == 0 ...)``,
...), and the operators with its dense formula references, on sparse and
dense forms of every degree, and check that every form they return caches
exactly the nonzeros of its coefficients.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from equihodge import (EquivariantElement, FormalGenerator, InvariantForm,
                       extend, make_product_backend, make_sphere_backend,
                       make_torus_backend, with_formal_generators)
from bruteforce import (dense_add, dense_is_zero, dense_neg, dense_scale,
                        dense_sub, reference)
from conftest import random_exact_form

TORI = [(1, 2, (1,)), (2, 2, (1, 0)), (2, 2, (2, 0)), (3, 2, (1, 1, 0)),
        (3, 2, (0, 0, 2))]


def _formal(base):
    """base with a degree-4 generator whose contraction takes a 3-form to
    its star and every other degree to zero."""
    def contract(w):
        return base.star(w) if w.degree == 3 else base.zero(w.degree - 3)
    return with_formal_generators(base, [FormalGenerator(4, "u", contract)])


PAIRS = {"sphere-%d" % N: (lambda N=N: make_sphere_backend(N)) for N in (2, 8, 32)}
PAIRS.update({"torus-%d-%d-%s" % (n, K, "".join(map(str, v))):
              (lambda n=n, K=K, v=v: make_torus_backend(n, K, v))
              for n, K, v in TORI})
PAIRS.update({"s2xs2-%d" % N: (lambda N=N: make_product_backend(
    make_sphere_backend(N, 1), make_sphere_backend(N, 1))) for N in (2, 3)})
PAIRS["formal"] = lambda: _formal(make_torus_backend(3, 2, (1, 1, 0)))


def scan(w):
    return tuple((i, c) for i, c in enumerate(w.coeffs) if c)


def assert_entries(w, seeded=False):
    """w's cached entries are the nonzeros of its coefficients; a form an
    operator returns has them from its producer."""
    assert isinstance(w.coeffs, tuple)
    assert all(type(c) is Fraction for c in w.coeffs)
    if seeded:
        assert "entries" in vars(w)
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


def operators(b):
    """(name, operator, reference operator on (degree, coefficients)); the
    formal generator's contraction is the reference star on 3-forms."""
    ref = reference(getattr(b, "base", b))
    names = ("d", "star", "codifferential", "green", "harmonic_projection")
    ops = [(name, getattr(b, name), lambda q, c, name=name: ref.apply(name, q, c))
           for name in names]
    ops += [("contraction %d" % j, lambda w, j=j: b.contraction(j, w),
             lambda q, c, j=j: ref.apply(("contraction", j), q, c))
            for j in range(ref.rank)]
    if b is not getattr(b, "base", b):
        ops.append(("contraction %d" % ref.rank,
                    lambda w: b.contraction(ref.rank, w),
                    lambda q, c: ref.apply("star", q, c) if q == 3 else (q - 3, ())))
    return ops


@pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
def test_arithmetic_matches_the_dense_reference(pair):
    """+, -, negation, scale (by 0 too), ==, the zero test and the
    equivariant model's zero pruning agree with the element-wise maps."""
    b = pair()
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
    product equal the dense formula reference's exactly."""
    b = pair()
    ref = reference(getattr(b, "base", b))
    ops = operators(b)
    rng = np.random.default_rng(41)
    for q in range(b.n + 1):
        ws = forms(rng, b, q)
        for w in ws:
            for name, op, op_ref in ops:
                res = op(w)
                assert (res.degree, res.coeffs) == op_ref(q, w.coeffs), (name, q)
                assert_entries(res, seeded=True)
            for v in ws:
                assert b.inner_product(w, v) == ref.inner_product(
                    q, w.coeffs, v.coeffs), q
            assert b.inner_product(w, w) == ref.inner_product(q, w.coeffs, w.coeffs)


@pytest.mark.parametrize("N", [2, 3])
def test_tensor_matches_the_dense_reference(N):
    b = make_product_backend(make_sphere_backend(N, 1), make_sphere_backend(N, 1))
    ref = reference(b)
    rng = np.random.default_rng(7)
    for q1 in range(3):
        for q2 in range(3):
            for w1 in forms(rng, b.b1, q1):
                for w2 in forms(rng, b.b2, q2):
                    res = b.tensor(w1, w2)
                    assert (res.degree, res.coeffs) == ref.tensor(
                        q1, w1.coeffs, q2, w2.coeffs)
                    assert_entries(res, seeded=True)


def test_operator_columns_are_stored_from_their_entries():
    """A column fill stores the column form's entries as integer
    numerators over one denominator, the lcm of the entries'
    denominators, and they give back exactly those entries."""
    b = make_sphere_backend(4)
    seen = []
    column = b._column
    b._column = lambda op, q, k: seen.append(column(op, q, k)) or seen[-1]
    b.d(b.zero_form((1, 2, 3)))
    b._to_eigen(b.zero_form((1, 2, 3, 4, 5)))
    assert len(seen) == 8
    keys = [("d", 0, k) for k in range(3)] + [("coords", 0, k) for k in range(5)]
    for (op, q, k), res in zip(keys, seen):
        degree, den, nums = b._columns[op, q][k]
        assert degree == res.degree
        assert den == math.lcm(*[c.denominator for _, c in res.entries])
        assert all(type(n) is int for _, n in nums)
        assert tuple((i, Fraction(n, den)) for i, n in nums) == res.entries
        assert_entries(res, seeded=True)
    assert [b._columns["coords", 0][k][1] for k in range(5)] == [1, 1, 3, 5, 35]


def test_warm_matvecs_do_no_fraction_arithmetic(monkeypatch):
    """Once its columns are cached, every mat-vec on a sphere at N = 32 and
    on S^2 x S^2 at N = 3 sums integer numerators: it multiplies or adds
    no Fraction, and gives the same forms as on its cold run."""
    rng = np.random.default_rng(17)
    cases = []
    for b in (make_sphere_backend(32), make_product_backend(
            make_sphere_backend(3, 1), make_sphere_backend(3, 1))):
        ops = [b.d, b.star, b.codifferential, b._to_eigen, b._from_eigen]
        ops += [lambda w, b=b, j=j: b.contraction(j, w)
                for j in range(b.generator_spec.rank)]
        cases += [(op, random_form(rng, b, q)) for q in range(b.n + 1)
                  for op in ops]
    cold = [op(w) for op, w in cases]
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, real=real, name=name:
                            calls.append(name) or real(a, b))
    warm = [op(w) for op, w in cases]
    assert calls == []
    assert [(r.degree, r.entries) for r in warm] == [
        (r.degree, r.entries) for r in cold]


def test_sphere_at_n_64_matches_the_dense_reference_exactly():
    """At N = 64 the eigen-transform columns and the results carry
    denominators of well over a hundred bits; the extension, the degree-1
    Hodge split and Green's operator in every degree still equal the dense
    formula reference's exactly.  The reference extension is the recursion
    a_(s+1) = G d* i_V a_s, with no harmonic part in any i_V a_s."""
    b = make_sphere_backend(64)
    ref = reference(b)
    c = [Fraction(1, j + 1) for j in range(32)]
    got = extend(b.two_form(c))
    want, a = [], (2, b.two_form(c).coeffs)
    while a[0] > 0:
        boundary = ref.apply(("contraction", 0), *a)
        assert not any(ref.apply("harmonic_projection", *boundary)[1])
        a = ref.apply("green", *ref.apply("codifferential", *boundary))
        want.append([((len(want) + 1,), a)])
    assert got.status == "extended"
    assert [[(m, (f.degree, f.coeffs)) for m, f in t.terms.items()]
            for t in got.terms[1:]] == want
    rng = np.random.default_rng(64)
    w = random_form(rng, b, 1)
    split = b.hodge_decompose(w)
    exact = ref.apply("d", *ref.apply("green", *ref.apply("codifferential", 1, w.coeffs)))
    coexact = ref.apply("codifferential", *ref.apply("green", *ref.apply("d", 1, w.coeffs)))
    assert (1, split.harmonic.coeffs) == ref.apply("harmonic_projection", 1, w.coeffs)
    assert (1, split.exact.coeffs) == exact
    assert (1, split.coexact.coeffs) == coexact
    bits = 0
    for q in range(3):
        w = random_form(rng, b, q)
        g = b.green(w)
        assert (q, g.coeffs) == ref.apply("green", q, w.coeffs), q
        assert_entries(g, seeded=True)
        bits = max(bits, max(c.denominator for c in g.coeffs).bit_length())
    assert bits > 128


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


LAZY = {
    "sphere": lambda: make_sphere_backend(4),
    "torus": lambda: make_torus_backend(2, 2, (1, 0)),
    "s2xs2": lambda: make_product_backend(make_sphere_backend(2, 1),
                                          make_sphere_backend(2, 1)),
    "formal": lambda: _formal(make_torus_backend(3, 2, (1, 1, 0))),
}


def sparse_input(rng, b, q):
    """A random degree-q form of b stored as its entries only."""
    w = random_exact_form(rng, getattr(b, "base", b), q)
    return InvariantForm.from_entries(b, q, w.entries)


@pytest.mark.parametrize("name", sorted(LAZY))
def test_exact_forms_build_their_dense_tuple_on_first_read(name):
    """Every form an exact operator or a form operation returns stores its
    entries only; its first coeffs read builds and caches the dense tuple
    of those entries, from which the form reads back equal."""
    b = LAZY[name]()
    rng = np.random.default_rng(29)
    outputs = []
    for q in range(b.n + 1):
        w, v = sparse_input(rng, b, q), sparse_input(rng, b, q)
        outputs += [b.d(w), b.codifferential(w), b.green(w),
                    b.harmonic_projection(w), w + v, w - v, w - w,
                    w.scale(Fraction(-3, 2)), w.scale(0), -w, b.zero(q)]
        outputs += [b.contraction(j, w) for j in range(b.generator_spec.rank)]
    if name == "s2xs2":
        outputs += [b.tensor(sparse_input(rng, b.b1, q1),
                             sparse_input(rng, b.b2, q2))
                    for q1 in range(3) for q2 in range(3)]
    for w in outputs:
        assert "coeffs" not in vars(w), w
        dense = [Fraction(0)] * b.dimension(w.degree)
        for i, c in w.entries:
            dense[i] = c
        assert w.coeffs == tuple(dense)
        assert vars(w)["coeffs"] is w.coeffs
        assert b.form(w.degree, w.coeffs) == w


def test_a_mesh_form_keeps_the_array_it_is_given():
    from equihodge import DecBackend, build_symmetric_sphere

    b = DecBackend(build_symmetric_sphere(4, 0))
    for q in range(3):
        a = np.arange(b.dimension(q), dtype=float)
        assert InvariantForm(b, q, a).coeffs is a


def test_an_exact_extension_with_a_nonzero_residual_is_refused():
    """The degree-4 contraction of ``_formal`` breaks the Cartan relation
    d i_u + i_u d = 0, so d_G does not square to zero: extend(d beta), beta
    the degree-2 basis form 1, once came back "extended" with final residual
    11.14 on this exact backend."""
    from equihodge import ResidualNotZero

    b = PAIRS["formal"]()
    beta = b.form(2, [int(i == 1) for i in range(b.dimension(2))])
    with pytest.raises(ResidualNotZero, match="final residual 11.1"):
        extend(b.d(beta))
