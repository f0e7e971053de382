"""Unit tests for the tensor-product backend (rank-2 torus actions)."""

from fractions import Fraction

import numpy as np
import pytest

from equihodge import (
    BackendMismatch,
    InvariantForm,
    TruncationError,
    extend,
    make_product_backend,
    make_sphere_backend,
    make_torus_backend,
    verify_extension,
)
from bruteforce import PerRowProduct, _star_d_star


@pytest.fixture(scope="module")
def ss():
    """S^2 x S^2 with the rank-2 rotation torus."""
    b1 = make_sphere_backend(3, stages=2)
    b2 = make_sphere_backend(3, stages=2)
    return make_product_backend(b1, b2)


from conftest import rand_fraction, random_exact_form as random_form


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
    """The Koszul codifferential over the factors' codifferentials equals
    the signed star conjugate of d, exactly, in every degree."""
    p = make()
    rng = np.random.default_rng(16)
    for q in range(p.n + 1):
        for _ in range(3):
            w = random_form(rng, p, q)
            assert p.codifferential(w) == _star_d_star(p, w)


# -- the column-cached kernel against the per-row reference -----------------

PRODUCTS = {
    "S2xS2-N2": lambda: (make_sphere_backend(2, stages=1),
                         make_sphere_backend(2, stages=1)),
    "S2xS2-N3": lambda: (make_sphere_backend(3, stages=1),
                         make_sphere_backend(3, stages=1)),
    "S2xS2-N4-stages3": lambda: (make_sphere_backend(4, stages=3),
                                 make_sphere_backend(4, stages=3)),
    "sphere-x-circle": lambda: (make_sphere_backend(3, stages=2),
                                make_torus_backend(1, 2, (1,))),
}


def capacity_form(rng, p, q, nonzeros=None):
    """A random degree-q form over the whole coefficient space, the factors'
    capacity included, with about ``nonzeros`` nonzero entries (default:
    every entry)."""
    dim = p.dimension(q)
    share = 1.0 if nonzeros is None else nonzeros / dim
    return p.form(q, [rand_fraction(rng) if rng.random() < share else 0
                      for _ in range(dim)])


def outcome(op, *args):
    """The coefficients (or value) op returns, or the truncation it raises."""
    try:
        res = op(*args)
    except TruncationError:
        return TruncationError
    return res.coeffs if isinstance(res, InvariantForm) else res


def operator_pairs(p, ref):
    """(name, product operator, reference operator) on one form."""
    pairs = [(name, getattr(p, name), getattr(ref, name))
             for name in ("d", "codifferential", "star", "_to_eigen", "green",
                          "harmonic_projection")]
    pairs += [("contraction %d" % j, lambda w, j=j: p.contraction(j, w),
               lambda w, j=j: ref.contraction(j, w))
              for j in range(p.generator_spec.rank)]
    pairs.append(("_from_eigen", p._from_eigen, ref._from_eigen))
    return pairs


@pytest.mark.parametrize("factors", PRODUCTS.values(), ids=PRODUCTS.keys())
def test_column_kernel_matches_the_per_row_reference(factors):
    """Every operator equals the per-row kernel's exactly, or both raise
    TruncationError, on forms that reach the factors' capacity."""
    b1, b2 = factors()
    p, ref = make_product_backend(b1, b2), PerRowProduct(b1, b2)
    rng = np.random.default_rng(21)
    seen = set()
    for q in range(p.n + 1):
        forms = ([random_form(rng, p, q), capacity_form(rng, p, q, 80)]
                 + [capacity_form(rng, p, q, 12) for _ in range(6)])
        for w, u in zip(forms, forms[1:] + forms[:1]):
            w_ref, u_ref = (InvariantForm(ref, q, x.coeffs) for x in (w, u))
            for name, op, op_ref in operator_pairs(p, ref):
                got = outcome(op, w)
                assert got == outcome(op_ref, w_ref), (name, q)
                seen.add((name, got is TruncationError))
            assert p.inner_product(w, u) == ref.inner_product(w_ref, u_ref)
    # the forms exercise both the raising and the regular columns
    assert {("d", True), ("d", False), ("codifferential", True),
            ("contraction 0", True), ("contraction 0", False)} <= seen


def test_truncation_parity_with_the_per_row_reference():
    """d, d* and each contraction raise on a product form exactly when the
    per-row kernel does: on the unit vectors, on sums of overflowing unit
    vectors (which cannot cancel), and not on a dense form that avoids
    them; a raising column raises again at its next use."""
    b1, b2 = make_sphere_backend(2, stages=1), make_sphere_backend(2, stages=1)
    p, ref = make_product_backend(b1, b2), PerRowProduct(b1, b2)
    rng = np.random.default_rng(22)
    names = ("d", "codifferential", "contraction 0", "contraction 1")
    for q in range(p.n + 1):
        dim = p.dimension(q)
        for name, op, op_ref in operator_pairs(p, ref):
            if name not in names:
                continue
            overflow = []
            for k in range(dim):
                unit = [0] * dim
                unit[k] = 1
                raises = outcome(op, p.form(q, unit)) is TruncationError
                assert raises == (outcome(op_ref, ref.form(q, unit))
                                  is TruncationError), (name, q, k)
                if raises:
                    overflow.append(k)
            if name == "d" and q in (1, 2, 3):  # the sphere 1-forms' top b
                assert overflow
            dense = capacity_form(rng, p, q).coeffs
            clear = [0 if k in overflow else c for k, c in enumerate(dense)]
            assert outcome(op, p.form(q, clear)) == outcome(
                op_ref, ref.form(q, clear)) is not TruncationError
            if overflow:
                hits = [c if k in overflow else 0 for k, c in enumerate(dense)]
                hits[overflow[0]] = 1
                hits[overflow[-1]] = -1
                for coeffs in (hits, [a + b for a, b in zip(clear, hits)]):
                    assert outcome(op, p.form(q, coeffs)) is TruncationError
                    assert outcome(op, p.form(q, coeffs)) is TruncationError
                    assert outcome(op_ref, ref.form(q, coeffs)) is TruncationError


def test_warm_extend_makes_no_factor_calls():
    """A second identical extend on one product backend reads every column
    and eigenvalue from the caches: the cold run fills the product's own
    columns from its factors', and the warm run calls no factor operator
    and adds no column or eigenvalue to the product or to either factor."""
    b1, b2 = make_sphere_backend(4, stages=3), make_sphere_backend(4, stages=3)
    calls = []
    for b in (b1, b2):
        for name in ("d", "codifferential", "star", "contraction",
                     "inner_product", "green", "harmonic_projection",
                     "_to_eigen", "_from_eigen", "_eigen"):
            def record(*args, _name=name, _op=getattr(b, name)):
                calls.append(_name)
                return _op(*args)
            setattr(b, name, record)
    p = make_product_backend(b1, b2)
    omega = p.tensor(b1.two_form((1,)), b2.two_form((1,)))
    first = extend(omega)
    # the cold run reads the factors' columns, not their public operators;
    # the only factor calls are the spheres' own fills: d and the star for
    # the codifferential column (the star conjugate of d), and _eigen
    assert set(calls) == {"d", "star", "_eigen"}
    del calls[:]

    def sizes():
        return [{key: len(cols) for key, cols in b._columns.items()}
                for b in (b1, b2, p)]

    cold = sizes()
    assert all(cold)
    assert {op for op, _ in p._columns} == {
        "d", "codifferential", ("contraction", 0), ("contraction", 1),
        "coords", "image", "eigen"}
    second = extend(omega)
    assert calls == []
    assert sizes() == cold
    assert [t.terms for t in second.terms] == [t.terms for t in first.terms]
    assert second.final_residual_norm == first.final_residual_norm == 0.0


def _eigen_filled(b):
    return {key: set(cols) for key, cols in b._columns.items()
            if key[0] == "eigen"}


@pytest.mark.parametrize("op", ["green", "harmonic_projection"])
@pytest.mark.parametrize("form", ["omega", "mixed"])
def test_cold_product_reads_the_spectrum_at_the_entries(op, form):
    """On a cold S^2 x S^2, Green's operator and harmonic projection compute
    the eigenvalue and squared norm of exactly the eigen-coordinates where
    the input has an entry, and each factor those of exactly the rows and
    columns that these coordinates touch: a handful, not the degree."""
    b1, b2 = make_sphere_backend(4, stages=3), make_sphere_backend(4, stages=3)
    p = make_product_backend(b1, b2)
    if form == "omega":  # omega_1 ^ omega_2
        w = p.tensor(b1.two_form((1,)), b2.two_form((1,)))
    else:  # entries in the (1, 2) and (2, 1) blocks of degree 3
        w = (p.tensor(b1.one_form((1, 1), (0, 1)), b2.two_form((0, 0, 1)))
             + p.tensor(b1.two_form((0, 1)), b2.one_form((0, 0, 1), (1,))))
    coords = [k for k, _ in p._to_eigen(w).entries]
    assert _eigen_filled(p) == _eigen_filled(b1) == _eigen_filled(b2) == {}
    getattr(p, op)(w)
    assert _eigen_filled(p) == {("eigen", w.degree): set(coords)}
    rows, cols = {}, {}
    for k in coords:
        for q1, q2, offset, d1, d2 in p.block_layout(w.degree):
            if offset <= k < offset + d1 * d2:
                i, j = divmod(k - offset, d2)
                rows.setdefault(("eigen", q1), set()).add(i)
                cols.setdefault(("eigen", q2), set()).add(j)
    assert _eigen_filled(b1) == rows and _eigen_filled(b2) == cols
    assert len(coords) < p.dimension(w.degree) // 10


def test_factors_must_be_exact_backends():
    """A formal wrapper reports is_exact but has no spectral engine, so it
    is refused as a product factor instead of failing at first use."""
    from equihodge import FormalGenerator, with_formal_generators

    sphere = make_sphere_backend(2, stages=1)
    formal = with_formal_generators(
        sphere, [FormalGenerator(4, "t4", lambda w: sphere.zero(w.degree - 3))])
    assert formal.is_exact
    for b1, b2 in ((formal, sphere), (sphere, formal)):
        with pytest.raises(BackendMismatch):
            make_product_backend(b1, b2)
