"""The cached-column operator engine of the exact backends.

Every sphere and torus operator is a sparse mat-vec over columns that the
backend gives in closed form, one unit vector at a time.  These tests
compare each column with the formula references of ``bruteforce``
(whole-polynomial arithmetic on the sphere, the mode formulas on the
torus), pin where a sphere column overflows its capacity, and check that
repeated work on one backend fills no new column.  The eigen-transforms
are columns too, compared with the references' projections onto their
listed eigenbases, and the spectrum, read one coordinate at a time, with
the listed eigenvalues and squared norms.
"""

from fractions import Fraction

import numpy as np
import pytest

from equihodge import (ExactBackend, SphereBackend, TruncationError,
                       make_sphere_backend, make_torus_backend)
from bruteforce import operator_outcome as outcome, reference, reference_outcome
from conftest import rand_fraction, random_exact_form

OPS = ("d", "star", "codifferential", ("contraction", 0))


def operator(b, name):
    if name == ("contraction", 0):
        return lambda w: b.contraction(0, w)
    return getattr(b, name)


def unit(b, q, k):
    coeffs = [0] * b.dimension(q)
    coeffs[k] = 1
    return b.form(q, coeffs)


def overflowing_columns(b, name, q):
    """Unit vectors of degree q on which the operator raises TruncationError."""
    return [k for k in range(b.dimension(q))
            if outcome(operator(b, name), unit(b, q, k)) is TruncationError]


def flagged_columns(ref, name, q):
    """Unit vectors of degree q whose reference image passes the capacity."""
    return [k for k, col in enumerate(ref.matrix(name, q)) if col is None]


def assert_same_matrices(b, ref):
    for q in range(b.n + 1):
        for name in OPS:
            op = operator(b, name)
            for k in range(b.dimension(q)):
                e = unit(b, q, k)
                assert outcome(op, e) == reference_outcome(
                    ref, name, q, e.coeffs), (name, q, k)


@pytest.mark.parametrize("stages", [0, 1, 3])
@pytest.mark.parametrize("N", [2, 8, 16])
def test_sphere_columns_match_the_polynomial_operators(N, stages):
    """Every sphere operator equals the whole-polynomial reference on every
    unit vector of every degree, or both raise TruncationError."""
    b = make_sphere_backend(N, stages=stages)
    assert_same_matrices(b, reference(b))


@pytest.mark.parametrize("n,K,v", [
    (1, 2, (1,)), (2, 2, (1, 0)), (2, 2, (2, 0)), (3, 2, (1, 1, 0)),
    (3, 2, (0, 0, 2)),
])
def test_torus_columns_match_the_loop_operators(n, K, v):
    b = make_torus_backend(n, K, v)
    assert_same_matrices(b, reference(b))


@pytest.mark.parametrize("N,stages", [(2, 0), (8, 1), (16, 3)])
def test_sphere_overflow_columns(N, stages):
    """Exactly the unit vectors whose image has z-degree capacity + 1 or
    more overflow: d and d* of the top dphi and dz components, and the
    contraction of the top two dphi components; the polynomial reference
    flags exactly these columns."""
    b = make_sphere_backend(N, stages=stages)
    ref = reference(b)
    cap = b.capacity
    m = cap + 1
    expected = {("d", 1): [m + cap], ("codifferential", 1): [cap],
                (("contraction", 0), 1): [m + cap - 1, m + cap]}
    for q in range(3):
        for name in OPS:
            want = expected.get((name, q), [])
            assert overflowing_columns(b, name, q) == want, (name, q)
            assert flagged_columns(ref, name, q) == want, (name, q)


@pytest.mark.parametrize("N,stages", [(2, 0), (8, 1)])
def test_sums_of_overflowing_columns_raise(N, stages):
    """A form raises exactly when one of its overflowing columns has a
    nonzero coefficient: the top coefficient of the image is a nonzero
    multiple of that coefficient and cannot cancel.  A raising column is
    not cached, so it raises again."""
    b = make_sphere_backend(N, stages=stages)
    ref = reference(b)
    rng = np.random.default_rng(31)
    for q in range(3):
        for name in OPS:
            op = operator(b, name)
            over = flagged_columns(ref, name, q)
            dense = [rand_fraction(rng) or Fraction(1) for _ in range(b.dimension(q))]
            clear = [0 if k in over else c for k, c in enumerate(dense)]
            got = outcome(op, b.form(q, clear))
            assert got is not TruncationError
            assert got == reference_outcome(ref, name, q, b.form(q, clear).coeffs)
            if not over:
                continue
            hits = [c if k in over else 0 for k, c in enumerate(dense)]
            for coeffs in (hits, dense):
                for _ in range(2):
                    assert outcome(op, b.form(q, coeffs)) is TruncationError
                assert reference_outcome(ref, name, q, coeffs) is TruncationError


def test_warm_hodge_decompose_fills_no_new_column():
    """A second identical Hodge split on one sphere reads every operator
    column from the cache and returns the same parts."""
    b = make_sphere_backend(8, stages=3)
    w = random_exact_form(np.random.default_rng(32), b, 1)
    first = b.hodge_decompose(w)
    assert b._columns  # the cold split filled columns
    sizes = {key: len(cols) for key, cols in b._columns.items()}
    fills = []
    column = b._column
    b._column = lambda *args: fills.append(args) or column(*args)
    second = b.hodge_decompose(w)
    assert fills == []
    assert {key: len(cols) for key, cols in b._columns.items()} == sizes
    for a, c in zip((first.harmonic, first.exact, first.coexact),
                    (second.harmonic, second.exact, second.coexact)):
        assert a == c


def test_a_backend_without_its_own_column_raises():
    """The engine's default column is only the codifferential's, so a
    backend that gives no d column raises when d is applied instead of
    recursing through the operator it is filling."""

    class NoDColumn(SphereBackend):
        def _column(self, op, q, k):
            if op == "d":
                return ExactBackend._column(self, op, q, k)
            return super()._column(op, q, k)

    b = NoDColumn(2, stages=1)
    w = b.zero_form((0, 1))
    with pytest.raises(NotImplementedError, match="NoDColumn gives no 'd'"):
        b.d(w)
    with pytest.raises(NotImplementedError):  # d* = +-*d* needs the d column
        b.codifferential(b.two_form((1,)))
    assert b.star(w) == b.two_form((0, 1))  # its own columns still serve


def assert_same_eigen_transforms(b):
    """The "coords" and "image" matrices equal the reference's exactly, the
    eigenvalue and squared norm of every coordinate equal the listed ones,
    and coords after image is the identity."""
    ref = reference(b)
    for q in range(b.n + 1):
        spectrum = ref.spectrum(q)
        assert len(spectrum) == b.dimension(q)
        for k in range(b.dimension(q)):
            assert b._eigen(q, k) == spectrum[k], ("eigen", q, k)
            e = unit(b, q, k)
            image = b._from_eigen(e)
            assert image.coeffs == ref.matrix("image", q)[k], ("image", q, k)
            assert b._to_eigen(e).coeffs == ref.matrix("coords", q)[k], (
                "coords", q, k)
            assert b._to_eigen(image).coeffs == e.coeffs, ("coords of image", q, k)


@pytest.mark.parametrize("stages", [0, 1, 3])
@pytest.mark.parametrize("N", [2, 8, 16, 32])
def test_sphere_eigen_columns_match_the_back_substitution(N, stages):
    assert_same_eigen_transforms(make_sphere_backend(N, stages=stages))


@pytest.mark.parametrize("n,K,v", [
    (1, 2, (1,)), (2, 2, (1, 0)), (2, 2, (2, 0)), (3, 2, (1, 1, 0)),
    (3, 2, (0, 0, 2)),
])
def test_torus_eigen_columns_match_the_back_substitution(n, K, v):
    assert_same_eigen_transforms(make_torus_backend(n, K, v))


def test_harmonic_projection_fills_only_the_columns_it_reads():
    """The harmonic part of the area form reads one coordinate column, one
    eigenvalue and one image column; no other eigenvector or eigenvalue is
    built."""
    b = SphereBackend(8)
    b.harmonic_projection(b.two_form((1,)))
    assert {key: set(cols) for key, cols in b._columns.items()} == {
        ("coords", 2): {0}, ("eigen", 2): {0}, ("image", 2): {0}}
