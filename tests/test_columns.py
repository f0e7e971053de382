"""The cached-column operator engine of the exact backends.

Every sphere and torus operator is a sparse mat-vec over columns that the
backend gives in closed form, one unit vector at a time.  These tests
compare each column with the direct operators kept in ``bruteforce``
(whole-polynomial arithmetic on the sphere, a loop over the basis on the
torus), pin where a sphere column overflows its capacity, and check that
repeated work on one backend fills no new column.
"""

from fractions import Fraction

import numpy as np
import pytest

from equihodge import TruncationError, make_sphere_backend, make_torus_backend
from bruteforce import LoopTorus, PolySphere, operator_outcome as outcome
from conftest import rand_fraction, random_exact_form

OPS = ("d", "star", "codifferential", "contraction")


def operator(b, name):
    if name == "contraction":
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


def assert_same_matrices(b, ref):
    for q in range(b.n + 1):
        for name in OPS:
            op, op_ref = operator(b, name), operator(ref, name)
            for k in range(b.dimension(q)):
                assert outcome(op, unit(b, q, k)) == outcome(
                    op_ref, unit(ref, q, k)), (name, q, k)


@pytest.mark.parametrize("stages", [0, 1, 3])
@pytest.mark.parametrize("N", [2, 8, 16])
def test_sphere_columns_match_the_polynomial_operators(N, stages):
    """Every sphere operator equals the polynomial one on every unit vector
    of every degree, or both raise TruncationError."""
    assert_same_matrices(make_sphere_backend(N, stages=stages),
                         PolySphere(N, stages=stages))


@pytest.mark.parametrize("n,K,v", [
    (1, 2, (1,)), (2, 2, (1, 0)), (2, 2, (2, 0)), (3, 2, (1, 1, 0)),
    (3, 2, (0, 0, 2)),
])
def test_torus_columns_match_the_loop_operators(n, K, v):
    assert_same_matrices(make_torus_backend(n, K, v), LoopTorus(n, K, v))


@pytest.mark.parametrize("N,stages", [(2, 0), (8, 1), (16, 3)])
def test_sphere_overflow_columns(N, stages):
    """Exactly the unit vectors whose image has z-degree capacity + 1 or
    more overflow: d and d* of the top dphi and dz components, and the
    contraction of the top two dphi components; never on the polynomial
    reference's other unit vectors."""
    b, ref = make_sphere_backend(N, stages=stages), PolySphere(N, stages=stages)
    cap = b.capacity
    m = cap + 1
    expected = {("d", 1): [m + cap], ("codifferential", 1): [cap],
                ("contraction", 1): [m + cap - 1, m + cap]}
    for q in range(3):
        for name in OPS:
            want = expected.get((name, q), [])
            assert overflowing_columns(b, name, q) == want, (name, q)
            assert overflowing_columns(ref, name, q) == want, (name, q)


@pytest.mark.parametrize("N,stages", [(2, 0), (8, 1)])
def test_sums_of_overflowing_columns_raise(N, stages):
    """A form raises exactly when one of its overflowing columns has a
    nonzero coefficient: the top coefficient of the image is a nonzero
    multiple of that coefficient and cannot cancel.  A raising column is
    not cached, so it raises again."""
    b, ref = make_sphere_backend(N, stages=stages), PolySphere(N, stages=stages)
    rng = np.random.default_rng(31)
    for q in range(3):
        for name in OPS:
            op, op_ref = operator(b, name), operator(ref, name)
            over = overflowing_columns(ref, name, q)
            dense = [rand_fraction(rng) or Fraction(1) for _ in range(b.dimension(q))]
            clear = [0 if k in over else c for k, c in enumerate(dense)]
            got = outcome(op, b.form(q, clear))
            assert got is not TruncationError
            assert got == outcome(op_ref, ref.form(q, clear))
            if not over:
                continue
            hits = [c if k in over else 0 for k, c in enumerate(dense)]
            for coeffs in (hits, dense):
                for _ in range(2):
                    assert outcome(op, b.form(q, coeffs)) is TruncationError
                assert outcome(op_ref, ref.form(q, coeffs)) is TruncationError


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
