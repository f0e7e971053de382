"""Shared helpers: truncation-aware random forms on the exact backends,
and the ``hypothesis`` profile of every property test."""

from fractions import Fraction

from hypothesis import settings

from equihodge import ProductBackend, SphereBackend, TorusBackend

# Examples are drawn from a seed fixed by each test, and no example database
# is read or written, so a run's verdict depends neither on the clock nor
# on what an earlier run left in .hypothesis/.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def rand_fraction(rng):
    return Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))


def random_exact_form(rng, backend, q):
    """A random degree-q form that respects the backend's user truncation.

    Sphere coefficients stay at z-degree <= truncation (the internal
    capacity margin is reserved for operator growth); torus coefficients
    range over the whole mode basis; product forms are random sums of pure
    tensors of the factors.
    """
    if isinstance(backend, SphereBackend):
        deg = backend.truncation
        poly = lambda: tuple(rand_fraction(rng) for _ in range(deg + 1))
        if q == 0:
            return backend.zero_form(poly())
        if q == 1:
            return backend.one_form(poly(), poly())
        if q == 2:
            return backend.two_form(poly())
        return backend.zero(q)
    if isinstance(backend, TorusBackend):
        return backend.form(
            q, [rand_fraction(rng) for _ in range(backend.dimension(q))])
    if isinstance(backend, ProductBackend):
        out = backend.zero(q)
        for q1, q2, _, _, _ in backend.block_layout(q):
            out = out + backend.tensor(
                random_exact_form(rng, backend.b1, q1),
                random_exact_form(rng, backend.b2, q2),
            )
        return out
    raise TypeError("no random-form recipe for %r" % type(backend).__name__)
