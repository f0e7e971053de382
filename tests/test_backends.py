"""The attributes every backend family sets at construction, and backends
that reference counting alone frees."""

import gc
import weakref

import pytest

from equihodge import (DecBackend, ExactBackend, FormalGenerator, GeneratorSpec,
                       build_symmetric_sphere, extend, make_product_backend,
                       make_sphere_backend, make_torus_backend, with_formal_generators)


def formal(base):
    return with_formal_generators(base, [FormalGenerator(
        4, "p4", lambda w: base.zero(w.degree - 3))])


#: a maker of each family the suite builds, its tag, and its power of pi
#: (None on a backend that is not an ExactBackend)
FAMILIES = {
    "sphere": (lambda: make_sphere_backend(8), "sphere:N=8,stages=3", 1),
    "torus-1": (lambda: make_torus_backend(1, 2, (1,)), "torus:n=1,K=2,v=1", 1),
    "torus-2": (lambda: make_torus_backend(2, 2, (1, 0)), "torus:n=2,K=2,v=1:0", 2),
    "torus-3": (lambda: make_torus_backend(3, 1, (1, 1, 0)),
                "torus:n=3,K=1,v=1:1:0", 3),
    "s2xs2": (lambda: make_product_backend(make_sphere_backend(4),
                                           make_sphere_backend(4)),
              "product:[sphere:N=4,stages=3|sphere:N=4,stages=3]", 2),
    "s2xs1": (lambda: make_product_backend(make_sphere_backend(2, 2),
                                           make_torus_backend(1, 2, (1,))),
              "product:[sphere:N=2,stages=2|torus:n=1,K=2,v=1]", 2),
    "formal": (lambda: formal(make_sphere_backend(4)),
               "formal:[sphere:N=4,stages=3|p4^4]", None),
    "dec": (lambda: DecBackend(build_symmetric_sphere(4, 1, zigzag=0.1)),
            "dec:nsym=4,level=1,zigzag=0.1", None),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_every_backend_sets_its_constants(name):
    """The contract declares n, is_exact, tag and generator_spec (and an
    exact backend's _pi_power) as attributes, so nothing checks at
    construction that a family sets them: this test does."""
    make, tag, pi_power = FAMILIES[name]
    b = make()
    assert b.tag == tag and type(b.tag) is str
    assert isinstance(b.generator_spec, GeneratorSpec)
    assert type(b.n) is int and type(b.is_exact) is bool
    if isinstance(b, ExactBackend):
        assert type(b._pi_power) is int and b._pi_power == pi_power
    else:
        assert pi_power is None


def test_backends_are_freed_by_reference_counting():
    """With the cyclic collector off, dropping a backend after one extension
    on it frees it, and a DEC backend's mesh with it: no backend or cache
    it fills holds a reference cycle through the backend."""
    gc.collect()
    gc.disable()
    try:
        refs = []
        for make, _, _ in FAMILIES.values():
            b = make()
            extend(b.harmonic_basis(b.n)[0])
            refs.append(weakref.ref(b))
            if isinstance(b, DecBackend):
                refs.append(weakref.ref(b.mesh))
            del b
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
