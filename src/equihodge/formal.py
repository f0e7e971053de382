"""Formal higher-degree generators via user-supplied contraction operators.

Torus generators all have polynomial degree 2 and their contractions are
interior products with action vector fields.  Group models beyond the
torus case also contain generators of higher even degree whose
contraction operators come from primitive multivector fields; this
library never constructs those fields itself, but it accepts the
resulting operators formally: the user supplies, per extra generator, a
positive even degree and a callable mapping degree-q forms to
degree-(q - deg + 1) forms.  The wrapper enforces exactly that degree
bookkeeping and otherwise delegates to the wrapped backend, so the
equivariant machinery (boundary operator, extension loop, reports) runs
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from .errors import BackendMismatch, PreconditionViolated
from .forms import Backend, GeneratorSpec, InvariantForm


@dataclass(frozen=True)
class FormalGenerator:
    """One extra generator: its even degree, a label, and the bound
    contraction operator of degree ``-(degree - 1)``."""

    degree: int
    label: str
    operator: Callable[[InvariantForm], InvariantForm]

    def __post_init__(self):
        if self.degree < 2 or self.degree % 2 != 0:
            raise ValueError("generator degree must be even and >= 2")


class FormalGeneratorBackend(Backend):
    """A backend extended by formal generators with declared contractions.

    All geometric operators delegate to the wrapped backend; only the
    generator list grows.  Forms are re-tagged so that elements built on
    the wrapper never mix with elements of the plain backend.
    """

    def __init__(self, base: Backend, extra: Sequence[FormalGenerator]):
        extra = tuple(extra)
        if not extra:
            raise ValueError("at least one formal generator is required")
        self.base = base
        self.extra = extra
        self.n = base.n
        self.is_exact = base.is_exact
        s = base.generator_spec
        self._spec = GeneratorSpec(
            degrees=s.degrees + tuple(g.degree for g in extra),
            labels=s.labels + tuple(g.label for g in extra),
        )

    # -- plumbing ----------------------------------------------------------

    def _unwrap(self, w: InvariantForm) -> InvariantForm:
        if w.backend is not self:
            raise BackendMismatch("form does not belong to this wrapper")
        return self._retag(w, self.base)

    def _wrap(self, w: InvariantForm) -> InvariantForm:
        return self._retag(w, self)

    def _retag(self, w: InvariantForm, backend: Backend) -> InvariantForm:
        """w as a form of ``backend``, sharing its stored data: an exact
        form's entries, a mesh form's array."""
        if self.is_exact:
            return InvariantForm.from_entries(backend, w.degree, w.entries)
        return InvariantForm(backend, w.degree, w.coeffs)

    @property
    def tag(self) -> str:
        names = ",".join("%s^%d" % (g.label, g.degree) for g in self.extra)
        return "formal:[%s|%s]" % (self.base.tag, names)

    @property
    def generator_spec(self) -> GeneratorSpec:
        return self._spec

    def dimension(self, q: int) -> int:
        return self.base.dimension(q)

    def d(self, w: InvariantForm) -> InvariantForm:
        return self._wrap(self.base.d(self._unwrap(w)))

    def star(self, w: InvariantForm) -> InvariantForm:
        return self._wrap(self.base.star(self._unwrap(w)))

    def codifferential(self, w: InvariantForm) -> InvariantForm:
        return self._wrap(self.base.codifferential(self._unwrap(w)))

    def contraction(self, j: int, w: InvariantForm) -> InvariantForm:
        r0 = self.base.generator_spec.rank
        if not 0 <= j < self._spec.rank:
            raise IndexError("generator index out of range")
        inner = self._unwrap(w)
        if j < r0:
            return self._wrap(self.base.contraction(j, inner))
        gen = self.extra[j - r0]
        expected = w.degree - (gen.degree - 1)
        if self.base.dimension(inner.degree) == 0:
            return self.zero(expected)
        res = gen.operator(inner)
        if not isinstance(res, InvariantForm) or res.backend is not self.base:
            raise PreconditionViolated(
                j, "formal contraction %r must return a form of the wrapped "
                   "backend" % gen.label,
            )
        if res.degree != expected:
            raise PreconditionViolated(
                j, "formal contraction %r returned degree %d, expected %d "
                   "(= %d - (%d - 1))"
                   % (gen.label, res.degree, expected, w.degree, gen.degree),
            )
        return self._wrap(res)

    def inner_product(self, a: InvariantForm, b: InvariantForm):
        a._check_compatible(b)
        return self.base.inner_product(self._unwrap(a), self._unwrap(b))

    def harmonic_basis(self, q: int) -> List[InvariantForm]:
        return [self._wrap(h) for h in self.base.harmonic_basis(q)]

    def green(self, w: InvariantForm) -> InvariantForm:
        return self._wrap(self.base.green(self._unwrap(w)))

    def harmonic_projection(self, w: InvariantForm) -> InvariantForm:
        return self._wrap(self.base.harmonic_projection(self._unwrap(w)))

    def is_zero(self, w: InvariantForm, relative_to=None) -> bool:
        return self.base.is_zero(self._unwrap(w), relative_to)


#: alias of the class: the name the README examples and perfbench build it by
with_formal_generators = FormalGeneratorBackend
