"""Exact circle-invariant de Rham complex of the round two-sphere.

Coordinates are (z, phi) with z in [-1, 1]; the round metric is
``(1 - z^2)^{-1} dz^2 + (1 - z^2) dphi^2`` and the volume form is
``dz ^ dphi`` (total area 4*pi).  The rotation field is ``d/dphi``.

Invariant forms reduce to one-variable polynomial data:

* degree 0: ``f(z)``
* degree 1: ``a(z) dz + b(z) (1 - z^2) dphi``
* degree 2: ``c(z) dz ^ dphi``

The structural ``(1 - z^2)`` factor in the dphi component keeps every
operator polynomial-to-polynomial and makes the forms smooth at the
poles.  The Laplacian acts on degree-0 polynomials as
``f -> -((1 - z^2) f')'`` with the Legendre polynomials as eigenbasis,
eigenvalue l(l+1); degrees 1 and 2 carry the image families under d, d*
and star, with the same eigenvalues.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence, Tuple

from .errors import TruncationError
from .forms import ExactBackend, GeneratorSpec, InvariantForm

Poly = Tuple[Fraction, ...]


# -- dense rational polynomial helpers (low degree first) -------------------

def _trim(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_scale(p: Sequence[Fraction], c) -> Poly:
    c = Fraction(c)
    return _trim([c * x for x in p])


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def poly_deriv(p: Sequence[Fraction]) -> Poly:
    return _trim([Fraction(i) * p[i] for i in range(1, len(p))])


_ONE_MINUS_Z2: Poly = (Fraction(1), Fraction(0), Fraction(-1))


def legendre(l: int) -> Poly:
    """Coefficients of the Legendre polynomial P_l (exact rationals).

    ``P_l = 2^-l sum_k (-1)^k C(l, k) C(2l - 2k, l) z^(l - 2k)``.
    """
    out = [Fraction(0)] * (l + 1)
    for k in range(l // 2 + 1):
        out[l - 2 * k] = Fraction((-1) ** k * comb(l, k) * comb(2 * l - 2 * k, l),
                                  2 ** l)
    return tuple(out)


class SphereBackend(ExactBackend):
    """Invariant forms on the round S^2 with exact rational coefficients.

    ``truncation`` bounds the z-degree of user inputs; internally the
    coefficient spaces are enlarged by ``4 * stages`` so that no operator
    in an extension run of up to ``stages`` stages can overflow.  Overflow
    raises :class:`TruncationError` rather than clipping.
    """

    n = 2

    def __init__(self, truncation: int, stages: int = 3):
        if truncation < 2:
            raise ValueError("truncation must be >= 2")
        if stages < 0:
            raise ValueError("stages must be >= 0")
        super().__init__()
        self.truncation = truncation
        self.capacity = truncation + 4 * stages
        self._spec = GeneratorSpec(degrees=(2,), labels=("rotation",))

    @property
    def tag(self) -> str:
        return "sphere:N=%d,stages=%d" % (
            self.truncation,
            (self.capacity - self.truncation) // 4,
        )

    @property
    def generator_spec(self) -> GeneratorSpec:
        return self._spec

    def dimension(self, q: int) -> int:
        m = self.capacity + 1
        if q == 0 or q == 2:
            return m
        if q == 1:
            return 2 * m
        return 0

    # -- coefficient <-> polynomial plumbing -------------------------------

    def _to_vec(self, p: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        m = self.capacity + 1
        if len(p) > m:
            raise TruncationError(
                "polynomial degree %d exceeds capacity %d"
                % (len(p) - 1, self.capacity)
            )
        return tuple(p) + (Fraction(0),) * (m - len(p))

    def _polys(self, w: InvariantForm):
        m = self.capacity + 1
        if w.degree == 1:
            return _trim(w.coeffs[:m]), _trim(w.coeffs[m:])
        return _trim(w.coeffs)

    def zero_form(self, f: Sequence) -> InvariantForm:
        """Degree-0 form f(z) from low-to-high polynomial coefficients."""
        return InvariantForm(self, 0, self._to_vec([Fraction(c) for c in f]))

    def one_form(self, a: Sequence, b: Sequence) -> InvariantForm:
        """Degree-1 form a(z) dz + b(z) (1-z^2) dphi."""
        return InvariantForm(
            self,
            1,
            self._to_vec([Fraction(c) for c in a])
            + self._to_vec([Fraction(c) for c in b]),
        )

    def two_form(self, c: Sequence) -> InvariantForm:
        """Degree-2 form c(z) dz ^ dphi."""
        return InvariantForm(self, 2, self._to_vec([Fraction(x) for x in c]))

    # -- operators ---------------------------------------------------------

    def d(self, w: InvariantForm) -> InvariantForm:
        if self.dimension(w.degree) == 0 or w.degree >= 2:
            return self.zero(w.degree + 1)
        if w.degree == 0:
            f = self._polys(w)
            return self.one_form(poly_deriv(f), ())
        a, b = self._polys(w)
        # d(b (1-z^2) dphi) = (b (1-z^2))' dz ^ dphi
        return self.two_form(poly_deriv(poly_mul(b, _ONE_MINUS_Z2)))

    def star(self, w: InvariantForm) -> InvariantForm:
        if self.dimension(w.degree) == 0:
            return self.zero(self.n - w.degree)
        if w.degree == 0:
            return self.two_form(self._polys(w))
        if w.degree == 2:
            return self.zero_form(self._polys(w))
        a, b = self._polys(w)
        return self.one_form(poly_scale(b, -1), a)

    def contraction(self, j: int, w: InvariantForm) -> InvariantForm:
        if j != 0:
            raise IndexError("sphere backend has a single generator")
        if self.dimension(w.degree) == 0 or w.degree == 0:
            return self.zero(w.degree - 1)
        if w.degree == 1:
            a, b = self._polys(w)
            return self.zero_form(poly_mul(b, _ONE_MINUS_Z2))
        c = self._polys(w)
        return self.one_form(poly_scale(c, -1), ())

    # -- spectral data -----------------------------------------------------

    def _pi_power(self) -> int:
        return 1

    def _eigen_entries(self, q: int):
        m = self.capacity + 1
        eig = []
        if q in (0, 2):
            for l in range(m):
                p = legendre(l)
                entries = [(i, c) for i, c in enumerate(p) if c]
                # <P_l, P_l> rational part: 2 * 2/(2l+1)
                eig.append((Fraction(l * (l + 1)), entries,
                            Fraction(4, 2 * l + 1)))
        else:
            # exact family d(P_l) = P_l' dz and the star-conjugate coexact
            # family P_l' (1-z^2) dphi, both with eigenvalue l(l+1)
            derivs = [poly_deriv(legendre(l)) for l in range(1, m + 1)]
            for offset in (0, m):
                for l, dp in enumerate(derivs, 1):
                    entries = [(offset + i, c) for i, c in enumerate(dp) if c]
                    lam = Fraction(l * (l + 1))
                    eig.append((lam, entries, lam * Fraction(4, 2 * l + 1)))
        return eig

    # -- named scenario ----------------------------------------------------

    def symplectic_scenario(self) -> Tuple[InvariantForm, InvariantForm]:
        """The rotation-invariant area form and its zero-average Hamiltonian.

        Returns ``(omega, mu)`` with ``omega = dz ^ dphi`` and ``mu = -z``,
        the unique zero-average solution of ``d mu = i_V omega``.
        """
        return self.two_form((1,)), self.zero_form((0, -1))


def make_sphere_backend(truncation: int, stages: int = 3) -> SphereBackend:
    """Build the exact round-sphere backend at the given z-degree truncation."""
    return SphereBackend(truncation, stages=stages)
