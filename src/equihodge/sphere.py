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
and star, with the same eigenvalues.  The backend gives each operator as
the closed-form image of one basis monomial, a column that the engine of
:class:`~equihodge.forms.ExactBackend` caches and applies.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence, Tuple

from .errors import TruncationError
from .forms import ExactBackend, GeneratorSpec, InvariantForm

Poly = Tuple[Fraction, ...]


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

    # -- operator columns ----------------------------------------------------

    def _column(self, op, q: int, k: int) -> InvariantForm:
        # e_k is z^j in degrees 0 and 2, and z^j dz (k < m) or
        # z^j (1-z^2) dphi (k = m + j) in degree 1; an image past the
        # capacity raises TruncationError in _to_vec
        m = self.capacity + 1
        j, dphi = k % m, q == 1 and k >= m
        z = lambda *terms: _poly(j, terms)
        if op == "d" and q == 0:
            return self.one_form(z((-1, j)), ())
        if op == "d" and q == 1:
            # d(z^j (1-z^2) dphi) = (j z^(j-1) - (j+2) z^(j+1)) dz ^ dphi
            return self.two_form(z((-1, j), (1, -j - 2)) if dphi else ())
        if op == "star" and q == 1:  # (a, b) -> (-b, a)
            return (self.one_form(z((0, -1)), ()) if dphi
                    else self.one_form((), z((0, 1))))
        if op == "star":
            return InvariantForm(self, 2 - q, self._to_vec(z((0, 1))))
        if op == ("contraction", 0) and q == 1:  # (a, b) -> b (1-z^2)
            return self.zero_form(z((0, 1), (2, -1)) if dphi else ())
        if op == ("contraction", 0) and q == 2:  # c -> (-c, 0)
            return self.one_form(z((0, -1)), ())
        if op in ("d", ("contraction", 0)):  # d of a 2-form, i_V of a function
            return self.zero(q + 1 if op == "d" else q - 1)
        return super()._column(op, q, k)

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
            polys = [legendre(l) for l in range(1, m + 1)]
            for offset in (0, m):
                for l, p in enumerate(polys, 1):
                    entries = [(offset + i - 1, i * c)
                               for i, c in enumerate(p) if i and c]
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


def _poly(j: int, terms) -> Poly:
    """Dense coefficients of ``sum c z^(j + e)`` over the ``(e, c)`` terms
    with c nonzero."""
    out = [Fraction(0)] * (j + max(e for e, _ in terms) + 1)
    for e, c in terms:
        if c:
            out[j + e] += c
    return tuple(out)


def make_sphere_backend(truncation: int, stages: int = 3) -> SphereBackend:
    """Build the exact round-sphere backend at the given z-degree truncation."""
    return SphereBackend(truncation, stages=stages)
