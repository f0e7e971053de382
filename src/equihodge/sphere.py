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
:class:`~equihodge.forms.ExactBackend` caches and applies.  The
eigen-transforms are such columns too: the image of one eigen-coordinate
is a Legendre polynomial or its derivative, and the coordinates of one
monomial are its closed-form expansion in that basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
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
    generator_spec = GeneratorSpec(degrees=(2,), labels=("rotation",))
    _pi_power = 1

    def __init__(self, truncation: int, stages: int = 3):
        if truncation < 2:
            raise ValueError("truncation must be >= 2")
        if stages < 0:
            raise ValueError("stages must be >= 0")
        super().__init__()
        self.truncation = truncation
        self.capacity = truncation + 4 * stages
        self.tag = "sphere:N=%d,stages=%d" % (truncation, stages)

    def dimension(self, q: int) -> int:
        m = self.capacity + 1
        if q == 0 or q == 2:
            return m
        if q == 1:
            return 2 * m
        return 0

    # -- user forms ----------------------------------------------------------

    def zero_form(self, f: Sequence) -> InvariantForm:
        """Degree-0 form f(z) from low-to-high polynomial coefficients."""
        return self._poly_form(0, 0, dict(enumerate(f)))

    def one_form(self, a: Sequence, b: Sequence) -> InvariantForm:
        """Degree-1 form a(z) dz + b(z) (1-z^2) dphi."""
        return (self._poly_form(1, 0, dict(enumerate(a)))
                + self._poly_form(1, 1, dict(enumerate(b))))

    def two_form(self, c: Sequence) -> InvariantForm:
        """Degree-2 form c(z) dz ^ dphi."""
        return self._poly_form(2, 0, dict(enumerate(c)))

    # -- operator columns ----------------------------------------------------

    def _column(self, op, q: int, k: int) -> InvariantForm:
        # e_k is z^j in degrees 0 and 2, and z^j dz (k < m) or
        # z^j (1-z^2) dphi (k = m + j) in degree 1; z gives the
        # {power: coefficient} polynomial sum c z^(j + e) over its (e, c)
        m = self.capacity + 1
        j, dphi = k % m, q == 1 and k >= m
        z = lambda *terms: {j + e: c for e, c in terms if c}
        col = self._poly_form
        if op == "d" and q == 0:
            return col(1, 0, z((-1, j)))
        if op == "d" and q == 1:
            # d(z^j (1-z^2) dphi) = (j z^(j-1) - (j+2) z^(j+1)) dz ^ dphi
            return col(2, 0, z((-1, j), (1, -j - 2)) if dphi else {})
        if op == "star" and q == 1:  # (a, b) -> (-b, a)
            return col(1, 0, z((0, -1))) if dphi else col(1, 1, z((0, 1)))
        if op == "star":
            return col(2 - q, 0, z((0, 1)))
        if op == ("contraction", 0) and q == 1:  # (a, b) -> b (1-z^2)
            return col(0, 0, z((0, 1), (2, -1)) if dphi else {})
        if op == ("contraction", 0) and q == 2:  # c -> (-c, 0)
            return col(1, 0, z((0, -1)))
        if op in ("d", ("contraction", 0)):  # d of a 2-form, i_V of a function
            return self.zero(q + 1 if op == "d" else q - 1)
        # eigen-index k is P_j in degrees 0 and 2, and P_(j+1)' dz or
        # P_(j+1)' (1-z^2) dphi in degree 1, each with eigenvalue l(l+1)
        s = int(q == 1)
        if op == "image":
            return col(q, dphi, {i - s: i ** s * c
                                 for i, c in enumerate(legendre(j + s))
                                 if c and i >= s})
        if op == "coords":
            # z^j = sum a(j, l) P_l; in degree 1 z^j = (z^(j+1))' / (j+1),
            # with a(j+1, l) / (j+1) on P_l'
            return col(q, dphi, {l - s: a / (j + 1) ** s
                                 for l, a in _legendre_coords(j + s) if l >= s})
        return super()._column(op, q, k)

    def _poly_form(self, p: int, half: int, poly) -> InvariantForm:
        """The degree-p form with the {power: coefficient} polynomial poly
        in its dz (half 0) or dphi (half 1) part of degree 1, or as its
        whole coefficient otherwise; raises TruncationError when poly has
        a power, even with coefficient 0, past the capacity."""
        top = max(poly, default=0)
        if top > self.capacity:
            raise TruncationError("polynomial degree %d exceeds capacity %d"
                                  % (top, self.capacity))
        offset = half * (self.capacity + 1)
        return InvariantForm.from_values(
            self, p, {offset + e: Fraction(c) for e, c in poly.items()})

    # -- spectral data -----------------------------------------------------

    def _eigen(self, q: int, k: int):
        # <P_l, P_l> has rational part 2 * 2/(2l+1); d P_l = P_l' dz and
        # its star P_l' (1-z^2) dphi have l(l+1) times that
        s = int(q == 1)
        l = k % (self.capacity + 1) + s
        lam = Fraction(l * (l + 1))
        return lam, (lam if s else 1) * Fraction(4, 2 * l + 1)

    # -- named scenario ----------------------------------------------------

    def symplectic_scenario(self) -> Tuple[InvariantForm, InvariantForm]:
        """The rotation-invariant area form and its zero-average Hamiltonian.

        Returns ``(omega, mu)`` with ``omega = dz ^ dphi`` and ``mu = -z``,
        the unique zero-average solution of ``d mu = i_V omega``.
        """
        return self.two_form((1,)), self.zero_form((0, -1))


def _legendre_coords(j: int):
    """The ``(l, a)`` with ``z^j = sum a P_l``, for l = j, j - 2, ... >= 0:
    ``a = (2l+1) j! 2^l ((j+l)/2)! / (((j-l)/2)! (j+l+1)!)``."""
    return [(l, Fraction((2 * l + 1) * factorial(j) * 2 ** l
                         * factorial((j + l) // 2),
                         factorial((j - l) // 2) * factorial(j + l + 1)))
            for l in range(j, -1, -2)]


#: alias of the class: the name the README examples and perfbench build it by
make_sphere_backend = SphereBackend
