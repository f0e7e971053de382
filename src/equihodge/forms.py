"""Abstract de Rham backend contract and the generic Hodge engine.

A backend packages a finite-dimensional model of the invariant-forms
complex of a closed manifold with a group action: graded coefficient
bases, the exterior derivative, Hodge star, inner product, contraction
operators for the action generators, and the harmonic structure.

On top of that contract this module builds, once and for all:

* on the rational backends, ``d``, the star, the codifferential, the
  contractions and the transforms to and from the coordinates of an exact
  Laplacian eigenbasis as sparse mat-vecs over lazily cached columns,
  which each backend gives one unit vector at a time (a sphere or torus
  in closed form, with the codifferential's column by default the signed
  star conjugate of ``d``; a product from its factors' columns by the
  Koszul rule),
* the Laplacian ``d d* + d* d``,
* Green's operator, harmonic projection, the inner product and the
  harmonic basis of the rational backends, all in those eigen-coordinates
  with each coordinate's eigenvalue read from the same cache (the mesh
  backend supplies its own, with an iterative Green solve),
* the three-way Hodge decomposition, with its Green solves one degree
  below and above the form.

Exact backends use :class:`fractions.Fraction` coefficients throughout,
so "zero" means identically zero, never merely small.  An exact form is
immutable and stores its nonzero entries, and every exact step above (the
sums, the zero test, each mat-vec and each eigen-coordinate step) reads
them, so its work is proportional to the nonzeros, not to the dimension.
A cached column is integers over one denominator, and a mat-vec normalises
each output entry once.  The dense coefficient tuple is a view, built the
first time someone reads it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Tuple

from .errors import BackendMismatch
from .scalars import PiScalar

#: the one zero of the exact coefficient tuples
_ZERO = Fraction(0)


@dataclass(frozen=True)
class GeneratorSpec:
    """Polynomial generators of the acting group's classifying ring.

    Each generator t_j has positive even degree and is bound to a backend
    contraction operator of degree ``-deg(t_j) + 1``.  For a torus every
    degree is 2 and the contractions are interior products with the action
    vector fields.
    """

    degrees: Tuple[int, ...]
    labels: Tuple[str, ...]

    def __post_init__(self):
        if len(self.degrees) < 1:
            raise ValueError("at least one generator is required")
        if len(self.degrees) != len(self.labels):
            raise ValueError("degrees and labels must have equal length")
        for deg in self.degrees:
            if deg < 2 or deg % 2 != 0:
                raise ValueError("generator degrees must be even and >= 2")

    @property
    def rank(self) -> int:
        return len(self.degrees)


class InvariantForm:
    """An invariant differential form in a backend coefficient basis.

    Immutable.  Forms of degree outside ``[0, n]`` are permitted as empty
    (zero) placeholders so operator compositions never need special casing
    at the top and bottom degrees.

    An exact form stores :attr:`entries`, its nonzero ``(index, value)``
    pairs in increasing index order, ``Fraction`` values.  Sums, zero tests
    and the exact operators read them, so their work is proportional to
    the nonzeros.  :attr:`coeffs`, the dense tuple of every coefficient, is
    built from them and cached the first time someone reads it.  A form
    made from a dense tuple (:meth:`Backend.form`) stores that tuple
    instead, and finds its entries by one scan on first use.  A mesh form
    stores its numpy array as :attr:`coeffs`.
    """

    def __init__(self, backend, degree: int, coeffs, entries=None):
        self.backend = backend
        self.degree = degree
        if entries is not None:
            self.entries = entries
        if coeffs is not None:
            self.coeffs = coeffs

    @classmethod
    def from_entries(cls, backend, degree: int, entries) -> "InvariantForm":
        """The exact form with the given nonzero ``(index, value)`` entries,
        a tuple in increasing index order."""
        return cls(backend, degree, None, entries)

    @classmethod
    def from_values(cls, backend, degree: int, values) -> "InvariantForm":
        """The exact form with the values of an ``index -> Fraction``
        mapping, in any order; zero values are dropped."""
        return cls.from_entries(backend, degree, tuple(
            (i, c) for i, c in sorted(values.items()) if c))

    @cached_property
    def entries(self) -> Tuple[Tuple[int, Fraction], ...]:
        """The nonzero ``(index, value)`` pairs, in increasing index order."""
        return tuple((i, c) for i, c in enumerate(self.coeffs) if c)

    @cached_property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The dense coefficient tuple of an exact form, built from its
        entries on first read."""
        dense = [_ZERO] * self.backend.dimension(self.degree)
        for i, c in self.entries:
            dense[i] = c
        return tuple(dense)

    def _check_compatible(self, other: "InvariantForm"):
        if self.backend is not other.backend:
            raise BackendMismatch("forms belong to different backends")
        if self.degree != other.degree:
            raise BackendMismatch(
                "degree mismatch: %d vs %d" % (self.degree, other.degree)
            )

    def _combine(self, other: "InvariantForm", sign: int) -> "InvariantForm":
        """self + sign * other; exact values are summed only where both
        forms have an entry."""
        self._check_compatible(other)
        if not self.backend.is_exact:
            return InvariantForm(self.backend, self.degree,
                                 self.coeffs + other.coeffs if sign > 0
                                 else self.coeffs - other.coeffs)
        if not other.entries:
            return self
        if not self.entries:
            return other if sign > 0 else -other
        values = dict(self.entries)
        for i, c in other.entries:
            if i in values:
                values[i] = values[i] + c if sign > 0 else values[i] - c
            else:
                values[i] = c if sign > 0 else -c
        return InvariantForm.from_values(self.backend, self.degree, values)

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        return self._combine(other, 1)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self._combine(other, -1)

    def __neg__(self) -> "InvariantForm":
        if not self.backend.is_exact:
            return InvariantForm(self.backend, self.degree, -self.coeffs)
        return InvariantForm.from_entries(self.backend, self.degree, tuple(
            (i, -c) for i, c in self.entries))

    def scale(self, c) -> "InvariantForm":
        if not self.backend.is_exact:
            return InvariantForm(self.backend, self.degree, float(c) * self.coeffs)
        c = Fraction(c)
        return InvariantForm.from_entries(self.backend, self.degree, tuple(
            (i, c * a) for i, a in self.entries) if c else ())

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        if self.backend is not other.backend or self.degree != other.degree:
            return False
        if self.backend.is_exact:
            return self.entries == other.entries
        import numpy as np

        return bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        raise TypeError("InvariantForm is not hashable")

    @property
    def is_zero(self) -> bool:
        return self.backend.is_zero(self)

    def norm(self) -> float:
        return self.backend.norm(self)

    def __repr__(self):
        return "InvariantForm(degree=%d, backend=%s)" % (self.degree, self.backend.tag)


@dataclass(frozen=True)
class HodgeSplit:
    """Orthogonal decomposition of a form into harmonic + exact + coexact."""

    harmonic: InvariantForm
    exact: InvariantForm
    coexact: InvariantForm

    def total(self) -> InvariantForm:
        return self.harmonic + self.exact + self.coexact


class Backend(ABC):
    """The operator contract every model manifold implements.

    Every operation is a pure function of its inputs.  Exact backends fill
    caches lazily: the eigenbasis and the operator columns of each degree.
    Filling is idempotent, so backends stay safe to share between
    concurrent tasks.
    """

    #: manifold dimension
    n: int
    #: True when coefficients are exact rationals
    is_exact: bool

    @property
    @abstractmethod
    def tag(self) -> str:
        """Stable textual identifier, also used in serialized files."""

    @property
    @abstractmethod
    def generator_spec(self) -> GeneratorSpec:
        """Generators of the acting group bound to contraction operators."""

    @abstractmethod
    def dimension(self, q: int) -> int:
        """Dimension of the degree-q coefficient space (0 outside [0, n])."""

    @abstractmethod
    def d(self, w: InvariantForm) -> InvariantForm:
        """Exterior derivative."""

    @abstractmethod
    def star(self, w: InvariantForm) -> InvariantForm:
        """Hodge star for the backend's metric and orientation."""

    @abstractmethod
    def codifferential(self, w: InvariantForm) -> InvariantForm:
        """Adjoint of d for the backend inner product."""

    @abstractmethod
    def contraction(self, j: int, w: InvariantForm) -> InvariantForm:
        """Interior product bound to generator j."""

    @abstractmethod
    def inner_product(self, a: InvariantForm, b: InvariantForm):
        """Inner product; a :class:`PiScalar` on exact backends, float on DEC."""

    @abstractmethod
    def harmonic_basis(self, q: int) -> List[InvariantForm]:
        """Explicit basis of the harmonic forms in degree q."""

    @abstractmethod
    def green(self, w: InvariantForm) -> InvariantForm:
        """Green's operator: inverts the Laplacian off the harmonic space."""

    @abstractmethod
    def harmonic_projection(self, w: InvariantForm) -> InvariantForm:
        """Orthogonal projection onto the harmonic forms."""

    # -- derived operators -------------------------------------------------

    def is_zero(self, w: InvariantForm, relative_to=None) -> bool:
        """Identically zero; given the run's input (a form or element) as
        ``relative_to``, the float backend compares norms instead."""
        return not w.entries

    def zero(self, q: int) -> InvariantForm:
        if self.is_exact:
            return InvariantForm.from_entries(self, q, ())
        import numpy as np

        return InvariantForm(self, q, np.zeros(self.dimension(q)))

    def form(self, q: int, coeffs) -> InvariantForm:
        """Build a form with validation of the coefficient count."""
        dim = self.dimension(q)
        if self.is_exact:
            coeffs = tuple(Fraction(c) for c in coeffs)
        else:
            import numpy as np

            coeffs = np.asarray(coeffs, dtype=float)
        if len(coeffs) != dim:
            raise BackendMismatch(
                "degree-%d form needs %d coefficients, got %d"
                % (q, dim, len(coeffs))
            )
        return InvariantForm(self, q, coeffs)

    def laplacian(self, w: InvariantForm) -> InvariantForm:
        return self.d(self.codifferential(w)) + self.codifferential(self.d(w))

    def hodge_decompose(self, w: InvariantForm) -> HodgeSplit:
        """Split w into harmonic, exact and coexact parts.

        The exact part d d* G w is computed as d G(d* w) and the coexact
        part d* d G w as d* G(d w), since Green's operator commutes with d
        and d*: the solves run one degree below and one above w.  When d w
        is identically zero the coexact part is zero and the exact part is
        w - H(w), and symmetrically when d* w is, so a form of degree 0 or
        n needs no solve.  The harmonic part is what remains.
        """
        down, up = self.codifferential(w), self.d(w)
        if self.is_zero(up):
            exact, coexact = w - self.harmonic_projection(w), self.zero(w.degree)
        elif self.is_zero(down):
            exact, coexact = self.zero(w.degree), w - self.harmonic_projection(w)
        else:
            exact = self.d(self.green(down))
            coexact = self.codifferential(self.green(up))
        harmonic = w - exact - coexact
        return HodgeSplit(harmonic=harmonic, exact=exact, coexact=coexact)

    def norm(self, w: InvariantForm) -> float:
        if self.dimension(w.degree) == 0:
            return 0.0
        return math.sqrt(max(0.0, float(self.inner_product(w, w))))


class ExactBackend(Backend):
    """Backend with exact rational coefficients and a spectral Hodge engine.

    Every degree has an orthogonal eigenbasis of the Laplacian with exact
    rational vectors, eigenvalues and squared norms.  The engine reaches it
    through two linear maps per degree, ``"coords"`` (the coordinates of a
    form in the eigenbasis, :meth:`_to_eigen`) and ``"image"`` (the form
    with given coordinates, :meth:`_from_eigen`), and through
    :meth:`_eigen` (the eigenvalue and squared norm of one coordinate).  In
    those coordinates Green's operator divides by the nonzero eigenvalues,
    harmonic projection keeps the coordinates of eigenvalue exactly zero,
    and the inner product is ``sum n_k a_k b_k``.

    ``d``, the star, the codifferential, the contractions and both
    eigen-transforms are each one sparse mat-vec, summed in integers with
    each output entry normalised once.  Their columns are cached per
    (operator, degree) as integer numerators over one denominator, filled
    on first use from :meth:`_column`, a unit vector's closed-form image
    on a sphere or torus; a product composes its factors' integer columns
    (:meth:`_int_column`).  The spectrum is cached with them, per
    coordinate read.  The same steps serve every exact backend.
    """

    is_exact = True

    def __init__(self):
        self._columns: Dict[tuple, Dict[int, tuple]] = {}

    # -- subclass obligations ---------------------------------------------

    @abstractmethod
    def _pi_power(self) -> int:
        """Power of pi carried by every inner product of this backend."""

    @abstractmethod
    def _eigen(self, q: int, k: int):
        """The eigenvalue and squared norm (without its power of pi) of the
        degree-q eigen-coordinate k."""

    def _column(self, op, q: int, k: int) -> InvariantForm:
        """The image under ``op`` of the degree-q unit vector e_k.

        ``op`` is ``"d"``, ``"star"``, ``"codifferential"``,
        ``("contraction", j)``, or ``"coords"`` / ``"image"``: the
        eigen-coordinates of e_k / the form whose coordinates are e_k, held
        as forms.  A sphere or torus gives its columns in closed form (a
        product overrides :meth:`_int_column`); this default gives only
        the codifferential, as the signed star conjugate of d.
        """
        if op != "codifferential":
            raise NotImplementedError("%s gives no %r column"
                                      % (type(self).__name__, op))
        # d* = (-1)^(n(q+1)+1) * d *  on an oriented Riemannian n-manifold
        res = self.star(self.d(self.star(
            InvariantForm.from_entries(self, q, ((k, Fraction(1)),)))))
        return -res if (self.n * (q + 1) + 1) % 2 else res

    # -- cached operator columns --------------------------------------------

    def _int_column(self, op, q: int, k: int):
        """Column k of ``op`` on degree q in integers: its output degree,
        ``den``, the lcm of the denominators of :meth:`_column`'s entries,
        and its nonzero ``(index, numerator)`` pairs over ``den``."""
        res = self._column(op, q, k)
        den = math.lcm(*[c.denominator for _, c in res.entries])
        return res.degree, den, tuple([
            (i, c.numerator * (den // c.denominator)) for i, c in res.entries])

    def _col(self, op, q: int, k: int):
        """Column k of ``op`` on degree q, ``(degree, den, nums)`` as
        :meth:`_int_column` gives it; the key ``"eigen"`` holds the pair
        ``(eigenvalue, squared norm)`` of :meth:`_eigen` instead.  A fill
        that raises (a truncation overflow) is not cached, so it raises
        again at its next use."""
        cols = self._columns.setdefault((op, q), {})
        if k not in cols:
            cols[k] = (self._eigen(q, k) if op == "eigen"
                       else self._int_column(op, q, k))
        return cols[k]

    def _matvec(self, op, w: InvariantForm, out_q: int) -> InvariantForm:
        """``op`` applied to w, the sum of its columns over w's entries: an
        integer sum over one common denominator ``lcd``, with each nonzero
        output entry normalised once, as ``Fraction(total, lcd)``."""
        q, cols = w.degree, self._columns.get((op, w.degree), {})
        terms = []
        for k, c in w.entries:  # c times its column is n * nums / d
            _, den, nums = cols[k] if k in cols else self._col(op, q, k)
            terms.append((c.numerator, c.denominator * den, nums))
        lcd = math.lcm(*[d for _, d, _ in terms])
        out = {}
        for n, d, nums in terms:
            s = n * (lcd // d)
            for i, m in nums:
                out[i] = out[i] + s * m if i in out else s * m
        return InvariantForm.from_entries(self, out_q, tuple([
            (i, Fraction(t, lcd)) for i, t in sorted(out.items()) if t]))

    def d(self, w: InvariantForm) -> InvariantForm:
        return self._matvec("d", w, w.degree + 1)

    def star(self, w: InvariantForm) -> InvariantForm:
        return self._matvec("star", w, self.n - w.degree)

    def codifferential(self, w: InvariantForm) -> InvariantForm:
        return self._matvec("codifferential", w, w.degree - 1)

    def contraction(self, j: int, w: InvariantForm) -> InvariantForm:
        spec = self.generator_spec
        if not 0 <= j < spec.rank:
            raise IndexError("generator index out of range")
        return self._matvec(("contraction", j), w,
                            w.degree - spec.degrees[j] + 1)

    # -- spectral hooks ----------------------------------------------------

    def _to_eigen(self, w: InvariantForm) -> InvariantForm:
        """The coordinates of w in the degree's eigenbasis, held as a form."""
        return self._matvec("coords", w, w.degree)

    def _from_eigen(self, c: InvariantForm) -> InvariantForm:
        """The form whose eigen-coordinates are those held in c."""
        return self._matvec("image", c, c.degree)

    def _eigen_at(self, q: int, entries):
        """The degree-q ``"eigen"`` cache, filled at the coordinates of
        entries; a warm read is one dict lookup per entry."""
        eig = self._columns.get(("eigen", q))
        if eig is None:
            eig = self._columns["eigen", q] = {}
        for k, _ in entries:
            if k not in eig:
                self._col("eigen", q, k)
        return eig

    # -- engine ------------------------------------------------------------

    def inner_product(self, a: InvariantForm, b: InvariantForm) -> PiScalar:
        a._check_compatible(b)
        x = self._to_eigen(a).entries
        eig = self._eigen_at(a.degree, x)
        if b is a:
            val = sum((eig[k][1] * s * s for k, s in x), _ZERO)
        else:
            y = dict(self._to_eigen(b).entries)
            val = sum((eig[k][1] * s * y[k] for k, s in x if k in y), _ZERO)
        return PiScalar(val, self._pi_power())

    def green(self, w: InvariantForm) -> InvariantForm:
        c = self._to_eigen(w).entries
        eig = self._eigen_at(w.degree, c)
        return self._from_eigen(InvariantForm.from_entries(self, w.degree, tuple(
            (k, a / eig[k][0]) for k, a in c if eig[k][0])))

    def harmonic_projection(self, w: InvariantForm) -> InvariantForm:
        c = self._to_eigen(w).entries
        eig = self._eigen_at(w.degree, c)
        return self._from_eigen(InvariantForm.from_entries(self, w.degree, tuple(
            (k, a) for k, a in c if not eig[k][0])))

    def harmonic_basis(self, q: int) -> List[InvariantForm]:
        return [self._from_eigen(
                    InvariantForm.from_entries(self, q, ((k, Fraction(1)),)))
                for k in range(self.dimension(q)) if not self._col("eigen", q, k)[0]]
