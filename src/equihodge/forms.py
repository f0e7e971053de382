"""Abstract de Rham backend contract and the generic Hodge engine.

A backend packages a finite-dimensional model of the invariant-forms
complex of a closed manifold with a group action: graded coefficient
bases, the exterior derivative, Hodge star, inner product, contraction
operators for the action generators, and the harmonic structure.

On top of that contract this module builds, once and for all:

* on the rational backends, ``d``, the star, the codifferential and the
  contractions as sparse mat-vecs over lazily cached columns, the
  codifferential's column being the signed star conjugate of ``d`` on a
  unit vector (a product backend overrides the operators with the Koszul
  rule over its factors' columns),
* the Laplacian ``d d* + d* d``,
* Green's operator, harmonic projection, the inner product and the
  harmonic basis of the rational backends, all in the coordinates of an
  exact Laplacian eigenbasis (the mesh backend supplies its own, with an
  iterative Green solve),
* the three-way Hodge decomposition, with its Green solves one degree
  below and above the form.

Exact backends use :class:`fractions.Fraction` coefficients throughout,
so "zero" means identically zero, never merely small.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import BackendMismatch
from .scalars import PiScalar


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

    Immutable.  Coefficients are a tuple of ``Fraction`` on exact backends
    and a numpy array on the mesh backend.  Forms of degree outside
    ``[0, n]`` are permitted as empty (zero) placeholders so operator
    compositions never need special casing at the top and bottom degrees.
    """

    __slots__ = ("backend", "degree", "coeffs")

    def __init__(self, backend, degree: int, coeffs):
        self.backend = backend
        self.degree = degree
        self.coeffs = coeffs

    def _check_compatible(self, other: "InvariantForm"):
        if self.backend is not other.backend:
            raise BackendMismatch("forms belong to different backends")
        if self.degree != other.degree:
            raise BackendMismatch(
                "degree mismatch: %d vs %d" % (self.degree, other.degree)
            )

    def _combine(self, other: "InvariantForm", op) -> "InvariantForm":
        """The form whose coefficients are ``op`` of self's and other's."""
        self._check_compatible(other)
        if isinstance(self.coeffs, tuple):
            coeffs = tuple(map(op, self.coeffs, other.coeffs))
        else:
            coeffs = op(self.coeffs, other.coeffs)
        return InvariantForm(self.backend, self.degree, coeffs)

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        return self._combine(other, operator.add)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "InvariantForm":
        if isinstance(self.coeffs, tuple):
            coeffs = tuple(-a for a in self.coeffs)
        else:
            coeffs = -self.coeffs
        return InvariantForm(self.backend, self.degree, coeffs)

    def scale(self, c) -> "InvariantForm":
        if isinstance(self.coeffs, tuple):
            c = Fraction(c)
            coeffs = tuple(c * a for a in self.coeffs)
        else:
            coeffs = float(c) * self.coeffs
        return InvariantForm(self.backend, self.degree, coeffs)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, InvariantForm):
            return NotImplemented
        if self.backend is not other.backend or self.degree != other.degree:
            return False
        if isinstance(self.coeffs, tuple):
            return self.coeffs == other.coeffs
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
        return all(c == 0 for c in w.coeffs)

    def zero(self, q: int) -> InvariantForm:
        dim = self.dimension(q)
        if self.is_exact:
            return InvariantForm(self, q, (Fraction(0),) * dim)
        import numpy as np

        return InvariantForm(self, q, np.zeros(dim))

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
    through three per-degree hooks: :meth:`_to_eigen` (the coordinates of a
    form in the eigenbasis), :meth:`_from_eigen` (the form with given
    coordinates) and :meth:`_spectrum` (eigenvalues and squared norms).  In
    those coordinates Green's operator divides by the nonzero eigenvalues,
    harmonic projection keeps the coordinates of eigenvalue exactly zero,
    and the inner product is ``sum n_k a_k b_k``.  The default hooks solve
    over the triangular sparse eigenbasis a subclass lists in
    :meth:`_eigen_entries`; a product overrides them with factor transforms.

    ``d``, the star, the codifferential and the contractions are each one
    sparse rational mat-vec.  Their columns are cached per (operator,
    degree) and filled on first use by :meth:`_column`, the image of one
    unit vector, which a sphere or torus gives in closed form.  A product
    reads its factors' columns through :meth:`_col`.
    """

    is_exact = True

    def __init__(self):
        self._eig_cache: Dict[int, tuple] = {}
        self._columns: Dict[tuple, Dict[int, tuple]] = {}

    # -- subclass obligations ---------------------------------------------

    @abstractmethod
    def _pi_power(self) -> int:
        """Power of pi carried by every inner product of this backend."""

    def _eigen_entries(self, q: int) -> List[Tuple[Fraction, list, Fraction]]:
        """Orthogonal Laplacian eigenbasis of degree q, for the default hooks.

        One ``(eigenvalue, entries, squared norm)`` per vector, ``entries``
        a sparse list of ``(index, Fraction)`` and the squared norm without
        its power of pi.  The vectors' largest indices must be distinct, so
        that the basis is triangular.
        """
        raise NotImplementedError

    def _column(self, op, q: int, k: int) -> InvariantForm:
        """The image under ``op`` of the degree-q unit vector e_k.

        ``op`` is ``"d"``, ``"star"``, ``"codifferential"``,
        ``("contraction", j)``, or ``"coords"`` / ``"image"``: the
        eigen-coordinates of e_k / the form whose coordinates are e_k, held
        as forms.  This default applies the public operator, the
        codifferential as the signed star conjugate of d; a subclass gives
        its own operators' columns in closed form.
        """
        unit = [Fraction(0)] * self.dimension(q)
        unit[k] = Fraction(1)
        e = InvariantForm(self, q, tuple(unit))
        if op == "coords":
            return InvariantForm(self, q, self._to_eigen(e))
        if op == "image":
            return self._from_eigen(q, unit)
        if op == "codifferential":
            # d* = (-1)^(n(q+1)+1) * d *  on an oriented Riemannian n-manifold
            res = self.star(self.d(self.star(e)))
            return -res if (self.n * (q + 1) + 1) % 2 else res
        if isinstance(op, tuple):
            return self.contraction(op[1], e)
        return getattr(self, op)(e)

    # -- cached operator columns --------------------------------------------

    def _col(self, op, q: int, k: int):
        """Column k of ``op`` on degree q: its output degree and nonzero
        ``(index, value)`` entries.  A column that raises (a truncation
        overflow) is not cached, so it raises again at its next use."""
        cols = self._columns.setdefault((op, q), {})
        if k not in cols:
            res = self._column(op, q, k)
            cols[k] = (res.degree,
                       [(i, v) for i, v in enumerate(res.coeffs) if v])
        return cols[k]

    def _matvec(self, op, w: InvariantForm, out_q: int) -> InvariantForm:
        """``op`` applied to w, the sum of its columns over w's entries."""
        out = [Fraction(0)] * self.dimension(out_q)
        for k, c in enumerate(w.coeffs):
            if c:
                for i, v in self._col(op, w.degree, k)[1]:
                    out[i] += c * v
        return InvariantForm(self, out_q, tuple(out))

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

    def _eigen(self, q: int):
        """Cached ``(vectors, back-substitution steps, spectrum)`` of degree q."""
        if q not in self._eig_cache:
            dim = self.dimension(q)
            eig = self._eigen_entries(q) if dim else []
            if len(eig) != dim:
                raise AssertionError(
                    "eigenbasis does not span degree %d (%d vs %d)"
                    % (q, len(eig), dim)
                )
            lams, vectors, norms = zip(*eig) if eig else ((), (), ())
            pivots = [max(vec) for vec in vectors]  # (largest index, entry)
            if len({lead for lead, _ in pivots}) != dim:
                raise AssertionError(
                    "eigenbasis of degree %d has repeated leading indices" % q)
            steps = sorted(((lead, k, pivot, vectors[k])
                            for k, (lead, pivot) in enumerate(pivots)),
                           reverse=True)
            self._eig_cache[q] = (vectors, steps, (lams, norms))
        return self._eig_cache[q]

    def _to_eigen(self, w: InvariantForm) -> Tuple[Fraction, ...]:
        """Coordinates of w in the degree's eigenbasis, by back-substitution."""
        _, steps, _ = self._eigen(w.degree)
        r = list(w.coeffs)
        out = [Fraction(0)] * len(r)
        for lead, k, pivot, vec in steps:
            if r[lead]:
                a = out[k] = r[lead] / pivot
                for i, v in vec:
                    r[i] -= a * v
        return tuple(out)

    def _from_eigen(self, q: int, c: Sequence[Fraction]) -> InvariantForm:
        """The degree-q form whose eigen-coordinates are c."""
        vectors, _, _ = self._eigen(q)
        out = [Fraction(0)] * self.dimension(q)
        for ck, entries in zip(c, vectors):
            if ck:
                for i, v in entries:
                    out[i] += ck * v
        return InvariantForm(self, q, tuple(out))

    def _spectrum(self, q: int):
        """Eigenvalues and squared norms (no power of pi) of degree q."""
        return self._eigen(q)[2]

    # -- engine ------------------------------------------------------------

    def inner_product(self, a: InvariantForm, b: InvariantForm) -> PiScalar:
        a._check_compatible(b)
        _, norms = self._spectrum(a.degree)
        x = self._to_eigen(a)
        y = x if b is a else self._to_eigen(b)
        val = sum((n * s * t for n, s, t in zip(norms, x, y) if s and t),
                  Fraction(0))
        return PiScalar(val, self._pi_power())

    def green(self, w: InvariantForm) -> InvariantForm:
        lams, _ = self._spectrum(w.degree)
        c = self._to_eigen(w)
        return self._from_eigen(w.degree, [
            a / lam if a and lam else Fraction(0) for a, lam in zip(c, lams)])

    def harmonic_projection(self, w: InvariantForm) -> InvariantForm:
        lams, _ = self._spectrum(w.degree)
        c = self._to_eigen(w)
        return self._from_eigen(w.degree, [
            Fraction(0) if lam else a for a, lam in zip(c, lams)])

    def harmonic_basis(self, q: int) -> List[InvariantForm]:
        lams, _ = self._spectrum(q)
        return [self._column("image", q, k)
                for k, lam in enumerate(lams) if lam == 0]
