"""Abstract de Rham backend contract and the generic Hodge engine.

A backend packages a finite-dimensional model of the invariant-forms
complex of a closed manifold with a group action: graded coefficient
bases, the exterior derivative, Hodge star, inner product, contraction
operators for the action generators, and the harmonic structure.

On top of that contract this module builds, once and for all:

* the codifferential as the signed star conjugate of ``d``,
* the Laplacian ``d d* + d* d``,
* Green's operator, harmonic projection, the inner product and the
  harmonic basis of the rational backends, all in the coordinates of an
  exact Laplacian eigenbasis (the mesh backend supplies its own, with an
  iterative Green solve),
* the three-way Hodge decomposition.

Exact backends use :class:`fractions.Fraction` coefficients throughout,
so "zero" means identically zero, never merely small.
"""

from __future__ import annotations

import math
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

    @property
    def is_torus(self) -> bool:
        return all(deg == 2 for deg in self.degrees)


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

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        self._check_compatible(other)
        if isinstance(self.coeffs, tuple):
            coeffs = tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        else:
            coeffs = self.coeffs + other.coeffs
        return InvariantForm(self.backend, self.degree, coeffs)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self + (-other)

    def __neg__(self) -> "InvariantForm":
        return self.scale(-1)

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

    Instances are immutable after construction; every operation is a pure
    function of its inputs, so backends are safe to share between
    concurrent tasks.
    """

    #: manifold dimension
    n: int
    #: True when coefficients are exact rationals
    is_exact: bool
    #: zero threshold for norms (0 is meaningful only on exact backends)
    tol: float

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

    @abstractmethod
    def is_zero(self, w: InvariantForm) -> bool:
        """Exact zero test (exact backends) or norm below tolerance (DEC)."""

    # -- derived operators -------------------------------------------------

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
        g = self.green(w)
        exact = self.d(self.codifferential(g))
        coexact = self.codifferential(self.d(g))
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
    """

    is_exact = True
    tol = 0.0

    def __init__(self):
        self._eig_cache: Dict[int, tuple] = {}

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
        out = []
        for k, lam in enumerate(lams):
            if lam == 0:
                unit = [Fraction(0)] * len(lams)
                unit[k] = Fraction(1)
                out.append(self._from_eigen(q, unit))
        return out

    def codifferential(self, w: InvariantForm) -> InvariantForm:
        # d* = (-1)^(n(q+1)+1) * d *  on an oriented Riemannian n-manifold
        sign = -1 if (self.n * (w.degree + 1) + 1) % 2 else 1
        res = self.star(self.d(self.star(w)))
        return res.scale(sign)

    def is_zero(self, w: InvariantForm) -> bool:
        return all(c == 0 for c in w.coeffs)
