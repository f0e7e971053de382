"""The equivariant model and the canonical extension iteration.

Elements of the model are finite maps from monomials in the group
generators t_1..t_r to invariant forms.  The differential is

    d_G = (I (x) d) - boundary,      boundary = sum_j t_j (x) i_j,

note the minus sign (much of the literature uses d + boundary).  The
extension step is the degree-zero operator

    P = (I (x) d* G) boundary,

and the canonical extension of a closed invariant form alpha is the
finite Neumann series alpha_hat = alpha + P(alpha) + P^2(alpha) + ...

``extend``, ``moment_map``, ``obstruction_residual`` and ``extend_partial``
test their input in one private closedness check, ``_require_closed``.
Every P-term comes from one private stage function, ``_d_star_green``.
Before Green's operator is invoked, the stage checks every contracted
coefficient form for a harmonic component.  A nonzero harmonic part
certifies that the form is not exact, i.e. that extendability fails for
this input; the stage then raises with diagnostics instead of silently
projecting the harmonic part away.  It computes d* G f as G(d* f):
Green's operator commutes with d*, and the solve runs one degree lower.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import (
    BackendMismatch,
    NotClosed,
    ObstructionDetected,
    PreconditionViolated,
)
from .forms import Backend, GeneratorSpec, InvariantForm

Monomial = Tuple[int, ...]


def monomial_degree(mono: Monomial, spec: GeneratorSpec) -> int:
    """Total polynomial degree of a generator monomial."""
    return sum(e * d for e, d in zip(mono, spec.degrees))


def format_monomial(mono: Monomial) -> str:
    parts = []
    for j, e in enumerate(mono):
        if e == 1:
            parts.append("t%d" % (j + 1))
        elif e > 1:
            parts.append("t%d^%d" % (j + 1, e))
    return "1" if not parts else "*".join(parts)


class EquivariantElement:
    """A homogeneous element of the equivariant model.

    ``terms`` maps generator monomials (exponent tuples, kept in canonical
    lexicographic order) to invariant coefficient forms.  Zero coefficients
    are pruned; all terms share one total degree and one backend.
    """

    __slots__ = ("backend", "total_degree", "terms")

    def __init__(self, backend: Backend, total_degree: int,
                 terms: Mapping[Monomial, InvariantForm]):
        spec = backend.generator_spec
        clean: Dict[Monomial, InvariantForm] = {}
        for mono, form in terms.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != spec.rank:
                raise BackendMismatch(
                    "monomial rank %d does not match generator rank %d"
                    % (len(mono), spec.rank)
                )
            if form.backend is not backend:
                raise BackendMismatch("coefficient form from a different backend")
            if monomial_degree(mono, spec) + form.degree != total_degree:
                raise BackendMismatch(
                    "term %s of form degree %d breaks homogeneity (total %d)"
                    % (format_monomial(mono), form.degree, total_degree)
                )
            if form.is_zero:
                continue
            clean[mono] = form
        self.backend = backend
        self.total_degree = total_degree
        self.terms = dict(sorted(clean.items()))

    @classmethod
    def from_form(cls, alpha: InvariantForm) -> "EquivariantElement":
        """Embed an invariant form as the degree-zero-in-t element."""
        spec = alpha.backend.generator_spec
        return cls(alpha.backend, alpha.degree, {(0,) * spec.rank: alpha})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> InvariantForm:
        """Coefficient form of a monomial (zero form when absent)."""
        mono = tuple(mono)
        if mono in self.terms:
            return self.terms[mono]
        spec = self.backend.generator_spec
        q = self.total_degree - monomial_degree(mono, spec)
        return self.backend.zero(q)

    def base_form(self) -> InvariantForm:
        """The degree-zero-in-t part."""
        return self.coefficient((0,) * self.backend.generator_spec.rank)

    def _combine(self, other: "EquivariantElement", op,
                 only_other) -> "EquivariantElement":
        """``op`` of the coefficients, monomial by monomial; a monomial of
        other alone gets ``only_other`` of its coefficient.  A zero operand
        takes the other operand's total degree."""
        if self.backend is not other.backend:
            raise BackendMismatch("elements belong to different backends")
        if other.is_zero:
            return self
        if not self.is_zero and self.total_degree != other.total_degree:
            raise BackendMismatch(
                "cannot combine elements of different total degree")
        terms = dict(self.terms)
        for mono, form in other.terms.items():
            terms[mono] = (op(terms[mono], form) if mono in terms
                           else only_other(form))
        return EquivariantElement(self.backend, other.total_degree, terms)

    def __add__(self, other: "EquivariantElement") -> "EquivariantElement":
        return self._combine(other, operator.add, lambda form: form)

    def __sub__(self, other: "EquivariantElement") -> "EquivariantElement":
        return self._combine(other, operator.sub, operator.neg)

    def scale(self, c) -> "EquivariantElement":
        return EquivariantElement(
            self.backend,
            self.total_degree,
            {mono: form.scale(c) for mono, form in self.terms.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, EquivariantElement):
            return NotImplemented
        return (
            self.backend is other.backend
            and (self.is_zero and other.is_zero
                 or self.total_degree == other.total_degree)
            and self.terms == other.terms
        )

    def __repr__(self):
        names = ", ".join(format_monomial(m) for m in self.terms)
        return "EquivariantElement(degree=%d, monomials=[%s])" % (
            self.total_degree, names,
        )

    def norm(self) -> float:
        """Euclidean combination of the coefficient norms."""
        import math

        return math.sqrt(
            sum(self.backend.norm(f) ** 2 for f in self.terms.values())
        )


def _bump(mono: Monomial, j: int) -> Monomial:
    return mono[:j] + (mono[j] + 1,) + mono[j + 1:]


def partial_d(x: EquivariantElement) -> EquivariantElement:
    """The boundary operator sum_j t_j (x) i_j (total degree + 1)."""
    backend = x.backend
    spec = backend.generator_spec
    terms: Dict[Monomial, InvariantForm] = {}
    for mono, form in x.terms.items():
        for j in range(spec.rank):
            w = backend.contraction(j, form)
            if w.is_zero:
                continue
            key = _bump(mono, j)
            terms[key] = terms[key] + w if key in terms else w
    return EquivariantElement(backend, x.total_degree + 1, terms)


def coefficient_d(x: EquivariantElement) -> EquivariantElement:
    """(I (x) d): the exterior derivative on every coefficient form."""
    backend = x.backend
    return EquivariantElement(
        backend,
        x.total_degree + 1,
        {mono: backend.d(form) for mono, form in x.terms.items()},
    )


def cartan_d(x: EquivariantElement) -> EquivariantElement:
    """The equivariant differential d_G = (I (x) d) - boundary."""
    return coefficient_d(x) - partial_d(x)


def _require_closed(x: EquivariantElement, error: Exception) -> None:
    """Raise ``error`` unless (I (x) d) x is zero, relative to x, the
    run's input, on the float backend."""
    backend = x.backend
    if not all(backend.is_zero(backend.d(f), x) for f in x.terms.values()):
        raise error


def _d_star_green(boundary: EquivariantElement, stage: int,
                  source) -> EquivariantElement:
    """(I (x) d* G) of a boundary element, after the harmonic test.

    Raises :class:`ObstructionDetected` for ``stage`` with the largest
    harmonic-component norm when some coefficient is not exact; Green's
    operator never silently projects a harmonic part away.  The test is
    relative to ``source``, the run's input.  A 0-form has d* G = 0 and is
    left out.  The result is one total degree below the boundary.

    Each coefficient f is mapped to G(d* f), which equals d* G(f): the
    Laplacian commutes with d*, and d* maps harmonic forms to zero and the
    rest into the complement of the harmonic forms, so Green's operator
    commutes with d* too.  Solving one degree lower is cheaper on the mesh
    backend (vertices instead of edges for a 1-form).
    """
    backend = boundary.backend
    harmonic = [backend.harmonic_projection(f) for f in boundary.terms.values()]
    residuals = [backend.norm(h) for h in harmonic if not backend.is_zero(h, source)]
    if residuals:
        raise ObstructionDetected(stage, max(residuals))
    return EquivariantElement(backend, boundary.total_degree - 1, {
        key: backend.green(backend.codifferential(form))
        for key, form in boundary.terms.items() if form.degree > 0})


def p_operator(x: EquivariantElement) -> EquivariantElement:
    """P = (I (x) d* G) boundary; every coefficient of the result is coexact.

    Raises :class:`ObstructionDetected` when a boundary coefficient has a
    nonzero harmonic part.
    """
    return _d_star_green(partial_d(x), 0, x)


@dataclass
class ExtensionReport:
    """Everything the extension loop produced, stage by stage.

    Only the terms alpha, P(alpha), ..., the harmonic residual that stopped
    the run (None when it extended) and the final residual |d_G(alpha_hat)|
    are stored; the input, the status and the per-stage fields follow from
    them.  Stage ``len(terms) - 1`` is the one where the run stopped: its
    P-term vanished, or its boundary had a harmonic part.
    """

    terms: List[EquivariantElement]
    obstruction: float = None
    final_residual_norm: float = 0.0

    @property
    def input(self) -> InvariantForm:
        return self.terms[0].base_form()

    @property
    def status(self) -> str:
        return "extended" if self.obstruction is None else "obstructed"

    @property
    def terminated_at_stage(self) -> int:
        return len(self.terms) - 1

    @property
    def obstruction_stage(self):
        return None if self.obstruction is None else self.terminated_at_stage

    @property
    def stage_obstructions(self) -> List[float]:
        """The harmonic residual of every stage; only the last can be > 0."""
        return [0.0] * self.terminated_at_stage + [self.obstruction or 0.0]

    def alpha_hat(self) -> EquivariantElement:
        """The summed extension alpha + P(alpha) + P^2(alpha) + ..."""
        return sum(self.terms[1:], self.terms[0])


def extend(alpha: InvariantForm) -> ExtensionReport:
    """Canonical equivariant extension of a closed invariant form.

    Returns a report whose terms are alpha, P(alpha), P^2(alpha), ...;
    status is ``"extended"`` when every stage passed the obstruction check
    and the summed element is equivariantly closed, or ``"obstructed"``
    when some contracted coefficient had a nonzero harmonic part (the
    report then carries the stage and residual).

    The final residual |d_G(alpha_hat)| is (I (x) d)(alpha_hat) minus the
    sum of the boundaries the stages computed, so no coefficient is
    contracted twice.  The stages' boundaries have monomials of distinct
    t-degree, so the sum adds no two forms, and the value equals
    ``cartan_d(alpha_hat).norm()`` bit for bit, on floats too;
    :func:`verify_extension` recomputes it independently.

    Raises :class:`NotClosed` when d(alpha) != 0.
    """
    terms = [EquivariantElement.from_form(alpha)]
    _require_closed(terms[0], NotClosed("extend requires a closed input form"))
    boundaries = EquivariantElement(alpha.backend, alpha.degree + 1, {})
    # hard guard; for torus generators P^m = 0 once 2m > deg(alpha)
    for stage in range(alpha.degree + 3):
        boundary = partial_d(terms[-1])
        try:
            current = _d_star_green(boundary, stage, alpha)
        except ObstructionDetected as ex:
            return ExtensionReport(terms, ex.residual)
        boundaries = boundaries + boundary
        if current.is_zero:
            report = ExtensionReport(terms)
            report.final_residual_norm = (
                coefficient_d(report.alpha_hat()) - boundaries).norm()
            return report
        terms.append(current)
    raise AssertionError("extension loop exceeded the termination bound")


def verify_extension(report: ExtensionReport) -> float:
    """Recompute |d_G(alpha_hat)| independently of the extension loop.

    Exact backends must return exactly 0.0 for a successful report.
    """
    if report.status != "extended":
        raise ValueError("verify_extension needs a successful report")
    return cartan_d(report.alpha_hat()).norm()


def obstruction_residual(beta: InvariantForm) -> float:
    """Norm of the harmonic component of a closed form.

    Zero exactly when beta is exact (on exact backends this is an exact
    zero test).  Raises :class:`NotClosed` when d(beta) != 0.
    """
    _require_closed(EquivariantElement.from_form(beta),
                    NotClosed("obstruction residual requires a closed form"))
    return beta.backend.norm(beta.backend.harmonic_projection(beta))


def moment_map(omega: InvariantForm) -> InvariantForm:
    """Zero-average Hamiltonian of a closed invariant 2-form.

    For a circle action with generator 0, returns mu = d* G (i_V omega),
    the unique solution of d(mu) = i_V(omega) with vanishing harmonic
    (average) part.  Raises :class:`ObstructionDetected` when i_V(omega)
    is not exact and :class:`BackendMismatch` when omega is not a 2-form.
    """
    backend = omega.backend
    if omega.degree != 2:
        raise BackendMismatch(
            "moment map requires a 2-form, got degree %d" % omega.degree)
    _require_closed(EquivariantElement.from_form(omega),
                    NotClosed("moment map requires a closed form"))
    t1 = _bump((0,) * backend.generator_spec.rank, 0)
    boundary = EquivariantElement(backend, omega.degree + 1,
                                  {t1: backend.contraction(0, omega)})
    return _d_star_green(boundary, 0, omega).coefficient(t1)


def extend_partial(a_terms: Sequence[EquivariantElement], m: int) -> EquivariantElement:
    """Continue a partial equivariant extension by one stage.

    ``a_terms[0..m]`` must satisfy d(a_0) = 0 and d(a_j) = boundary(a_{j-1});
    the next term is P(a_m).  Raises :class:`PreconditionViolated` with the
    index of the first failing relation, or :class:`ObstructionDetected`
    when boundary(a_m) has a nonzero harmonic component.
    """
    if m < 0 or m >= len(a_terms):
        raise ValueError("need terms a_0..a_m")
    _require_closed(a_terms[0], PreconditionViolated(0, "d(a_0) != 0"))
    for j in range(1, m + 1):
        if coefficient_d(a_terms[j]) != partial_d(a_terms[j - 1]):
            raise PreconditionViolated(j)
    return _d_star_green(partial_d(a_terms[m]), m, a_terms[0])
