"""Text formats for forms and extension reports.

Two line-oriented formats, each versioned with a header line:

``equihodge-form v1``
    backend tag, degree, dimension, then one ``index value`` line per
    nonzero entry, on every backend: the value is an exact fraction ``p/q``
    on the exact backends and a ``repr`` float on the mesh (DEC) backend,
    which reads back bit for bit.

``equihodge-report v1``
    extension-report status and per-stage data followed by one embedded
    form block per monomial term.  The status and per-stage lines follow
    from the terms and the obstruction residual, and the parser checks
    that they agree.  This is the machine interface; the matching
    human-readable table lives in :func:`format_report`.

Backends are rebuilt from their tags, so a form is self-contained, except
on a formal wrapper, whose tag omits its generators' operators: its forms
parse only as ``parse_form(text, wrapper)``, and its reports not at all.
Malformed input raises :class:`FormatError` with the offending line.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from .errors import FormatError, MeshError
from .forms import Backend, InvariantForm
from .equivariant import (
    ExtensionReport,
    EquivariantElement,
    cartan_d,
    format_monomial,
    monomial_degree,
)

FORM_HEADER = "equihodge-form v1"
REPORT_HEADER = "equihodge-report v1"


# -- backend tags -----------------------------------------------------------

#: backend family -> (required, optional) tag parameters
_TAG_PARAMS = {
    "sphere": (("N",), ("stages",)),
    "torus": (("n", "K", "v"), ()),
    "dec": (("nsym", "level"), ("zigzag",)),
}


def backend_from_tag(tag: str) -> Backend:
    """Reconstruct a backend instance from its textual tag.

    Raises :class:`FormatError` for an unknown family, a missing, unknown or
    malformed parameter, and parameter values the backend rejects.
    """
    tag = tag.strip()
    try:
        if tag.startswith("product:[") and tag.endswith("]"):
            from .product import ProductBackend

            left, right = _split_product(tag[len("product:["):-1])
            return ProductBackend(backend_from_tag(left), backend_from_tag(right))
        kind, _, body = tag.partition(":")
        if kind not in _TAG_PARAMS:
            raise FormatError("unknown backend tag %r" % tag)
        params = _parse_params(kind, body)
        if kind == "sphere":
            from .sphere import SphereBackend

            return SphereBackend(int(params["N"]),
                                 stages=int(params.get("stages", 3)))
        if kind == "torus":
            from .torus import TorusBackend

            v = tuple(int(x) for x in params["v"].split(":"))
            return TorusBackend(int(params["n"]), int(params["K"]), v)
        from .dec import DecBackend
        from .mesh import build_symmetric_sphere

        return DecBackend(build_symmetric_sphere(
            int(params["nsym"]), int(params["level"]),
            zigzag=float(params.get("zigzag", 0.0))))
    except (ValueError, MeshError) as ex:
        raise FormatError("bad backend tag %r: %s" % (tag, ex)) from ex


def _parse_params(kind: str, text: str):
    """The ``key=value`` parameters of a sphere, torus or dec tag body."""
    required, optional = _TAG_PARAMS[kind]
    params = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise FormatError("malformed backend parameter %r" % piece)
        key, value = piece.split("=", 1)
        if key not in required and key not in optional:
            raise FormatError("unknown backend parameter %r" % key)
        if key in params:
            raise FormatError("backend parameter %r given twice" % key)
        params[key] = value
    for key in required:
        if key not in params:
            raise FormatError("%s tag lacks parameter %r" % (kind, key))
    return params


def _split_product(body: str) -> Tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "|" and depth == 0:
            return body[:i], body[i + 1:]
    raise FormatError("product tag must contain a top-level '|'")


# -- forms ------------------------------------------------------------------

def serialize_form(w: InvariantForm) -> str:
    lines = [
        FORM_HEADER,
        "backend: %s" % w.backend.tag,
        "degree: %d" % w.degree,
        "dim: %d" % w.backend.dimension(w.degree),
    ]
    lines.extend("%d %s" % entry for entry in w.entries)
    return "\n".join(lines) + "\n"


class _Reader:
    """Cursor over the non-blank lines that reports 1-based line numbers in
    errors: ``lineno`` is the number of the last line read.  The end of the
    input reads as ``None`` on the text's last line."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.lines = [(n, line) for n, line in enumerate(map(str.strip, lines), 1)
                      if line] + [(len(lines), None)]
        self.pos = self.lineno = 0

    def next(self, what: str) -> str:
        self.lineno, line = self.lines[self.pos]
        if line is None:
            raise FormatError("unexpected end of input, expected %s" % what,
                              self.lineno)
        self.pos += 1
        return line

    def peek(self):
        return self.lines[self.pos][1]

    def field(self, name: str) -> str:
        line = self.next("'%s:' field" % name)
        prefix = name + ":"
        if not line.startswith(prefix):
            raise FormatError("expected %r, got %r" % (prefix, line), self.lineno)
        return line[len(prefix):].strip()

    def header(self, expected: str, what: str, backend: Backend = None) -> Backend:
        """Read the header line ``expected`` and the ``backend:`` field: the
        backend rebuilt from its tag, or ``backend`` if the tags agree."""
        line = self.next(what)
        if line != expected:
            raise FormatError("expected %r, got %r" % (expected, line), self.lineno)
        tag = self.field("backend")
        if backend is None:
            try:
                return backend_from_tag(tag)
            except FormatError as ex:
                raise FormatError(str(ex), self.lineno) from ex
        if backend.tag != tag:
            raise FormatError("form was written for backend %r, not %r"
                              % (tag, backend.tag), self.lineno)
        return backend


def _read_form(reader: _Reader, backend: Backend = None) -> InvariantForm:
    backend = reader.header(FORM_HEADER, "form header", backend)
    try:
        degree = int(reader.field("degree"))
        dim = int(reader.field("dim"))
    except ValueError as ex:
        raise FormatError(str(ex), reader.lineno)
    if dim != backend.dimension(degree):
        raise FormatError("dimension %d does not match backend degree-%d dimension %d"
                          % (dim, degree, backend.dimension(degree)), reader.lineno)
    parse = Fraction if backend.is_exact else float
    entries = {}
    while (reader.peek() or "").lstrip("-")[:1].isdigit():
        parts = reader.next("coefficient entry").split()
        if len(parts) != 2:
            raise FormatError("coefficient lines are 'index value'",
                              reader.lineno)
        try:
            idx = int(parts[0])
        except ValueError:
            raise FormatError("bad index %r" % parts[0], reader.lineno)
        if not 0 <= idx < dim:
            raise FormatError("index %d out of range [0, %d)" % (idx, dim),
                              reader.lineno)
        if idx in entries:
            raise FormatError("index %d given twice" % idx, reader.lineno)
        try:
            entries[idx] = value = parse(parts[1])
        except (ValueError, ZeroDivisionError) as ex:
            if parse is Fraction:
                raise FormatError("bad fraction %r (%s)" % (parts[1], ex), reader.lineno)
            value = math.nan
        # an unreadable float counts as NaN; float() also reads "nan" and
        # "inf", and no cochain takes such a value
        if parse is float and not math.isfinite(value):
            raise FormatError("bad float %r" % parts[1], reader.lineno)
    if backend.is_exact:
        return InvariantForm.from_values(backend, degree, entries)
    return backend.form(degree, [entries.get(i, 0) for i in range(dim)])


def parse_form(text: str, backend: Backend = None) -> InvariantForm:
    """Parse a serialized form; builds the backend from the tag unless one
    is supplied (in which case the tags must agree).  Nothing may follow
    the form."""
    reader = _Reader(text)
    form = _read_form(reader, backend)
    if reader.peek() is not None:
        extra = reader.next("trailing line")
        raise FormatError("unexpected %r after the form" % extra, reader.lineno)
    return form


# -- reports ----------------------------------------------------------------

def serialize_report(report: ExtensionReport) -> str:
    lines = [
        REPORT_HEADER,
        "backend: %s" % report.input.backend.tag,
        "status: %s" % report.status,
        "terminated-at-stage: %d" % report.terminated_at_stage,
        "final-residual: %r" % report.final_residual_norm,
        "stage-obstructions: %s"
        % " ".join(repr(x) for x in report.stage_obstructions),
        "obstruction-stage: %s"
        % ("-" if report.obstruction_stage is None else report.obstruction_stage),
        "terms: %d" % len(report.terms),
    ]
    base = (0,) * report.input.backend.generator_spec.rank
    for stage, element in enumerate(report.terms):
        # term 0 writes its base block even when zero: it carries the degree
        terms = ({base: element.base_form(), **element.terms} if stage == 0
                 else element.terms)
        lines.append("term: %d monomials: %d" % (stage, len(terms)))
        for mono, form in terms.items():
            lines.append("monomial: %s" % ",".join(str(e) for e in mono))
            lines.append(serialize_form(form).rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> ExtensionReport:
    reader = _Reader(text)
    backend = reader.header(REPORT_HEADER, "report header")
    status = reader.field("status")
    if status not in ("extended", "obstructed"):
        raise FormatError("unknown status %r" % status, reader.lineno)
    try:
        stage = int(reader.field("terminated-at-stage"))
        stage_line = reader.lineno
        final_residual = float(reader.field("final-residual"))
        residual_line = reader.lineno
        obs_text = reader.field("stage-obstructions")
        obs_line = reader.lineno
        obstructions = [float(x) for x in obs_text.split()]
        obs_stage_text = reader.field("obstruction-stage")
        obs_stage_line = reader.lineno
        obstruction_stage = None if obs_stage_text == "-" else int(obs_stage_text)
        nterms = int(reader.field("terms"))
    except ValueError as ex:
        raise FormatError(str(ex), reader.lineno)
    # an exact extension is closed exactly, and an obstructed run stops
    # before it has a sum to check
    if (status == "obstructed" or backend.is_exact) and final_residual != 0.0:
        raise FormatError("an obstructed report or an exact extended one has "
                          "final residual 0.0, not %r" % final_residual,
                          residual_line)
    terms: List[EquivariantElement] = []
    for _ in range(nterms):
        line = reader.next("term header")
        head, _, count = line.partition("monomials:")
        if head.split() != ["term:", str(len(terms))]:
            raise FormatError("expected 'term: %d', got %r"
                              % (len(terms), line), reader.lineno)
        try:
            nmono = int(count)
        except ValueError:
            raise FormatError("malformed term header %r" % line, reader.lineno)
        mapping = {}
        total = None
        for _ in range(nmono):
            mono_text = reader.field("monomial")
            try:
                mono = tuple(int(x) for x in mono_text.split(","))
            except ValueError:
                raise FormatError("bad monomial %r" % mono_text, reader.lineno)
            if min(mono) < 0:
                raise FormatError("negative exponent in monomial %r"
                                  % mono_text, reader.lineno)
            if len(mono) != backend.generator_spec.rank:
                raise FormatError("monomial %r has rank %d, not %d" % (
                    mono_text, len(mono), backend.generator_spec.rank), reader.lineno)
            if mono in mapping:
                raise FormatError("monomial %r given twice in term %d"
                                  % (mono_text, len(terms)), reader.lineno)
            mono_line = reader.lineno
            form = _read_form(reader, backend)
            mapping[mono] = form
            degree = monomial_degree(mono, backend.generator_spec) + form.degree
            if total is None:
                total = terms[0].total_degree if terms else degree
            if degree != total:
                raise FormatError("monomial %r gives total degree %d, not %d"
                                  % (mono_text, degree, total), mono_line)
        if total is None:
            raise FormatError("term with no monomials", reader.lineno)
        terms.append(EquivariantElement(backend, total, mapping))
    if not terms:
        raise FormatError("report carries no terms", reader.lineno)
    obstruction = None
    if status == "obstructed":
        obstruction = obstructions[-1] if obstructions else 0.0
    report = ExtensionReport(terms, obstruction, final_residual)
    for name, line, found, derived in (
            ("terminated-at-stage", stage_line, stage, report.terminated_at_stage),
            ("stage-obstructions", obs_line, obstructions, report.stage_obstructions),
            ("obstruction-stage", obs_stage_line, obstruction_stage,
             report.obstruction_stage)):
        if found != derived:
            raise FormatError("%s %r disagrees with the %s report's %d terms"
                              % (name, found, status, len(terms)), line)
    if obstruction is not None and not obstruction > 0:
        raise FormatError("an obstructed report needs a positive residual",
                          obs_line)
    # a float extension's residual is recomputed from its terms, which the
    # format stores bit for bit
    if (status == "extended" and not backend.is_exact
            and cartan_d(report.alpha_hat()).norm() != final_residual):
        raise FormatError("final residual %r disagrees with the terms"
                          % final_residual, residual_line)
    return report


# -- human-readable rendering ----------------------------------------------

def format_report(report: ExtensionReport) -> str:
    """Fixed-width human-readable rendering of an extension report."""
    out = []
    out.append("backend              %s" % report.input.backend.tag)
    out.append("status               %s" % report.status)
    out.append("terminated at stage  %d" % report.terminated_at_stage)
    out.append("final residual       %g" % report.final_residual_norm)
    if report.obstruction_stage is not None:
        out.append("obstructed at stage  %d (residual %g)"
                   % (report.obstruction_stage, report.obstruction))
    out.append("")
    out.append("%-6s %-14s %s" % ("stage", "monomial", "coefficient norm"))
    for stage, element in enumerate(report.terms):
        for mono, form in element.terms.items():
            out.append("%-6d %-14s %.12g"
                       % (stage, format_monomial(mono),
                          report.input.backend.norm(form)))
    return "\n".join(out) + "\n"
