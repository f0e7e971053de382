"""Round trips and error diagnostics of the text formats."""

from fractions import Fraction

import numpy as np
import pytest

from equihodge import (
    FormatError,
    InvariantForm,
    backend_from_tag,
    build_symmetric_sphere,
    extend,
    make_product_backend,
    make_sphere_backend,
    make_torus_backend,
    parse_form,
    parse_report,
    serialize_form,
    serialize_report,
    verify_extension,
)


def test_backend_tags_round_trip():
    for make in (lambda: make_sphere_backend(5, stages=2),
                 lambda: make_torus_backend(2, 3, (1, -2)),
                 lambda: make_product_backend(
                     make_sphere_backend(3, stages=1),
                     make_torus_backend(1, 2, (1,)))):
        b = make()
        rebuilt = backend_from_tag(b.tag)
        assert rebuilt.tag == b.tag
        for q in range(b.n + 1):
            assert rebuilt.dimension(q) == b.dimension(q)


def test_unknown_tag_rejected():
    with pytest.raises(FormatError):
        backend_from_tag("klein-bottle:N=4")
    with pytest.raises(FormatError):
        backend_from_tag("sphere:N=4,bogus=1")
    with pytest.raises(FormatError):
        backend_from_tag("product:[sphere:N=4,stages=1]")


@pytest.mark.parametrize("tag", [
    "sphere:N=x",
    "sphere:stages=3",
    "sphere:N=1",
    "torus:n=4,K=1,v=1:0:0:0",
    "torus:n=2,K=2,v=1:a",
    "sphere:N=8,N=4",
    "dec:nsym=2,level=0",
    "dec:nsym=4,level=-1",
    "dec:nsym=4,level=0,zigzag=0.7",
    "product:[sphere:N=2,stages=0|dec:nsym=4,level=0]",
])
def test_malformed_backend_tag_is_a_format_error(tag):
    text = "equihodge-form v1\nbackend: %s\ndegree: 0\ndim: 1\n" % tag
    with pytest.raises(FormatError) as exc:
        parse_form(text)
    assert exc.value.line == 2


@pytest.mark.parametrize("tag", [
    "sphere:N=abc,stages=1",
    "torus:n=2,K=2,v=1:a",
    "product:[sphere:N=3,stages=1|torus:n=2,K=2]",
])
def test_malformed_backend_tag_in_a_report_is_a_format_error(tag):
    text = serialize_report(extend(make_sphere_backend(3, stages=1)
                                   .two_form((1,))))
    lines = text.splitlines()
    lines[1] = "backend: %s" % tag
    with pytest.raises(FormatError) as exc:
        parse_report("\n".join(lines) + "\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("make", [
    lambda: make_sphere_backend(3, stages=1),
    lambda: make_torus_backend(2, 2, (1, 0)),
    lambda: make_product_backend(make_sphere_backend(2, stages=1),
                                 make_torus_backend(1, 2, (1,))),
], ids=["sphere", "torus", "product"])
def test_zero_input_report_round_trip(make):
    """The report of a zero input writes its base block, whose form carries
    the input's degree, and reads back to the same report."""
    b = make()
    for q in range(b.n + 1):
        text = serialize_report(extend(b.zero(q)))
        assert "term: 0 monomials: 1\n" in text
        again = parse_report(text)
        assert again.input.degree == q and again.input.is_zero
        assert serialize_report(again) == text


def test_exact_form_round_trip():
    b = make_sphere_backend(4, stages=1)
    w = b.one_form((Fraction(1, 3), 0, Fraction(-7, 2)), (2,))
    again = parse_form(serialize_form(w))
    assert again.degree == w.degree
    assert again.coeffs == w.coeffs
    assert again.backend.tag == b.tag


@pytest.mark.parametrize("make", [
    lambda: make_sphere_backend(4, stages=1),
    lambda: make_torus_backend(2, 2, (1, 0)),
    lambda: make_product_backend(make_sphere_backend(2, 1),
                                 make_torus_backend(1, 2, (1,))),
], ids=["sphere", "torus", "s2xs1"])
def test_parsed_exact_form_is_built_from_its_lines(make):
    """A parsed exact form gets the file's nonzero lines as its entries from
    the parser, in index order whatever the order of the lines, and the
    coefficients of the dense form with those values; a line "i 0" adds no
    entry and parses to the same form."""
    b = make()
    dim = b.dimension(1)
    values = {dim - 1: Fraction(-7, 2), 0: Fraction(1, 3), 2: Fraction(5)}
    header = serialize_form(b.zero(1)).splitlines()
    for extra in ([], ["1 0"]):
        lines = header + ["%d %s" % kv for kv in values.items()] + extra
        w = parse_form("\n".join(lines) + "\n", b)
        assert vars(w).get("entries") == tuple(sorted(values.items()))
        assert w.coeffs == b.form(1, [values.get(i, 0)
                                      for i in range(dim)]).coeffs
        assert w == b.form(1, [values.get(i, 0) for i in range(dim)])


def test_mesh_backend_form_round_trip():
    from equihodge import DecBackend

    dec = DecBackend(build_symmetric_sphere(4, 0, zigzag=0.1))
    w = dec.volume_form_cochain()
    again = parse_form(serialize_form(w))
    assert np.array_equal(again.coeffs, w.coeffs)  # repr floats are exact


def test_dec_values_are_written_as_repr_floats_and_read_back_bit_for_bit():
    """Each nonzero value of an invariant DEC cochain, the smallest subnormal
    and 1e300 among them, is written as repr(float) and reads back bit for
    bit, through parse_form and inside a report."""
    from equihodge import DecBackend

    dec = DecBackend(build_symmetric_sphere(4, 0, zigzag=0.1))
    mesh = dec.mesh
    per_orbit = np.zeros(dec.dimension(2))
    per_orbit[np.unique(mesh.orbit_rep[2])[:7]] = [
        5e-324, 1e-300, -0.1, 1 / 3, 1e300, 0.0, -2.5]
    w = dec.form(2, mesh.orbit_sign[2] * per_orbit[mesh.orbit_rep[2]])
    text = serialize_form(w)
    entries = text.splitlines()[4:]
    assert entries == ["%d %r" % (i, float(w.coeffs[i]))
                       for i in np.flatnonzero(w.coeffs)]
    assert {line.split()[1] for line in entries} == {
        "5e-324", "1e-300", "-0.1", "0.3333333333333333", "1e+300", "-2.5"}
    for again in (parse_form(text), parse_report(serialize_report(extend(w))).input):
        assert again.coeffs.dtype == w.coeffs.dtype
        assert again.coeffs.tobytes() == w.coeffs.tobytes()


def _dec_volume():
    from equihodge import DecBackend

    return DecBackend(build_symmetric_sphere(4, 0, zigzag=0.1)).volume_form_cochain()


@pytest.mark.parametrize("parse,serialize", [
    (parse_form, serialize_form),
    (parse_report, lambda w: serialize_report(extend(w))),
], ids=["form", "report"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_cochain_value_is_a_format_error_on_its_line(
        parse, serialize, value):
    """float() reads these, but they are no cochain values: the norms of
    such a cochain and the Green solves on it mean nothing."""
    lines = serialize(_dec_volume()).splitlines()
    # the first entry of the first form
    lineno = next(i for i, line in enumerate(lines) if line.startswith("dim:")) + 2
    index, _ = lines[lineno - 1].split()
    lines[lineno - 1] = "%s %s" % (index, value)
    with pytest.raises(FormatError) as exc:
        parse("\n".join(lines) + "\n")
    assert exc.value.line == lineno
    assert "bad float %r" % value in str(exc.value)


def test_the_norm_of_a_cochain_with_a_nan_value_is_nan():
    vol = _dec_volume()
    values = vol.coeffs.copy()
    values[3] = np.nan
    # Backend.form refuses such values; a cochain can still come to hold one
    # by arithmetic, as inf - inf
    assert np.isnan(vol.backend.norm(InvariantForm(vol.backend, 2, values)))
    assert vol.backend.norm(vol) > 0


def test_a_formal_wrapper_form_parses_only_against_its_wrapper():
    """A formal wrapper's tag does not say what its generators' operators
    are, so neither a form nor a report can rebuild the wrapper."""
    from equihodge import FormalGenerator, with_formal_generators

    base = make_sphere_backend(4)
    wrapped = with_formal_generators(
        base, [FormalGenerator(4, "p4", lambda w: base.zero(w.degree - 3))])
    w = wrapped.form(2, base.two_form((0, 1)).coeffs)
    text = serialize_form(w)
    assert parse_form(text, wrapped) == w
    with pytest.raises(FormatError, match="unknown backend tag 'formal:"):
        parse_form(text)
    with pytest.raises(FormatError, match="unknown backend tag 'formal:"):
        parse_report(serialize_report(extend(w)))


def test_zero_form_round_trip():
    b = make_torus_backend(2, 2, (1, 0))
    again = parse_form(serialize_form(b.zero(1)))
    assert again.is_zero and again.degree == 1


def test_parse_form_against_supplied_backend():
    b = make_sphere_backend(4, stages=1)
    text = serialize_form(b.two_form((1, 2)))
    again = parse_form(text, b)
    assert again.backend is b
    other = make_sphere_backend(5, stages=1)
    with pytest.raises(FormatError):
        parse_form(text, other)


def test_malformed_forms_report_line_numbers():
    b = make_sphere_backend(4, stages=1)
    good = serialize_form(b.two_form((1, 2)))
    bad_fraction = good.replace("1 2", "1 two/3")
    with pytest.raises(FormatError) as exc:
        parse_form(bad_fraction)
    assert "line" in str(exc.value) and "fraction" in str(exc.value)

    bad_index = good.replace("0 1\n", "99 1\n")
    with pytest.raises(FormatError) as exc:
        parse_form(bad_index)
    assert "out of range" in str(exc.value)

    truncated = "\n".join(good.splitlines()[:2])
    with pytest.raises(FormatError) as exc:
        parse_form(truncated)
    assert "unexpected end" in str(exc.value)

    wrong_dim = good.replace("dim: 9", "dim: 3")
    with pytest.raises(FormatError):
        parse_form(wrong_dim)


@pytest.mark.parametrize("tail,message", [
    ("garbage\n", "unexpected 'garbage' after the form"),
    ("-1 5\n", "index -1 out of range"),
    (None, "unexpected 'equihodge-form v1' after the form"),
])
def test_nothing_may_follow_a_form(tail, message):
    good = serialize_form(make_sphere_backend(4, stages=1).two_form((1, 2)))
    text = good + (good if tail is None else tail)
    with pytest.raises(FormatError) as exc:
        parse_form(text)
    assert exc.value.line == len(good.splitlines()) + 1
    assert message in str(exc.value)


@pytest.mark.parametrize("parse,keep,what", [
    (parse_form, 0, "form header"),
    (parse_form, 2, "'degree:' field"),
    (parse_report, 0, "report header"),
    (parse_report, 15, "term header"),
])
def test_the_end_of_input_is_reported_on_the_text_s_last_line(parse, keep, what):
    """Blank lines at the end still count: the error names the last line."""
    if parse is parse_form:
        text = serialize_form(make_sphere_backend(4, stages=1).two_form((1, 2)))
    else:  # the first 15 lines end with term 0
        text = "\n".join(_sphere_report_lines())
    lines = text.splitlines()[:keep] + ["", "  ", ""]
    with pytest.raises(FormatError) as exc:
        parse("\n".join(lines) + "\n")
    assert exc.value.line == len(lines)
    assert str(exc.value) == "line %d: unexpected end of input, expected %s" % (
        len(lines), what)


def test_report_round_trip_extended():
    b = make_sphere_backend(6)
    report = extend(b.two_form((0, 1)))
    again = parse_report(serialize_report(report))
    assert again.status == report.status
    assert again.terminated_at_stage == report.terminated_at_stage
    assert len(again.terms) == len(report.terms)
    for t1, t2 in zip(again.terms, report.terms):
        assert sorted(t1.terms) == sorted(t2.terms)
        for mono in t1.terms:
            assert t1.terms[mono].coeffs == t2.terms[mono].coeffs
    assert again.input.coeffs == report.input.coeffs


def test_report_round_trip_obstructed():
    from equihodge import COS

    b = make_torus_backend(2, 2, (1, 0))
    report = extend(b.basis_form(2, (0, 0), COS, (0, 1)))
    assert report.status == "obstructed"
    again = parse_report(serialize_report(report))
    assert again.status == "obstructed"
    assert again.obstruction_stage == report.obstruction_stage
    assert again.stage_obstructions == report.stage_obstructions


def test_report_rejects_bad_status():
    b = make_sphere_backend(6)
    text = serialize_report(extend(b.two_form((1,))))
    with pytest.raises(FormatError):
        parse_report(text.replace("status: extended", "status: maybe"))


@pytest.mark.parametrize("exponent,message", [
    ("-1", "negative exponent"),
    ("2", "total degree 4, not 2"),
])
def test_report_rejects_impossible_monomials(exponent, message):
    b = make_sphere_backend(6)
    text = serialize_report(extend(b.two_form((1,))))
    lines = text.splitlines()
    lineno = lines.index("monomial: 1") + 1
    lines[lineno - 1] = "monomial: " + exponent
    with pytest.raises(FormatError) as exc:
        parse_report("\n".join(lines) + "\n")
    assert exc.value.line == lineno
    assert message in str(exc.value)


def test_report_rejects_a_monomial_of_the_wrong_rank_on_its_line():
    b = make_sphere_backend(6)
    lines = serialize_report(extend(b.two_form((1,)))).splitlines()
    lineno = lines.index("monomial: 1") + 1
    lines[lineno - 1] = "monomial: 1,0"
    with pytest.raises(FormatError) as exc:
        parse_report("\n".join(lines) + "\n")
    assert exc.value.line == lineno
    assert "rank 2, not 1" in str(exc.value)


@pytest.mark.parametrize("old,new,lineno", [
    ("terminated-at-stage: 1", "terminated-at-stage: 7", 4),
    ("status: extended", "status: obstructed", 7),
    ("stage-obstructions: 0.0 0.0", "stage-obstructions: 5.0", 6),
    ("obstruction-stage: -", "obstruction-stage: 3", 7),
])
def test_report_header_must_agree_with_its_terms(old, new, lineno):
    text = serialize_report(extend(make_sphere_backend(6).two_form((1,))))
    assert old in text.splitlines()
    with pytest.raises(FormatError) as exc:
        parse_report(text.replace(old, new))
    assert exc.value.line == lineno


def test_obstructed_report_needs_a_positive_residual():
    from equihodge import COS

    b = make_torus_backend(2, 2, (1, 0))
    text = serialize_report(extend(b.basis_form(2, (0, 0), COS, (0, 1))))
    lines = text.splitlines()
    assert lines[5] == "stage-obstructions: 6.283185307179586"
    lines[5] = "stage-obstructions: 0.0"
    with pytest.raises(FormatError) as exc:
        parse_report("\n".join(lines) + "\n")
    assert exc.value.line == 6
    assert "positive residual" in str(exc.value)


@pytest.mark.parametrize("coeff", [10 ** 200, Fraction(1, 10 ** 200)],
                         ids=["huge", "tiny"])
def test_an_obstructed_report_of_a_huge_or_tiny_form_round_trips(coeff):
    """The obstruction scales with the input: float() of its exact square
    overflowed at 10**200 and gave 0.0 at 10**-200, a residual the parser
    refuses."""
    from equihodge import COS

    b = make_torus_backend(2, 2, (1, 0))
    unit = extend(b.basis_form(2, (0, 0), COS, (0, 1))).obstruction
    report = extend(b.basis_form(2, (0, 0), COS, (0, 1), coeff=coeff))
    assert report.status == "obstructed"
    assert report.obstruction == pytest.approx(float(coeff) * unit, rel=1e-15)
    text = serialize_report(report)
    assert serialize_report(parse_report(text)) == text


def test_obstructed_report_has_no_final_residual():
    from equihodge import COS

    b = make_torus_backend(2, 2, (1, 0))
    text = serialize_report(extend(b.basis_form(2, (0, 0), COS, (0, 1))))
    lines = text.splitlines()
    assert lines[4] == "final-residual: 0.0"
    lines[4] = "final-residual: 7.0"
    with pytest.raises(FormatError) as exc:
        parse_report("\n".join(lines) + "\n")
    assert exc.value.line == 5
    assert "final residual 0.0, not 7.0" in str(exc.value)


@pytest.mark.parametrize("preset", ["sphere/symplectic", "product/symplectic-sum"])
def test_exact_extended_report_has_no_final_residual(preset):
    """On an exact backend an extension closes exactly, so an extended
    report whose final residual is not 0.0 is rejected on that line."""
    from equihodge.cli import PRESETS

    tag, build = PRESETS[preset]
    text = serialize_report(extend(build(backend_from_tag(tag))))
    lines = text.splitlines()
    assert lines[2] == "status: extended"
    assert lines[4] == "final-residual: 0.0"
    lines[4] = "final-residual: 5.0"
    with pytest.raises(FormatError) as exc:
        parse_report("\n".join(lines) + "\n")
    assert exc.value.line == 5
    assert "final residual 0.0, not 5.0" in str(exc.value)


def test_dec_extended_report_final_residual_matches_its_terms():
    """A DEC extension's residual is recomputed from the parsed terms: the
    written value reads back, and an edited one is rejected on its line."""
    from equihodge.cli import PRESETS

    tag, build = PRESETS["dec/volume"]
    report = extend(build(backend_from_tag(tag)))
    text = serialize_report(report)
    assert parse_report(text).final_residual_norm == report.final_residual_norm > 0
    lines = text.splitlines()
    assert lines[2] == "status: extended"
    assert lines[4] == "final-residual: %r" % report.final_residual_norm
    lines[4] = "final-residual: 5.0"
    with pytest.raises(FormatError) as exc:
        parse_report("\n".join(lines) + "\n")
    assert exc.value.line == 5
    assert "final residual 5.0 disagrees with the terms" in str(exc.value)


def test_form_rejects_a_repeated_index_on_its_line():
    """A second entry for one index is ambiguous, not a silent overwrite."""
    b = make_sphere_backend(4)
    lines = serialize_form(b.zero_form((1,))).splitlines()
    assert lines[-1] == "0 1"
    lines.append("0 5")
    with pytest.raises(FormatError) as exc:
        parse_form("\n".join(lines) + "\n")
    assert exc.value.line == len(lines)
    assert "index 0 given twice" in str(exc.value)


def _sphere_report_lines():
    return serialize_report(extend(make_sphere_backend(6).two_form((1,)))).splitlines()


def test_report_rejects_a_repeated_monomial_on_its_line():
    lines = _sphere_report_lines()
    start = lines.index("term: 1 monomials: 1")
    block = lines[start + 1:]  # monomial: 1 and its form
    lines[start] = "term: 1 monomials: 2"
    block[-1] = "1 5"
    lines += block
    with pytest.raises(FormatError) as exc:
        parse_report("\n".join(lines) + "\n")
    assert exc.value.line == len(lines) - len(block) + 1
    assert "monomial '1' given twice in term 1" in str(exc.value)


@pytest.mark.parametrize("old,new,position", [
    ("term: 0 monomials: 1", "term: 7 monomials: 1", 0),
    ("term: 1 monomials: 1", "term: 0 monomials: 1", 1),
    ("term: 1 monomials: 1", "term: monomials: 1", 1),
])
def test_report_term_header_names_its_position(old, new, position):
    lines = _sphere_report_lines()
    lineno = lines.index(old) + 1
    lines[lineno - 1] = new
    with pytest.raises(FormatError) as exc:
        parse_report("\n".join(lines) + "\n")
    assert exc.value.line == lineno
    assert "expected 'term: %d'" % position in str(exc.value)


def _form_lines():
    return serialize_form(make_sphere_backend(4, stages=1).two_form((1, 2))).splitlines()


def _dec_form_lines():
    return ["equihodge-form v1", "backend: dec:nsym=4,level=0,zigzag=0.1",
            "degree: 0", "dim: 34", "0 1.5"]


#: (id, the lines read, the line replaced, its new text, the error's line
#: and message); the report header alone is its first 8 lines
CORRUPTED = [
    ("tag-parameter", _form_lines, 2, "backend: sphere:N4,stages=1",
     2, "malformed backend parameter 'N4'"),
    ("field-name", _form_lines, 3, "degre: 2", 3, "expected 'degree:', got 'degre: 2'"),
    ("header-line", _form_lines, 1, "equihodge-form v2",
     1, "expected 'equihodge-form v1', got 'equihodge-form v2'"),
    ("degree", _form_lines, 3, "degree: two",
     3, "invalid literal for int() with base 10: 'two'"),
    ("dim", _form_lines, 4, "dim: 9.0", 4, "invalid literal for int() with base 10: '9.0'"),
    ("entry-fields", _form_lines, 5, "0 1 2", 5, "coefficient lines are 'index value'"),
    ("entry-index", _form_lines, 5, "0x 1", 5, "bad index '0x'"),
    ("entry-float", _dec_form_lines, 5, "0 1.5e", 5, "bad float '1.5e'"),
    ("report-field-value", _sphere_report_lines, 4, "terminated-at-stage: one",
     4, "invalid literal for int() with base 10: 'one'"),
    ("term-header", _sphere_report_lines, 9, "term: 0 monomials: one",
     9, "malformed term header 'term: 0 monomials: one'"),
    ("monomial", _sphere_report_lines, 10, "monomial: x", 10, "bad monomial 'x'"),
    ("term-without-monomials", _sphere_report_lines, 16, "term: 1 monomials: 0",
     16, "term with no monomials"),
    ("report-without-terms", lambda: _sphere_report_lines()[:8], 8, "terms: 0",
     8, "report carries no terms"),
]


@pytest.mark.parametrize("lines,lineno,new,line,message",
                         [case[1:] for case in CORRUPTED], ids=[case[0] for case in CORRUPTED])
def test_a_corrupted_input_is_refused_on_its_line(lines, lineno, new, line, message):
    text = lines()
    parse = parse_report if text[0] == "equihodge-report v1" else parse_form
    text[lineno - 1] = new
    with pytest.raises(FormatError) as exc:
        parse("\n".join(text) + "\n")
    assert exc.value.line == line
    assert str(exc.value) == "line %d: %s" % (line, message)


def test_truncation_on_a_dec_preset_is_refused(capsys):
    from equihodge.cli import main

    assert main(["extend", "--preset", "dec/volume", "--truncation", "3"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error (extend): --truncation applies to sphere and "
                              "torus backends\n")


def test_a_report_on_a_nested_product_round_trips_byte_for_byte():
    b = backend_from_tag("product:[product:[sphere:N=2,stages=1|sphere:N=2,stages=1]"
                         "|sphere:N=2,stages=1]")
    text = serialize_report(extend(sum(b.harmonic_basis(2)[1:], b.harmonic_basis(2)[0])))
    again = parse_report(text)
    assert again.input.backend.tag == b.tag
    assert serialize_report(again) == text
    assert verify_extension(again) == 0.0
