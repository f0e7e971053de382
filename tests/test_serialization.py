"""Round trips and error diagnostics of the text formats."""

from fractions import Fraction

import numpy as np
import pytest

from equihodge import (
    FormatError,
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
        assert w._entries == tuple(sorted(values.items()))
        assert w.coeffs == b.form(1, [values.get(i, 0)
                                      for i in range(dim)]).coeffs
        assert w == b.form(1, [values.get(i, 0) for i in range(dim)])


def test_mesh_backend_form_round_trip():
    from equihodge import DecBackend

    dec = DecBackend(build_symmetric_sphere(4, 0, zigzag=0.1))
    w = dec.volume_form_cochain()
    again = parse_form(serialize_form(w))
    assert np.array_equal(again.coeffs, w.coeffs)  # repr floats are exact


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
