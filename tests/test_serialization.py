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
    parse_mesh,
    parse_report,
    serialize_form,
    serialize_mesh,
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


def test_exact_form_round_trip():
    b = make_sphere_backend(4, stages=1)
    w = b.one_form((Fraction(1, 3), 0, Fraction(-7, 2)), (2,))
    again = parse_form(serialize_form(w))
    assert again.degree == w.degree
    assert again.coeffs == w.coeffs
    assert again.backend.tag == b.tag


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


def test_mesh_round_trip():
    mesh = build_symmetric_sphere(4, 1, zigzag=0.1)
    again = parse_mesh(serialize_mesh(mesh))
    assert again.n_sym == mesh.n_sym
    assert again.level == mesh.level
    assert again.zigzag == mesh.zigzag
    assert np.array_equal(again.positions, mesh.positions)
    assert again.tris == mesh.tris
    assert np.array_equal(again.vperm, mesh.vperm)
    assert np.array_equal(again.eperm, mesh.eperm)


def test_mesh_header_and_length_errors():
    mesh = build_symmetric_sphere(4, 0)
    text = serialize_mesh(mesh)
    with pytest.raises(FormatError):
        parse_mesh(text.replace("equihodge-mesh", "equihodge-form"))
    broken = text.replace("vperm: %d" % mesh.num_vertices, "vperm: 3")
    with pytest.raises(FormatError):
        parse_mesh(broken)


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
