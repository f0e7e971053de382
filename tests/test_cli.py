"""End-to-end tests of the command-line interface (invoked in process)."""

import hashlib
import os

import numpy as np
import pytest

from equihodge import parse_form, parse_report, serialize_form
from equihodge.cli import OUTPUT_DIR_VAR, _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extend_preset_succeeds(capsys):
    code, out, err = run(capsys, "extend", "--preset", "sphere/symplectic")
    assert code == 0
    assert "status               extended" in out
    assert "t1" in out


def test_extend_obstructed_preset_exits_nonzero(capsys):
    code, out, err = run(capsys, "extend", "--preset", "torus-free/volume")
    assert code == 1
    assert "obstructed" in out


def test_verify_rechecks_the_extension(capsys):
    code, out, err = run(capsys, "verify", "--preset", "sphere/symplectic")
    assert code == 0
    assert "independent recheck residual  0" in out


def test_hodge_decomposition_output(capsys):
    code, out, err = run(capsys, "hodge", "--preset", "sphere/weighted-volume")
    assert code == 0
    for name in ("harmonic", "exact", "coexact"):
        assert name in out


def test_moment_map_verb(capsys):
    code, out, err = run(capsys, "moment-map", "--preset", "sphere/symplectic")
    assert code == 0
    assert "moment map norm" in out


def test_moment_map_obstructed_is_an_error(capsys):
    code, out, err = run(capsys, "moment-map", "--preset", "torus-free/volume")
    assert code == 1
    assert "error" in err


def test_out_writes_machine_report(capsys, tmp_path):
    path = tmp_path / "report.txt"
    code, out, err = run(capsys, "extend", "--preset", "sphere/symplectic",
                         "--out", str(path))
    assert code == 0
    report = parse_report(path.read_text())
    assert report.status == "extended"


def test_output_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_VAR, str(tmp_path))
    code, out, err = run(capsys, "moment-map", "--preset", "sphere/symplectic",
                         "--out", "mu.txt")
    assert code == 0
    mu = parse_form((tmp_path / "mu.txt").read_text())
    assert mu.degree == 0


def test_roundtrip_through_in_file(capsys, tmp_path):
    from equihodge import make_sphere_backend

    b = make_sphere_backend(8, stages=3)
    path = tmp_path / "form.txt"
    path.write_text(serialize_form(b.two_form((0, 1))))
    code, out, err = run(capsys, "extend", "--in", str(path))
    assert code == 0
    assert "extended" in out


def test_in_file_with_mismatched_backend_flag(capsys, tmp_path):
    from equihodge import make_sphere_backend

    b = make_sphere_backend(8, stages=3)
    path = tmp_path / "form.txt"
    path.write_text(serialize_form(b.two_form((1,))))
    code, out, err = run(capsys, "extend", "--in", str(path),
                         "--backend", "sphere:N=6,stages=3")
    assert code == 1
    assert "error" in err


def test_truncation_override(capsys):
    code, out, err = run(capsys, "extend", "--preset", "sphere/symplectic",
                         "--truncation", "5")
    assert code == 0
    assert "sphere:N=5" in out


def test_missing_input_is_an_error(capsys):
    code, out, err = run(capsys, "extend")
    assert code == 1
    assert "provide --preset or --in" in err


def test_preset_and_in_together_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extend", "--preset", "sphere/symplectic",
              "--in", "/nonexistent.txt"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_unknown_preset_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extend", "--preset", "no-such-thing"])
    assert exc.value.code == 2


def test_convergence_short_run(capsys):
    code, out, err = run(capsys, "convergence", "--levels", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 2
    residuals = [float(l.split()[2]) for l in lines]
    assert residuals[1] < residuals[0]


def test_negative_convergence_level_is_a_usage_error(capsys):
    """No level runs below 0, so an empty study is refused instead of
    printed as a monotone one."""
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--levels", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "level must be >= 0, got -1" in captured.err


def test_convergence_study_to_level_3(capsys):
    code, out, err = run(capsys, "convergence", "--levels", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 4
    residuals = [float(l.split()[2]) for l in lines]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_convergence_refines_each_level_into_the_next(capsys, monkeypatch):
    from equihodge import build_symmetric_sphere, dec
    from equihodge.cli import CONVERGENCE_NSYM, CONVERGENCE_ZIGZAG

    meshes = []

    class Recording(dec.DecBackend):
        def __init__(self, mesh):
            meshes.append(mesh)
            super().__init__(mesh)

    monkeypatch.setattr(dec, "DecBackend", Recording)
    code, out, err = run(capsys, "convergence", "--levels", "2")
    assert code == 0
    assert [m.level for m in meshes] == [0, 1, 2]
    for mesh in meshes:
        fresh = build_symmetric_sphere(CONVERGENCE_NSYM, mesh.level,
                                       zigzag=CONVERGENCE_ZIGZAG)
        for name in ("positions", "tri_vertices", "vperm"):
            assert np.array_equal(getattr(mesh, name), getattr(fresh, name)), name
        for q in range(3):
            assert np.array_equal(mesh.orbit_rep[q], fresh.orbit_rep[q])


def test_dec_preset_extends(capsys):
    code, out, err = run(capsys, "extend", "--preset", "dec/volume")
    assert code == 0
    assert "extended" in out


@pytest.mark.parametrize("preset", ["torus-free/dx",
                                    "product/symplectic-product"])
def test_moment_map_of_a_non_two_form_is_an_error(capsys, preset):
    code, out, err = run(capsys, "moment-map", "--preset", preset)
    assert code == 1
    assert err.startswith("error (moment-map): ")


def test_truncation_the_backend_rejects_is_an_error(capsys):
    code, out, err = run(capsys, "extend", "--preset", "sphere/symplectic",
                         "--truncation", "1")
    assert code == 1
    assert err.startswith("error (extend): ")


def test_truncation_with_an_in_file_needs_a_backend(capsys, tmp_path):
    from equihodge import make_sphere_backend

    path = tmp_path / "form.txt"
    path.write_text(serialize_form(make_sphere_backend(8).two_form((1,))))
    code, out, err = run(capsys, "extend", "--in", str(path),
                         "--truncation", "4")
    assert code == 1
    assert err.startswith("error (extend): --truncation")
    assert out == ""


def test_backend_flag_with_a_preset_is_an_error(capsys):
    code, out, err = run(capsys, "extend", "--preset", "sphere/symplectic",
                         "--backend", "torus:n=2,K=2,v=1:0")
    assert code == 1
    assert err.startswith("error (extend): --backend")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["convergence", "--levels", "0", "--truncation", "4"],
    ["convergence", "--levels", "0", "--preset", "sphere/symplectic"],
    ["extend", "--preset", "dec/volume", "--tol", "1e-6"],
])
def test_flags_a_verb_does_not_take_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


#: SHA-256 of the exit code, stdout, stderr and ``--out`` bytes of each verb
#: on each exact preset.  The exact backends compute in ``Fraction``s, so
#: any change to these bytes is a change of result, not of rounding.
EXACT_PINS = {
    ("product/symplectic-product", "extend"): "7fc49d802bfe0d7c59804a8d918c6b244b691d4b51d5095bff38b4864ab674c8",
    ("product/symplectic-product", "verify"): "3a74c01711fe48a22234b47c2a2fb831016f056c8ec03c976fad2011279036c4",
    ("product/symplectic-product", "hodge"): "29e77e4bdb689c42651b9e2dcd0353d55da04e1a96d9541549225e0de28d8e42",
    ("product/symplectic-product", "moment-map"): "4b1e657df15939323a959fc38db2c1920b3702ab0d04f573f761f521a78636e8",
    ("product/symplectic-sum", "extend"): "8b6d2d134ea94b7efe52d74077b9e7148c9bd91faa44f6fdf7bd2ed5be1a43e3",
    ("product/symplectic-sum", "verify"): "856e6a32ec5d35c2f3430803af28335a9136f8674855cee3c80cee298310e997",
    ("product/symplectic-sum", "hodge"): "6e8626755e71cfebc3a15249700913f4b8ee73c9d6f07b528c892de139565a9e",
    ("product/symplectic-sum", "moment-map"): "4d654ba7e3de77184bdbe9e99ff46d6337ad560ece1ddfe582199be6c0589a53",
    ("sphere/symplectic", "extend"): "105d520b56650ec49d4ca148d88f87ed7d4fe9c047e4c844429c6b976334dd79",
    ("sphere/symplectic", "verify"): "4ac26996fe6619141eddd09602f0557ae15870e60e8d76a3e7cd797120216d59",
    ("sphere/symplectic", "hodge"): "0fb6a13db6afc464a2cb059901cb44762226732cf324ebb58ad3c5dd49af9560",
    ("sphere/symplectic", "moment-map"): "5419fba74835a623785915dd03adfc21e3003d99165fda108c05d05c61e36004",
    ("sphere/weighted-volume", "extend"): "04b3ff4a7b2e547d30b4279f96aad6896e2ea2e7383d022c067a09351313cfe4",
    ("sphere/weighted-volume", "verify"): "7a336c946e3f025c137c20f515a2a37976440379475edd6c1d32bde93b0f5fb1",
    ("sphere/weighted-volume", "hodge"): "ba226538692bcdec3233767fdc89a6c59cffe818223cfa9b9272dc4f558ae464",
    ("sphere/weighted-volume", "moment-map"): "c8be5073a2cb2ec6d12ced6ff206ba7b61b48667e9c96831de4caf35b572eada",
    ("torus-free/dx", "extend"): "91673ce130cbcabfbe05643d677ae9c4221eec2257ddcbfb1e8982269b896e5a",
    ("torus-free/dx", "verify"): "91673ce130cbcabfbe05643d677ae9c4221eec2257ddcbfb1e8982269b896e5a",
    ("torus-free/dx", "hodge"): "be8e1bde3b98c4b17cb561c4c703723a3e207b657af743a8b2c95833e1a397a6",
    ("torus-free/dx", "moment-map"): "0bc5749c795ce3fc71de4fcedb377240dedff1343691b2e480ac6f069fce9f51",
    ("torus-free/volume", "extend"): "761212d0da53bac9ff75f9140d790834ba65dfc3ba4a59c3473235622c441639",
    ("torus-free/volume", "verify"): "761212d0da53bac9ff75f9140d790834ba65dfc3ba4a59c3473235622c441639",
    ("torus-free/volume", "hodge"): "465ff0d17f4167aff4d9161ceaa5fd59d5e7b454308cd055dc82c98d640265f0",
    ("torus-free/volume", "moment-map"): "1d9be229d356d34183e95b9c1479dae0f1083448655b8b3de50c333b348beea0",
}


@pytest.mark.parametrize("preset,verb", sorted(EXACT_PINS))
def test_exact_preset_output_is_byte_identical(capsys, tmp_path, preset, verb):
    path = tmp_path / "out.txt"
    code, out, err = run(capsys, verb, "--preset", preset, "--out", str(path))
    written = path.read_bytes() if path.exists() else b"-"
    digest = hashlib.sha256()
    for part in (str(code).encode(), out.encode(), err.encode(), written):
        digest.update(b"%d:" % len(part) + part)
    assert digest.hexdigest() == EXACT_PINS[preset, verb]


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one invocation, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_invocation_of_a_process(capsys):
    sequence = [["extend", "--preset", "sphere/symplectic"],
                ["hodge", "--preset", "sphere/symplectic", "--bogus"],
                ["hodge", "--preset", "sphere/weighted-volume"]]
    alone = []
    for argv in sequence:
        _build_parser.cache_clear()
        alone.append(outcome(capsys, argv))
    assert [code for code, _, _ in alone] == [0, 2, 0]
    _build_parser.cache_clear()
    assert [outcome(capsys, argv) for argv in sequence] == alone
    assert _build_parser.cache_info().misses == 1
