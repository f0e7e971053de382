"""End-to-end tests of the command-line interface (invoked in process)."""

import os

import pytest

from equihodge import parse_form, parse_report, serialize_form
from equihodge.cli import OUTPUT_DIR_VAR, main


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


def test_convergence_study_to_level_3(capsys):
    code, out, err = run(capsys, "convergence", "--levels", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 4
    residuals = [float(l.split()[2]) for l in lines]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


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
