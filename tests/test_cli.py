"""Command line behavior: output formats, determinism, exit codes."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sublap.cli
from sublap.cli import main
from sublap.spectral import CertifyEntry, CertifyResult

VALID_SPEC = """\
name demo
dim_h 2
dim_v 1
bracket 1 2 = -1 3
bracket 1 3 = 1 2
bracket 2 3 = -1 1
"""

BROKEN_SPEC = """\
name broken
dim_h 2
dim_v 1
bracket 1 2 = 1 3
bracket 2 3 = 1 2
"""


SHEAR_SPEC = """\
name shear
dim_h 2
dim_v 1
params { a = 1 }
bracket 1 2 = a 3
bracket 1 3 = -1 2
bracket 2 3 = 1 1
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin(capsys):
    code, out, _ = run(capsys, "validate", "so4_twisted", "--param", "b=0.3")
    assert code == 0
    assert out == "so4_twisted: ok (dim_h=5, dim_v=1)\n"


def test_validate_spec_file(capsys, tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(VALID_SPEC, encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert out == "demo: ok (dim_h=2, dim_v=1)\n"


def test_validate_reports_violations(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text(BROKEN_SPEC, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3
    assert "invalid: Jacobi identity violated" in out + err


def test_unknown_spec_name(capsys):
    code, out, err = run(capsys, "bound", "nosuch")
    assert code == 2
    assert "neither a builtin name nor a file" in out + err


def test_bad_parameter_values(capsys):
    code, out, err = run(capsys, "bound", "so3_twisted", "--param", "c=abc")
    assert code == 2
    assert "not a number" in out + err
    code, out, err = run(capsys, "bound", "so3_twisted", "--param", "q=1")
    assert code == 2
    assert "unknown parameter override" in out + err


def test_commands_refuse_invalid_spaces(capsys, tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text(BROKEN_SPEC, encoding="utf-8")
    code, out, err = run(capsys, "bound", str(path))
    assert code == 3
    assert "invalid:" in err


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "so3_twisted", "--param", "c=0.2")
    assert code == 0
    assert out == (
        "example = so3_twisted\n"
        "h_rigid = yes\n"
        "v_rigid = yes\n"
        "totally_rigid = yes\n"
        "h_normal = no\n"
        "v_normal = yes\n"
        "strictly_normal = no\n"
        "vm_integrable = yes\n"
        "almost_strictly_normal = yes\n"
    )


def test_analyze_text_output(capsys):
    code, out, _ = run(capsys, "analyze", "so3_twisted")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "example = so3_twisted"
    assert "kappa = 1" in lines
    assert "sigma = 0" in lines
    assert "sup_t2 = 0" in lines
    assert "sub_ricci[1][1] = 1" in lines
    assert "gram_tau_h[3][3] = 2" in lines


def test_analyze_csv_output(capsys):
    code, out, _ = run(capsys, "analyze", "so4_alt", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert lines[1] == "example,so4_alt"
    assert "kappa,2" in lines


def test_bound_csv_output(capsys):
    code, out, _ = run(
        capsys, "bound", "so3_twisted", "--format", "csv", "--x-grid", "200"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "example,theorem,bound,x,rho1,rho2,omega,chi,psi,m"
    assert len(lines) == 5
    theorems = [line.split(",")[1] for line in lines[1:]]
    assert theorems == ["asn", "main", "sntf", "t1zero"]
    assert all(abs(float(line.split(",")[2]) - 0.5) < 1e-8 for line in lines[1:])


def test_bound_text_output(capsys):
    code, out, _ = run(capsys, "bound", "so4_alt", "--x-grid", "100")
    assert code == 0
    assert out.startswith("example = so4_alt\n")
    assert "theorem = sntf" in out
    assert "best = " in out


def test_bound_output_is_deterministic(capsys):
    args = ("bound", "twisted_spheres", "--format", "csv", "--x-grid", "80")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_certify_builtin(capsys):
    code, out, _ = run(capsys, "certify", "so3_twisted", "--x-grid", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "example = so3_twisted"
    assert lines[1] == "lambda1 = 1 at irrep (1)"
    assert lines[2] == "tail = rigorous tail (commuting vertical images)"
    assert all(line.endswith("-> PASS") for line in lines[3:])


def test_certify_requires_a_spectral_model(capsys, tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text(VALID_SPEC, encoding="utf-8")
    code, out, err = run(capsys, "certify", str(path))
    assert code == 2
    assert "needs a spectral model" in out + err


def test_certify_rejects_a_low_cutoff(capsys):
    # 1 leaves no nontrivial irrep, so the headroom check must come first
    for cutoff in ("1.8", "1"):
        code, out, err = run(
            capsys, "certify", "so4_alt", "--x-grid", "100", "--cutoff", cutoff
        )
        assert code == 3, cutoff
        assert "four times" in out + err, cutoff


def test_certify_failure_exit_code(monkeypatch, capsys):
    fake = CertifyResult(
        example="so3_twisted",
        lambda1=1.0,
        witness="(1)",
        rigorous=True,
        tail_note="rigorous tail (commuting vertical images)",
        entries=[CertifyEntry("main", 2.0, False)],
    )
    monkeypatch.setattr(
        sublap.cli, "certify", lambda space, report, cutoff=None: fake
    )
    code, out, _ = run(capsys, "certify", "so3_twisted", "--x-grid", "60")
    assert code == 4
    assert "main: bound 2 -> FAIL" in out


def test_report_sweep_with_frontier_column(capsys):
    code, out, _ = run(
        capsys, "report", "so4_twisted", "--sweep", "b=0:0.2:3",
        "--x-grid", "60", "--rho2-grid", "60",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "b,example,theorem,bound,x,rho1,rho2,omega,chi,psi,m,x_frontier"
    )
    # four theorems at b=0, three once the parallel-torsion trace is lost
    assert len(lines) == 1 + 4 + 3 + 3
    for line in lines[1:]:
        cells = line.split(",")
        # Q(x) turns singular on the (e1, e6) block
        # [[1 - x, -(1 + x) b], [-(1 + x) b, (1 + 3x)(1 + b^2)]], at
        # x = s/(2 - s) with s = 1/sqrt(1 + b^2)
        s = 1.0 / math.sqrt(1.0 + float(cells[0]) ** 2)
        assert abs(float(cells[-1]) - s / (2.0 - s)) < 1e-10
    values: dict[float, list[float]] = {}
    for line in lines[1:]:
        cells = line.split(",")
        values.setdefault(float(cells[0]), []).append(float(cells[3]))
    for b, bounds in values.items():
        # every theorem refines to the same optimum on this family
        assert max(bounds) - min(bounds) < 1e-6, b


def test_report_sweep_without_frontier(capsys):
    code, out, _ = run(
        capsys, "report", "so3_twisted", "--sweep", "c=0:0.2:2",
        "--x-grid", "60", "--rho2-grid", "60",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c,example,theorem,bound,x,rho1,rho2,omega,chi,psi,m,x_frontier"
    assert len(lines) == 1 + 4 + 1
    # Q(1) stays PSD (bottom eigenvalue 0) at every shear, so x_frontier = 1
    assert all(line.endswith(",1") for line in lines[1:])


def test_report_loads_every_sweep_point_before_printing(capsys, tmp_path):
    # an unknown parameter, or a coefficient out of range at a later point,
    # fails before the header or any row is printed
    for sweep in ("z=0:0.2:2", "b=0:1e60:2"):
        code, out, err = run(capsys, "report", "so4_twisted", "--sweep", sweep)
        assert code == 2, sweep
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    # so does a later point that loads but is invalid: at a = 0 the bracket
    # no longer generates the vertical direction
    path = tmp_path / "shear.txt"
    path.write_text(SHEAR_SPEC, encoding="utf-8")
    code, out, err = run(capsys, "report", str(path), "--sweep", "a=1:0:2")
    assert code == 3
    assert out == ""
    assert err.startswith("invalid at a=0: "), err


def test_report_rejects_malformed_sweeps(capsys):
    for sweep in ("b=0:0.2", "=0:1:3", "b=0:1:0"):
        code, out, err = run(capsys, "report", "so4_twisted", "--sweep", sweep)
        assert code == 2, sweep


def run_module(*argv):
    """Run ``python -m sublap`` in a fresh interpreter with src importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run(
        [sys.executable, "-m", "sublap", *argv], capture_output=True, text=True, env=env
    )


def test_console_script_is_installed():
    proc = run_module("validate", "so4_alt")
    assert proc.returncode == 0
    assert proc.stdout == "so4_alt: ok (dim_h=3, dim_v=3)\n"


@pytest.mark.parametrize("command", ["validate", "bound"])
@pytest.mark.parametrize("value", ["nan", "inf", "1e200"])
def test_non_finite_parameters_are_rejected(command, value):
    proc = run_module(command, "so4_twisted", "--param", f"b={value}")
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: coefficient"), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "so4_twisted", "--x-grid", "0"),
        ("bound", "so4_twisted", "--x-grid", "-5"),
        ("bound", "so4_twisted", "--rho2-grid", "-3"),
        ("report", "so4_twisted", "--sweep", "b=0:0.2:2", "--rho2-grid", "0"),
        ("certify", "so4_alt", "--x-grid", "0"),
        ("certify", "so4_alt", "--cutoff", "inf"),
        ("certify", "so4_alt", "--cutoff", "nan"),
        ("certify", "so4_alt", "--cutoff", "-1"),
        ("certify", "so4_alt", "--cutoff", "0"),
        ("report", "so4_twisted", "--sweep", "b=0:0.4:x"),
        ("report", "so4_twisted", "--sweep", "b=a:0.4:3"),
        ("report", "so4_twisted", "--sweep", "b=0:0.4:2.5"),
    ],
)
def test_bad_option_values_are_rejected(argv):
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --"), proc.stderr


@pytest.mark.parametrize("cutoff", ["1e17", "1e19", "1e300"])
def test_certify_rejects_a_cutoff_too_large_to_enumerate(cutoff):
    proc = run_module("certify", "so4_alt", "--x-grid", "100", "--cutoff", cutoff)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "too large to enumerate" in lines[0], proc.stderr


# Outputs recorded before the x sweep of optimize was pruned by the
# Rayleigh-quotient cap, at --x-grid 400: a later optimizer change that moves
# a printed digit fails here.
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
GOLDEN_RUNS = {
    **{f"bound_{n}.csv": ("bound", n, "--format", "csv") for n in sublap.builtin_names()},
    **{f"certify_{n}.txt": ("certify", n) for n in sublap.builtin_names()},
    "bound_so4_twisted_b0.3.csv": ("bound", "so4_twisted", "--param", "b=0.3", "--format", "csv"),
    "report_so4_twisted_b0-0.4-3.csv": ("report", "so4_twisted", "--sweep", "b=0:0.4:3"),
    # Recorded when x_frontier became Q(x)'s own LMI root for every spec; the
    # sweep ends where no theorem applies (c = 0.5), at its own x grid.
    "report_so3_twisted_c0-0.5-3.csv": (
        "report", "so3_twisted", "--sweep", "c=0:0.5:3", "--x-grid", "200"
    ),
    # Text output, which also carries the aux lines (main's s, t1zero's case);
    # so3_twisted c=0.05 has the three theorems at different x, t1zero in
    # case 1 and main with s.  Recorded before the theorems shared one Schur
    # curve per x.
    **{f"bound_{n}.txt": ("bound", n) for n in sublap.builtin_names()},
    "bound_so4_twisted_b0.3.txt": ("bound", "so4_twisted", "--param", "b=0.3"),
    "bound_so3_twisted_c0.05.txt": ("bound", "so3_twisted", "--param", "c=0.05"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_golden_file(capsys, name):
    command, *rest = GOLDEN_RUNS[name]
    # an --x-grid of the entry's own comes later and overrides 400
    code, out, _ = run(capsys, command, "--x-grid", "400", *rest)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


# `analyze` output, recorded before the invariants were contracted straight
# from the connection coefficients.  It prints only nonzero entries, so byte
# identity also catches an exact zero that turns into rounding noise.
ANALYZE_RUNS = {
    f"analyze_{label}.{ext}": ("analyze", *args, "--format", fmt)
    for label, args in (
        *((n, (n,)) for n in sublap.builtin_names()),
        ("so4_twisted_b0.3", ("so4_twisted", "--param", "b=0.3")),
        ("so3_twisted_c0.05", ("so3_twisted", "--param", "c=0.05")),
    )
    for fmt, ext in (("text", "txt"), ("csv", "csv"))
}


@pytest.mark.parametrize("name", sorted(ANALYZE_RUNS))
def test_analyze_matches_golden_file(capsys, name):
    code, out, _ = run(capsys, *ANALYZE_RUNS[name])
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
