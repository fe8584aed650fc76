"""Command line behavior: output formats, determinism, exit codes."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sublap.cli
from sublap.cli import main
from sublap.spectral import CertifyEntry, CertifyResult

from conftest import SOLVABLE_SPEC, run

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

HEISENBERG5_SPEC = """\
name heisenberg5
dim_h 4
dim_v 1
params { a = 1 }
bracket 1 3 = a 5
bracket 2 4 = a 5
"""


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


def test_misspelled_keyword_exits_2(capsys, tmp_path):
    path = tmp_path / "typo.txt"
    path.write_text(VALID_SPEC.replace("dim_h 2", "dim_hx 2"), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (2, "", "error: unrecognized line 'dim_hx 2'\n")


ORACLE_SPEC = VALID_SPEC + """\
oracle {
  factor 1 = su2 all
  map 1 = 1 f1.1
  map 2 = 1 f1.2
  map 3 = 1 f1.3
}
"""


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("dim_v 1", "dim_v 1\nparams { c }", "bad params entry 'c'"),
        ("bracket 1 2", "bracket 1 4", "bracket index out of range"),
        ("dim_v 1", "dim_v 1\nparams c = 1", "expected '{' to open a block"),
        ("dim_h 2", "dim_h 2 3", "bad dimension line 'dim_h 2 3'"),
        # the name is the first cell of every CSV row
        ("name demo", "name a,b", "bad name line 'name a,b'"),
        ("name demo", 'name "a"', "bad name line 'name \"a\"'"),
        ("dim_h 2", "dim_h two", "bad dimension line 'dim_h two'"),
        ("bracket 1 2", "bracket 1 x", "bad index 'x'"),
        ("= 1 2", "= q 2", "unbound parameter 'q'"),
        ("= 1 2", "= 1/0 2", "cannot evaluate coefficient '1/0'"),
        ("= 1 2", "= (-8)**(1/3) 2", "cannot evaluate coefficient '(-8)**(1/3)': non-real"),
        ("su2 all", "su3 all", "bad oracle factor"),
        ("su2 all", "su2 all\n  cutoff = big", "bad oracle cutoff 'big'"),
        ("su2 all", "su2 all\n  constraint = odd", "unknown oracle constraint 'odd'"),
        ("map 1 =", "map =", "bad oracle map head 'map'"),
        ("1 f1.1", "1 g1", "bad oracle map term '1 g1'"),
        ("  factor 1 = su2 all\n", "", "oracle block declares no factors"),
        ("  map 3 = 1 f1.3\n", "", "oracle map must cover every frame vector"),
        ("1 f1.1", "1 f2.1", "oracle map index out of range in 'map 1'"),
        ("1 f1.1", "(-1)**0.5 f1.1", "cannot evaluate coefficient '(-1)**0.5': non-real"),
        ("su2 all", "su2 all\n  factor 1 = su2 integer", "duplicate oracle factor 1"),
        ("map 2 = 1 f1.2", "map 2 = 1 f1.2\n  map 2 = 1 f1.2", "duplicate oracle map 2"),
        ("factor 1 =", "factor 2 =", "oracle factors must be numbered 1 to 1, got [2]"),
        ("factor 1 =", "factor 0 =", "oracle factors must be numbered 1 to 1, got [0]"),
        ("su2 all", "su2 all\n  cutoff = -5", "bad oracle cutoff '-5'"),
        ("su2 all", "su2 all\n  cutoff = 0", "bad oracle cutoff '0'"),
        ("su2 all", "su2 all\n  cutoff = nan", "bad oracle cutoff 'nan'"),
        ("su2 all", "su2 all\n  cutoff = inf", "bad oracle cutoff 'inf'"),
        ("su2 all", "su2 all\n  cutoff = 1e400", "bad oracle cutoff '1e400'"),
        pytest.param("= 1 2", "= " + "-" * 5000 + "1 2", "cannot parse coefficient '---",
                     id="5000-signs"),
        pytest.param("= 1 2", "= 1" + "+1" * 3000 + " 2", "cannot parse coefficient '1+1+1",
                     id="3001-terms"),
        pytest.param("= 1 2", "= q*1." + "0" * 3000 + " 2", "unbound parameter 'q' in 'q*1.000",
                     id="long-unbound"),
        pytest.param("dim_h 2", "dim_h 2 " + "5" * 5000, "bad dimension line 'dim_h 2 555",
                     id="5000-digit-dimension"),
        pytest.param("dim_v 1", "dim_v 1\nvariant main = " + "1+" * 1499 + "1",
                     "bad variant line 'variant main = 1+1+", id="3000-character-variant"),
        pytest.param("map 3 = 1 f1.3\n}", "map 3 = 1 f1.3\n}" + "x" * 5000,
                     "trailing text after block: 'xxx", id="5000-character-tail"),
    ],
)
def test_spec_format_errors_exit_2_with_one_line(capsys, tmp_path, old, new, message):
    # each case breaks one line of a spec that parses; a long coefficient is
    # echoed only in part, so the line stays short
    path = tmp_path / "spec.txt"
    path.write_text(ORACLE_SPEC, encoding="utf-8")
    assert run(capsys, "validate", str(path))[0] == 0
    assert old in ORACLE_SPEC
    path.write_text(ORACLE_SPEC.replace(old, new, 1), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + message), err
    assert len(lines[0]) < 200, lines[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bound", "so4_twisted", "--param", "b"), "--param expects name=value, got 'b'"),
        (("bound", "so4_twisted", "--x-grid", "0"), "--x-grid must be at least 1, got 0"),
        (("bound", "so4_twisted", "--rho2-grid", "-1"), "--rho2-grid must be at least 1, got -1"),
        (("certify", "so4_alt", "--cutoff", "0"), "--cutoff must be a positive finite number"),
        (("certify", "so4_alt", "--cutoff", "nan"), "--cutoff must be a positive finite number"),
        (("certify", "so4_alt", "--cutoff", "inf"), "--cutoff must be a positive finite number"),
        (("report", "so4_twisted", "--sweep", "b=a:1:3"),
         "--sweep expects numbers start:stop and an integer count, got 'a:1:3'"),
        # DIR and LATIN1 stand for a directory and a file that is not UTF-8
        (("validate", "DIR"), "cannot read 'DIR': "),
        (("bound", "DIR"), "cannot read 'DIR': "),
        (("validate", "LATIN1"), "cannot read 'LATIN1': 'utf-8' codec can't decode byte 0xff"),
    ],
)
def test_bad_flags_exit_2_with_one_line(capsys, tmp_path, argv, message):
    (tmp_path / "latin1.txt").write_bytes(b"name x\xff\n")
    for stand_in, path in (("DIR", tmp_path), ("LATIN1", tmp_path / "latin1.txt")):
        argv = [str(path) if arg == stand_in else arg for arg in argv]
        message = message.replace(stand_in, str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + message), err


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


@pytest.mark.parametrize("command", ["bound", "certify", "report"])
def test_running_out_of_memory_exits_3_with_one_line(capsys, monkeypatch, command):
    # a grid too large for the machine, such as --x-grid 1000000000000, ends
    # in numpy's MemoryError; raise it without allocating anything
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(sublap.cli, "optimize", exhausted)
    sweep = ("--sweep", "b=0:0.1:2") if command == "report" else ()
    code, out, err = run(capsys, command, "so4_twisted", *sweep)
    assert code == 3
    assert out == ("" if command != "report" else out.splitlines()[0] + "\n")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), err


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


def test_analyze_prints_the_rigidity_of_a_space_that_is_not_rigid(capsys, tmp_path):
    path = tmp_path / "solv3.txt"
    path.write_text(SOLVABLE_SPEC, encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "h_rigid = no" in lines
    assert "rigidity[1] = 1" in lines


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
    assert lines[2] == "tail = rigorous tail (second Gram eigenvalue)"
    assert all(line.endswith("-> PASS") for line in lines[3:])


def test_certify_an_ill_conditioned_model_with_no_bound(capsys):
    # at c = 100 no theorem applies, and lambda1 ~ 1/c**2 sits eight decades
    # below the top eigenvalue of its irrep, 1.0002e4; a zero-eigenvalue cut
    # relative to that top eigenvalue would refuse this model
    code, out, _ = run(capsys, "certify", "so3_twisted", "--param", "c=100")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("lambda1 = ") and lines[1].endswith(" at irrep (1)")
    value = float(lines[1].split()[2])
    assert abs(value - 9.99800048306e-05) <= 1e-6 * 9.99800048306e-05
    assert len(lines) == 3


def test_certify_requires_a_spectral_model(capsys, tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text(VALID_SPEC, encoding="utf-8")
    code, out, err = run(capsys, "certify", str(path))
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and "needs a spectral model" in line


# Spaces with no vertical vectors: an abelian plane, and so(3) with all three
# frame vectors horizontal and its model on SU(2).
FLAT_PLANE_SPEC = "name flat2\ndim_h 2\ndim_v 0\n"
SO3_HORIZONTAL_SPEC = """\
name so3h
dim_h 3
dim_v 0
bracket 1 2 = 1 3
bracket 1 3 = -1 2
bracket 2 3 = 1 1
oracle {
  factor 1 = su2 all
  map 1 = 1 f1.1
  map 2 = 1 f1.2
  map 3 = 1 f1.3
}
"""


@pytest.mark.parametrize("command", ["validate", "classify", "analyze", "bound", "certify"])
@pytest.mark.parametrize("spec", [FLAT_PLANE_SPEC, SO3_HORIZONTAL_SPEC], ids=["flat2", "so3h"])
def test_a_space_without_vertical_vectors_keeps_the_exit_contract(capsys, tmp_path, spec, command):
    path = tmp_path / "horizontal.txt"
    path.write_text(spec, encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    # flat2 carries no spectral model, so `certify` refuses it as a bad spec
    assert code == (2 if (spec, command) == (FLAT_PLANE_SPEC, "certify") else 0), err
    assert "array" not in err and "numpy" not in err and "Traceback" not in err
    if command == "bound":
        assert out.splitlines()[-1] == "bounds = none (no positive curvature constants)"


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


def test_validate_judges_step2_generation_at_the_brackets_own_scale(capsys, tmp_path):
    # a Heisenberg bracket of size 1e-10 still generates the vertical line
    path = tmp_path / "small.txt"
    path.write_text("name small\ndim_h 2\ndim_v 1\nbracket 1 2 = 1e-10 3\n", encoding="utf-8")
    assert run(capsys, "validate", str(path)) == (0, "small: ok (dim_h=2, dim_v=1)\n", "")


def test_step2_nilpotent_spec_has_no_bound(capsys, tmp_path):
    # every Schur complement of Q(x) is the zero matrix at each a, so no
    # theorem applies and the CSV rows carry no values
    path = tmp_path / "heisenberg5.txt"
    path.write_text(HEISENBERG5_SPEC, encoding="utf-8")
    code, out, _ = run(capsys, "bound", str(path))
    assert code == 0
    assert out == "example = heisenberg5\nbounds = none (no positive curvature constants)\n"
    code, out, _ = run(capsys, "report", str(path), "--sweep", "a=1:2:2")
    assert code == 0
    assert out.splitlines() == [
        "a,example,theorem,bound,x,rho1,rho2,omega,chi,psi,m,x_frontier",
        "1,heisenberg5,none,,,,,,,,,1",
        "2,heisenberg5,none,,,,,,,,,1",
    ]


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


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "so4_alt", "--x-grid", "5"),
        ("classify", "so4_alt", "--format", "csv"),
        ("bound", "so4_alt", "--cutoff", "40"),
        ("certify", "so4_alt", "--format", "csv"),
        ("analyze", "so4_alt", "--sweep", "b=0:1:2"),
        ("report", "so4_twisted"),
    ],
)
def test_each_command_takes_only_its_own_options(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [("bound", "so4_alt"), ("certify", "so4_alt"), ("report", "so4_alt", "--sweep", "b=0:1:2")],
)
def test_the_optimizing_commands_take_both_grids(argv):
    args = sublap.cli.build_parser().parse_args([*argv, "--x-grid", "20", "--rho2-grid", "5"])
    assert (args.x_grid, args.rho2_grid) == (20, 5)


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
        # np.linspace would warn on each of these before the error line
        ("report", "so4_twisted", "--sweep", "b=0:inf:2"),
        ("report", "so4_twisted", "--sweep", "b=-1e308:1e308:3"),
        ("report", "so4_twisted", "--sweep", "b=inf:inf:1"),
    ],
)
def test_bad_option_values_are_rejected(argv):
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --"), proc.stderr


@pytest.mark.parametrize("cutoff", ["1e17", "1e19", "1e300", "1.7e308"])
def test_certify_rejects_a_cutoff_too_large_to_enumerate(cutoff):
    proc = run_module("certify", "so4_alt", "--x-grid", "100", "--cutoff", cutoff)
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "too large to enumerate" in lines[0], proc.stderr
    assert "1024" in lines[0] and len(lines[0]) <= 160, proc.stderr


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


# `sublap --help`, then each command's --help, wrapped at 80 columns.
HELP_ARGVS = [["--help"]] + [
    [command, "--help"]
    for command in ("validate", "classify", "analyze", "bound", "certify", "report")
]


def test_help_matches_golden_file(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to $COLUMNS
    out = []
    for argv in HELP_ARGVS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (GOLDEN / "help.txt").read_text(encoding="utf-8")
