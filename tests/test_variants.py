"""Convention variants are spec data, and nothing keys on a space's name.

A `variant` line of a spec file gives a second value of one theorem under
another normalization.  The builtins so4_alt and twisted_spheres declare one
each; any other spec, whatever its name, reports none.
"""

from __future__ import annotations

import ast
import importlib.resources
from pathlib import Path

import numpy as np
import pytest

import sublap
from sublap import load_builtin, optimize, report_csv, report_text, rescale_vertical

from conftest import random_orthogonal, rotate_frame, run

SRC = Path(sublap.__file__).resolve().parent

# The variants each builtin declares: (convention, the closed form its sntf
# entry had before variants became spec data, d = 3 on both).
DECLARED = {
    "so4_alt": ("denominator uses d/(d-1)", lambda e: e.rho1 / (3 / 2 + 0.75 * e.omega)),
    "twisted_spheres": (
        "unordered-pair torsion Gram (rho2 halved)",
        lambda e: e.rho1 / (2 / 3 + 0.75 * (2 * e.omega)),
    ),
}


def _builtin_text(name: str) -> str:
    return importlib.resources.files("sublap.data").joinpath(f"{name}.txt").read_text()


def _check_variant(report, name: str) -> None:
    convention, formula = DECLARED[name]
    sntf = next(e for e in report.entries if e.theorem == "sntf")
    assert len(report.discrepancies) == 1
    note = report.discrepancies[0]
    assert (note.theorem, note.convention, note.value) == ("sntf", convention, sntf.value)
    assert note.variant == formula(sntf)  # bitwise: the old closed forms
    assert f"theorem = sntf [{convention}]\n" in report_text(report)


def test_no_space_name_is_compared_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "name" for o in operands):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _linalg_bindings(tree: ast.AST) -> list[int]:
    """Lines where numpy.linalg, or one of its functions, gets a name of its
    own: calls through that name escape a patch of np.linalg."""
    callees = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bad = node.module == "numpy.linalg"
        elif isinstance(node, ast.Import):
            bad = any(a.name == "numpy.linalg" and a.asname for a in node.names)
        else:  # np.linalg.f taken without being called on the spot
            bad = (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and id(node) not in callees
            )
        if bad:
            found.append(node.lineno)
    return found


def test_eigensolvers_are_looked_up_on_np_linalg_at_call_time():
    # The bench tracer and the call-count tests patch np.linalg, so every
    # eigensolver call in the package has to go through that attribute.
    for snippet in (
        "from numpy.linalg import eigvalsh",
        "import numpy.linalg as la",
        "eig = np.linalg.eigh",
        "def f(a, eig=np.linalg.eigh): pass",
    ):
        assert _linalg_bindings(ast.parse(snippet)) == [1], snippet
    assert _linalg_bindings(ast.parse("w = np.linalg.eigvalsh(a)[..., 0]")) == []
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _linalg_bindings(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_a_variant_line_names_exactly_the_theorems_optimize_reports():
    # `algebra` cannot import `bounds`, so the names a `variant` line accepts
    # are pinned here to those `optimize` reports on so4_twisted, where all apply
    got = [e.theorem for e in optimize(load_builtin("so4_twisted"), x_points=60).entries]
    assert sorted(got) == sorted(sublap.algebra.VARIANT_THEOREMS)


def test_builtins_declare_their_variants():
    for name in sublap.builtin_names():
        space = load_builtin(name)
        want = [("sntf", DECLARED[name][0])] if name in DECLARED else []
        assert [(t, conv) for t, _, conv in space.variants] == want, name


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_variant_formulas_reproduce_the_closed_forms(name):
    _check_variant(optimize(load_builtin(name), x_points=60), name)


@pytest.mark.parametrize("command", ["bound", "certify"])
def test_a_user_spec_named_like_a_builtin_gets_no_variant(capsys, tmp_path, command):
    text = _builtin_text("so4_twisted").replace("name so4_twisted", "name so4_alt")
    path = tmp_path / "renamed.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, str(path), "--x-grid", "60")
    assert code == 0, err
    assert "so4_alt" in out and "sntf" in out
    assert "variant" not in out and "d/(d-1)" not in out
    code, out, _ = run(capsys, "bound", str(path), "--x-grid", "60", "--format", "csv")
    assert code == 0
    assert [row.split(",")[1] for row in out.splitlines()[1:]] == [
        "asn", "main", "sntf", "t1zero"
    ]


def test_a_variant_of_an_unreported_theorem_is_skipped():
    # sheared so3_twisted admits only asn, so a main variant has no entry to
    # be evaluated on and adds no note or row
    text = _builtin_text("so3_twisted") + "variant main = rho1 / (omega + 1) : test\n"
    report = optimize(sublap.parse_spec_text(text, {"c": 0.1}), x_points=100)
    assert [e.theorem for e in report.entries] == ["asn"]
    assert report.discrepancies == []
    assert "main-variant" not in report_csv(report)


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_rescaled_and_rotated_copies_keep_the_variant(name):
    base = load_builtin(name)
    rng = np.random.default_rng(7)
    for t in (0.5, 2.0):
        scaled = rescale_vertical(base, t)
        assert scaled.variants == base.variants
        _check_variant(optimize(scaled, x_points=60), name)
        moved = rotate_frame(
            scaled, random_orthogonal(rng, base.dim_h), random_orthogonal(rng, base.dim_v)
        )
        report = optimize(moved, x_points=60)
        _check_variant(report, name)
        assert report_csv(report).splitlines()[-1].startswith(f"{name},sntf-variant,")


@pytest.mark.parametrize(
    "line, message",
    [
        ("variant slope = rho1 / d : some convention", "bad variant line"),
        ("variant sntf = rho1 / (d + kappa) : some convention", "unbound parameter 'kappa'"),
        ("variant sntf = rho1 / (d + : some convention", "cannot parse"),
        ("variant sntf = rho1 / d", "bad variant line"),
        ("variant sntf = rho1 / d :", "bad variant line"),
        ("variant = rho1 / d : some convention", "bad variant line"),
    ],
)
def test_malformed_variant_lines_exit_2(capsys, tmp_path, line, message):
    path = tmp_path / "spec.txt"
    path.write_text(_builtin_text("so4_alt") + line + "\n", encoding="utf-8")
    for argv in (("validate", str(path)), ("bound", str(path), "--x-grid", "20")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert message in lines[0]


def test_a_variant_that_cannot_be_evaluated_exits_3(capsys, tmp_path):
    path = tmp_path / "spec.txt"
    line = "variant sntf = rho1 / (rho2 - rho2) : degenerate on purpose\n"
    path.write_text(_builtin_text("so4_alt") + line, encoding="utf-8")
    code, out, err = run(capsys, "bound", str(path), "--x-grid", "20")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: variant sntf"), err


@pytest.mark.parametrize("command", ["bound", "certify"])
def test_a_variant_with_a_non_real_value_exits_3(capsys, tmp_path, command):
    # the unit sample (1 - 5) ** 0.5 is not real either, and the line is
    # still accepted as well formed
    path = tmp_path / "spec.txt"
    line = "variant sntf = (rho1 - 5) ** 0.5 : complex on purpose\n"
    path.write_text(_builtin_text("so4_alt") + line, encoding="utf-8")
    code, out, err = run(capsys, command, str(path), "--x-grid", "20")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: variant sntf"), err
    assert "non-real value" in lines[0]
