"""Parsing, validation, and frame-level operations on structure constants."""

from __future__ import annotations

import ast
import importlib.resources
import math
from dataclasses import replace

import numpy as np
import pytest

from sublap import (
    HomogeneousSpace,
    SpecFormatError,
    bracket,
    builtin_names,
    lambda1,
    load_builtin,
    load_spec,
    parse_spec_text,
    project_h,
    project_v,
    rescale_vertical,
    validate,
)
from sublap.algebra import eval_coefficient
from sublap.spectral import _model_coeffs

from conftest import SOLVABLE_SPEC, free_step2, moved_frame, nilpotent_spaces, spec_text
from oracles import validate_problems

SO4_ALT = importlib.resources.files("sublap.data").joinpath("so4_alt.txt").read_text()


def test_builtin_names():
    assert builtin_names() == [
        "so3_twisted",
        "so4_alt",
        "so4_twisted",
        "twisted_spheres",
    ]


def test_builtins_validate_clean():
    for name in builtin_names():
        space = load_builtin(name)
        assert validate(space) == []


def test_builtins_validate_clean_at_nonzero_parameters():
    assert validate(load_builtin("so4_twisted", b=0.45)) == []
    assert validate(load_builtin("so3_twisted", c=-0.6)) == []


def test_unknown_builtin():
    with pytest.raises(KeyError):
        load_builtin("so5_twisted")


def test_unknown_override_rejected():
    with pytest.raises(SpecFormatError):
        load_builtin("so4_twisted", q=1.0)


def test_override_changes_structure_constants():
    base = load_builtin("so4_twisted")
    twisted = load_builtin("so4_twisted", b=0.3)
    assert base.params["b"] == 0.0
    assert twisted.params["b"] == 0.3
    assert twisted.c[0, 1, 2] == -0.3
    assert twisted.c[0, 1, 3] == -1.0
    assert base.c[0, 1, 2] == 0.0


def test_dimensions_and_index_ranges():
    space = load_builtin("so4_twisted")
    assert (space.dim_h, space.dim_v, space.dim) == (5, 1, 6)
    e3 = space.basis_vector(2)
    assert e3[2] == 1.0 and np.count_nonzero(e3) == 1


def test_bracket_of_frame_vectors():
    space = load_builtin("so3_twisted", c=0.4)
    e1, e3 = space.basis_vector(0), space.basis_vector(2)
    out = bracket(space, e1, e3)
    assert np.allclose(out, [-0.4, 1.16, 0.0])
    assert np.allclose(bracket(space, e3, e1), -out)


def test_bracket_is_bilinear():
    space = load_builtin("so4_alt")
    rng = np.random.default_rng(3)
    u, v, w = rng.standard_normal((3, space.dim))
    left = bracket(space, u + 2.0 * v, w)
    assert np.allclose(left, bracket(space, u, w) + 2.0 * bracket(space, v, w))


def test_projections_split_the_identity():
    space = load_builtin("twisted_spheres")
    v = np.arange(1.0, 7.0)
    assert np.allclose(project_h(space, v) + project_v(space, v), v)
    assert np.allclose(project_h(space, v)[3:], 0.0)
    assert np.allclose(project_v(space, v)[:3], 0.0)


def test_parse_spec_text_completes_antisymmetrically():
    text = """
    # demo space
    name demo
    dim_h 2
    dim_v 1
    params { a = 0.5 }
    bracket 1 2 = -a 3; a^2 1
    """
    space = parse_spec_text(text)
    assert space.name == "demo"
    assert space.params == {"a": 0.5}
    assert space.c[0, 1, 2] == -0.5
    assert space.c[1, 0, 2] == 0.5
    assert space.c[0, 1, 0] == 0.25
    assert space.c[1, 0, 0] == -0.25


def test_parse_spec_text_skips_empty_bracket_terms():
    space = parse_spec_text(SOLVABLE_SPEC)
    assert np.array_equal(space.c, parse_spec_text(SOLVABLE_SPEC.replace(";", "")).c)
    assert space.c[0, 2, 2] == 1.0 and space.c[2, 0, 2] == -1.0


def test_parse_spec_text_multiline_params_and_overrides():
    text = """
    name demo
    dim_h 2
    dim_v 1
    params {
      a = 1.0
      b = 2.0
    }
    bracket 1 2 = a*b 3
    """
    space = parse_spec_text(text, {"a": 3.0})
    assert space.params == {"a": 3.0, "b": 2.0}
    assert space.c[0, 1, 2] == 6.0


def test_parse_spec_text_rejects_malformed_input():
    good = "name x\ndim_h 2\ndim_v 1\n"
    bad_cases = [
        good + "bracket 2 1 = 1 3",          # indices must be increasing
        good + "bracket 1 2 = 1 9",          # target out of range
        good + "bracket 1 2 = 3",            # term without a coefficient
        good + "bracket 1 = 1 3",            # missing second index
        good + "mystery line",
        good + "params { a = }",
        good + "params { a = 1 } trailing",
        good + "params {",                   # unterminated block
        "bracket 1 2 = 1 3",                 # dimensions never declared
    ]
    for text in bad_cases:
        with pytest.raises(SpecFormatError):
            parse_spec_text(text)


@pytest.mark.parametrize(
    "old, new",
    [
        ("dim_h 3", "dim_hx 3"),
        ("name so4_alt", "names so4_alt"),
        ("bracket 1 2 = -1 5", "bracketing 1 2 = -1 5"),
        ("variant sntf", "variants sntf"),
        ("factor 2 = su2 all", "factors = su2 all"),
        ("cutoff = 40", "cutoffs = 5"),
        ("map 1 =", "mapping 1 ="),
    ],
)
def test_parse_spec_text_matches_whole_keywords(old, new):
    # a keyword that merely starts like a known one is not that keyword
    assert old in SO4_ALT
    with pytest.raises(SpecFormatError, match="^unrecognized (line|oracle entry) "):
        parse_spec_text(SO4_ALT.replace(old, new, 1))


def test_parse_spec_text_blocks_may_open_right_after_the_keyword():
    text = "name x\ndim_h 2\ndim_v 1\nparams{ a = 2 }\nbracket 1 2 = a 3\n"
    assert parse_spec_text(text).params == {"a": 2.0}
    space = parse_spec_text(SO4_ALT.replace("oracle {", "oracle{"))
    assert space.oracle == load_builtin("so4_alt").oracle


def test_oracle_factors_are_indexed_by_their_number():
    # declared out of order, each factor keeps the spin kind of its number
    text = importlib.resources.files("sublap.data").joinpath("twisted_spheres.txt").read_text()
    given = "  factor 1 = su2 all\n  factor 2 = su2 integer\n"
    assert given in text
    swapped = text.replace(given, "  factor 2 = su2 integer\n  factor 1 = su2 all\n")
    assert parse_spec_text(swapped).oracle == load_builtin("twisted_spheres").oracle


def test_parse_spec_text_unknown_override():
    with pytest.raises(SpecFormatError):
        parse_spec_text("name x\ndim_h 2\ndim_v 1\n", {"zz": 1.0})


def test_eval_coefficient():
    assert eval_coefficient("1 + 2*b", {"b": 3.0}) == 7.0
    assert eval_coefficient("b^2", {"b": 3.0}) == 9.0
    assert eval_coefficient("-b", {"b": 3.0}) == -3.0
    assert eval_coefficient("(1 + b) / 2", {"b": 3.0}) == 2.0
    assert eval_coefficient("2**3", {}) == 8.0


def test_eval_coefficient_rejects_everything_else():
    for expr in ("q", "b(1)", "1 if 2 else 3", "import os", "[1]"):
        with pytest.raises(ValueError):
            eval_coefficient(expr, {"b": 1.0})


def _counted_ast_parse(monkeypatch) -> list[str]:
    """Record the text of every `ast.parse` call."""
    calls, inner = [], ast.parse

    def counted(source, *args, **kwargs):
        calls.append(source)
        return inner(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counted)
    return calls


def _outcome(expr: str) -> str:
    """repr of the value of a coefficient, or the type of its error."""
    try:
        return repr(eval_coefficient(expr, {}))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize(
    "text",
    ["0", "-0.0", "+1", ".5", "5.", "00.5", "007e1", "1E-3", "-2.5e+10", "1e400", "1e-400",
     "4.9e-324", "123456789012345678901234567890", "9" * 400],
)
def test_plain_decimals_read_as_the_expression_evaluator_reads_them(text):
    # the parentheses send the same literal through the ast walk
    assert _outcome(text) == _outcome(f"({text})")


@pytest.mark.parametrize(
    "text, want",
    [("inf", "ValueError"), ("nan", "ValueError"), ("1_000", "1000.0"), ("0x10", "16.0"),
     ("007", "ValueError"), ("\u0661\u0662", "ValueError"), ("- 1", "-1.0"), ("1j", "ValueError")],
)
def test_other_literals_go_through_the_expression_evaluator(monkeypatch, text, want):
    calls = _counted_ast_parse(monkeypatch)
    assert _outcome(text) == want
    assert calls == [text]


def test_a_coefficient_nested_too_deeply_is_a_value_error():
    for expr in ("-" * 5000 + "1", "1" + "+1" * 1200):
        with pytest.raises(ValueError, match="nested too deeply"):
            eval_coefficient(expr, {})
        with pytest.raises(SpecFormatError, match="nested too deeply"):
            parse_spec_text(f"dim_h 2\ndim_v 1\nbracket 1 2 = {expr} 3\n")


def test_validate_reports_antisymmetry_violation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = 1.0
    space = HomogeneousSpace("skewed", 2, 1, c)
    problems = validate(space)
    assert any(p.startswith("antisymmetry violated at (1,2,3)") for p in problems)


def test_validate_reports_every_antisymmetry_violation():
    # three skewed pairs, the last of them past the first half of the
    # violating index triples
    base = load_builtin("so4_alt")
    c = base.c.copy()
    for i, j in ((0, 1), (0, 2), (3, 4)):
        c[i, j, 0] += 1e-3
    space = HomogeneousSpace(base.name, base.dim_h, base.dim_v, c)
    skew = [p.split(":")[0] for p in validate(space) if p.startswith("antisymmetry")]
    assert skew == [f"antisymmetry violated at ({i},{j},1)" for i, j in ((1, 2), (1, 3), (4, 5))]


def test_validate_reports_jacobi_violation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
    space = HomogeneousSpace("nonassoc", 2, 1, c)
    problems = validate(space)
    assert any(p.startswith("Jacobi identity violated on (1,2,3)") for p in problems)


def test_a_literal_only_spec_parses_without_the_expression_evaluator(monkeypatch):
    frame = moved_frame(free_step2(5), np.random.default_rng(24))
    text = spec_text(frame)
    calls = _counted_ast_parse(monkeypatch)
    space = parse_spec_text(text)
    assert calls == []
    upper = np.triu_indices(frame.dim, 1)  # 100 nonzero coefficients
    assert np.array_equal(space.c[upper], frame.c[upper])
    assert np.count_nonzero(space.c[upper]) == 100


def test_parameter_expressions_still_go_through_the_expression_evaluator(monkeypatch):
    calls = _counted_ast_parse(monkeypatch)
    load_builtin("so3_twisted")
    assert calls == ["-c", "1 + c**2", "c", "c"]


def test_repeated_bracket_terms_accumulate_in_spec_order():
    space = parse_spec_text(
        "dim_h 2\ndim_v 1\nbracket 1 2 = 0.1 3; 0.2 3\nbracket 1 2 = 0.3 3; -0.0 1\n"
    )
    assert space.c[0, 1, 2] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    assert space.c[1, 0, 2] == ((-0.1) - 0.2) - 0.3
    assert math.copysign(1.0, space.c[0, 1, 0]) == math.copysign(1.0, space.c[1, 0, 0]) == 1.0


def _perturbed_frame(
    base: HomogeneousSpace, seed: int, scale: float, skew: bool
) -> HomogeneousSpace:
    """The base frame with a few constants moved by about `scale`; the partner
    constant c[j, i, k] follows unless `skew`.  A one-vector frame moves c[0, 0, k]."""
    rng = np.random.default_rng([24, seed])
    c = base.c.copy()
    for _ in range(4):
        i, j = sorted(rng.choice(base.dim, size=2, replace=base.dim < 2))
        k = int(rng.integers(base.dim))
        delta = scale * rng.uniform(0.5, 2.0)
        c[i, j, k] += delta
        if not skew:
            c[j, i, k] -= delta
    return HomogeneousSpace(base.name, base.dim_h, base.dim_v, c)


def _step2_lines(space: HomogeneousSpace) -> list[str]:
    """`validate`'s step-2 line, from the rank of the horizontal frame vectors
    and their brackets listed one by one."""
    d, n = space.dim_h, space.dim
    rows = [space.basis_vector(i) for i in range(d)]
    rows += [space.c[i, j] for i in range(d) for j in range(i + 1, d)]
    rank = np.linalg.matrix_rank(np.array(rows), tol=1e-10)
    if rank == n:
        return []
    return [f"step-2 generation fails: span(H + [H,H]) has rank {rank} < {n}"]


def _degenerate_frames() -> list[HomogeneousSpace]:
    """Shapes with no triple i < j < k or no horizontal pair: a point, the
    affine algebra [e1, e2] = e2, and so(3) with one or all three frame vectors
    horizontal."""
    aff = np.zeros((2, 2, 2))
    aff[0, 1, 1], aff[1, 0, 1] = 1.0, -1.0
    so3 = load_builtin("so3_twisted").c
    return [
        HomogeneousSpace("point", 1, 0, np.zeros((1, 1, 1))),
        HomogeneousSpace("aff", 2, 0, aff),
        HomogeneousSpace("so3_d1", 1, 2, so3),
        HomogeneousSpace("so3_v0", 3, 0, so3),
    ]


@pytest.mark.parametrize("skew", [False, True], ids=["jacobi", "skew-and-jacobi"])
@pytest.mark.parametrize("scale", [1e-13, 1e-12, 1e-11, 1e-3, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_validate_locates_every_violation(seed, scale, skew):
    # the free step-2 frames of dimension 6, 10 and 15, then the degenerate shapes
    for r in (3, 4, 5):
        space = _perturbed_frame(free_step2(r), seed, scale, skew)
        problems = validate(space)
        assert problems == validate_problems(space), space.name
        if scale >= 1e-3:
            assert any(p.startswith("Jacobi") for p in problems)
            assert any(p.startswith("antisymmetry") for p in problems) == skew
    for base in _degenerate_frames():
        space = _perturbed_frame(base, seed, scale, skew)
        assert validate(space) == validate_problems(space) + _step2_lines(space), space.name


def _count_tensordot(monkeypatch) -> list[int]:
    """[calls] of np.tensordot from here on."""
    calls, inner = [0], np.tensordot

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(np, "tensordot", counted)
    return calls


def test_validate_clears_a_parsed_frame_without_the_jacobi_tensor(monkeypatch):
    # The invariants-scan bases reach `validate` as the spec text of a moved
    # frame, so their constants are exactly antisymmetric.
    rng = np.random.default_rng(28)
    spaces = [load_builtin(name) for name in builtin_names()]
    spaces += [parse_spec_text(spec_text(moved_frame(s, rng))) for s in nilpotent_spaces()]
    calls = _count_tensordot(monkeypatch)
    for space in spaces:
        assert validate(space) == [], space.name
    assert calls == [0]


def test_validate_scans_the_jacobi_tensor_on_a_violation_or_any_skew(monkeypatch):
    nonassoc = np.zeros((3, 3, 3))
    nonassoc[0, 1, 2], nonassoc[1, 0, 2] = 1.0, -1.0
    nonassoc[1, 2, 1], nonassoc[2, 1, 1] = 1.0, -1.0
    skewed = load_builtin("so4_alt").c.copy()
    skewed[0, 1, 4] += 1e-15  # below the tolerance, so still valid
    calls = _count_tensordot(monkeypatch)
    assert validate(HomogeneousSpace("nonassoc", 2, 1, nonassoc))[0].startswith("Jacobi")
    assert calls == [1]
    assert validate(HomogeneousSpace("skewed", 3, 3, skewed)) == []
    assert calls == [2]


def test_validate_reports_step2_failure():
    space = HomogeneousSpace("flat", 2, 1, np.zeros((3, 3, 3)))
    problems = validate(space)
    assert any("step-2 generation fails" in p for p in problems)


def _step2_failures() -> list[HomogeneousSpace]:
    """Valid Lie algebras whose horizontal brackets miss a vertical direction:
    the abelian algebra, so(3) with one horizontal vector, and the shear of the
    CLI tests at a = 0, the euclidean algebra e(2) with [e1, e2] = 0."""
    shear = np.zeros((3, 3, 3))
    shear[0, 2, 1], shear[2, 0, 1] = -1.0, 1.0
    shear[1, 2, 0], shear[2, 1, 0] = 1.0, -1.0
    return [
        HomogeneousSpace("flat", 2, 1, np.zeros((3, 3, 3))),
        HomogeneousSpace("so3_d1", 1, 2, load_builtin("so3_twisted").c),
        HomogeneousSpace("shear_a0", 2, 1, shear),
    ]


@pytest.mark.parametrize("k", [-40, -34, 40])
def test_step2_generation_does_not_depend_on_scale(k):
    # scaling every constant by s = 2^k gives the same Lie algebra with the
    # metric scaled by 1/s^2, and it scales every product exactly
    for name in builtin_names():
        space = load_builtin(name)
        assert validate(replace(space, c=space.c * 2.0**k)) == [], name
    for space in _step2_failures():
        problems = validate(space)
        assert [p.startswith("step-2 generation fails") for p in problems] == [True]
        assert validate(replace(space, c=space.c * 2.0**k)) == problems, space.name


def test_validate_reports_shape_mismatch():
    space = HomogeneousSpace("short", 2, 1, np.zeros((2, 2, 2)))
    problems = validate(space)
    assert len(problems) == 1 and "shape" in problems[0]


def test_rescale_vertical_scales_blocks():
    space = load_builtin("so4_alt")
    scaled = rescale_vertical(space, 4.0)
    # horizontal-horizontal into vertical picks up a factor sqrt(t)
    assert scaled.c[0, 1, 4] == -2.0
    # horizontal-vertical into horizontal loses a factor sqrt(t)
    assert scaled.c[0, 4, 1] == 0.5
    # vertical-vertical into vertical loses a factor sqrt(t)
    assert scaled.c[3, 4, 5] == -0.5
    assert validate(scaled) == []
    assert scaled.params == space.params
    # the spectral model rescales with the frame and keeps the spectrum
    _model_coeffs(scaled)  # raises unless the map is still a homomorphism
    before, after = lambda1(space), lambda1(scaled)
    assert abs(after.lambda1 - before.lambda1) <= 1e-12 * before.lambda1
    assert after.tail_note == before.tail_note


def test_spaces_compare_and_hash_by_identity():
    a, b = load_builtin("so4_alt"), load_builtin("so4_alt")
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_space_constants_are_a_read_only_copy():
    c = load_builtin("so4_alt").c.copy()
    space = HomogeneousSpace("copy", 3, 3, c)
    with pytest.raises(ValueError):
        space.c[0, 1, 4] = 0.0
    with pytest.raises(ValueError):
        load_builtin("so4_alt").c[0, 1, 4] = 0.0
    c[0, 1, 4] = 0.0  # the caller's array stays writeable and apart
    assert space.c[0, 1, 4] == -1.0


def test_rescale_vertical_requires_positive_factor():
    space = load_builtin("so4_alt")
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            rescale_vertical(space, t)


def test_rescale_vertical_rejects_a_non_finite_factor():
    space = load_builtin("so4_alt")
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            rescale_vertical(space, t)


def test_validate_reports_non_finite_structure_constants():
    # one problem line, before any check that would run numpy on the entries
    for bad in (math.nan, math.inf):
        c = load_builtin("so4_alt").c.copy()
        c[0, 1, 4], c[1, 0, 4] = bad, -bad
        space = HomogeneousSpace("broken", 3, 3, c)
        assert validate(space) == ["structure constants are not all finite"]


def test_load_spec_from_file(tmp_path):
    path = tmp_path / "demo.txt"
    path.write_text(
        "name filespace\ndim_h 2\ndim_v 1\nbracket 1 2 = -1 3  # comment\n",
        encoding="utf-8",
    )
    space = load_spec(str(path))
    assert space.name == "filespace"
    assert space.c[0, 1, 2] == -1.0


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_spec(str(tmp_path / "absent.txt"))
