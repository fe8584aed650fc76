"""Command line interface.

Subcommands: validate, classify, analyze, bound, certify, report.  Every
command is deterministic: the same invocation on the same input produces
byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .algebra import (
    HomogeneousSpace,
    SpecFormatError,
    builtin_names,
    load_builtin,
    load_spec,
    validate,
)
from .bounds import CSV_COLUMNS, _largest_psd_x, invariants, optimize
from .bounds import report_csv, report_text
from .connection import canonical_connection
from .curvature import StructureFlags, classify
from .spectral import certify

_EPILOG = """\
CSV columns for bound reports (bound --format csv, report):
  example  spec name
  theorem  bound identifier (main, t1zero, asn, sntf, *-variant)
  bound    eigenvalue lower bound
  x        optimizing curvature parameter in [0, 1)
  rho1     horizontal curvature constant at the optimum
  rho2     vertical curvature constant at the optimum
  omega    kappa / rho2
  chi      rho2 * sup T2 (clamped at 0)
  psi      rho2 * sigma^2
  m        torsion penalty inf_s (s*omega + chi/s + psi/s^2)
report prepends the swept parameter value to each row and appends
x_frontier, the largest x in [0, 1] with Q(x) positive semidefinite at that
value (empty when no x qualifies).
"""

_EXIT_BAD_SPEC = 2
_EXIT_INVALID = 3
_EXIT_CERTIFY = 4


def _parse_params(pairs: list[str] | None) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in pairs or []:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise SpecFormatError(f"--param expects name=value, got {item!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise SpecFormatError(f"--param {name}: {value!r} is not a number") from exc
    return out


def _load(spec: str, params: dict[str, float]) -> HomogeneousSpace:
    if spec in builtin_names():
        return load_builtin(spec, **params)
    path = Path(spec)
    if not path.exists():
        raise SpecFormatError(f"{spec!r} is neither a builtin name nor a file")
    return load_spec(path, params)


def _fmt(v: float) -> str:
    return format(v, ".12g")


def _cmd_validate(args) -> int:
    space = _load(args.spec, _parse_params(args.param))
    problems = validate(space)
    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return _EXIT_INVALID
    print(f"{space.name}: ok (dim_h={space.dim_h}, dim_v={space.dim_v})")
    return 0


_FLAG_ORDER = tuple(f.name for f in dataclasses.fields(StructureFlags))


def _checked_space(args) -> HomogeneousSpace | int:
    space = _load(args.spec, _parse_params(args.param))
    problems = validate(space)
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return _EXIT_INVALID
    return space


def _cmd_classify(args) -> int:
    space = _checked_space(args)
    if isinstance(space, int):
        return space
    flags = classify(canonical_connection(space))
    print(f"example = {space.name}")
    for name in _FLAG_ORDER:
        print(f"{name} = {'yes' if getattr(flags, name) else 'no'}")
    return 0


def _analysis_rows(space: HomogeneousSpace) -> list[tuple[str, str]]:
    inv = invariants(space)
    d = space.dim_h
    rows: list[tuple[str, str]] = [("example", space.name)]
    rows += [(name, "yes" if getattr(inv.flags, name) else "no") for name in _FLAG_ORDER]
    rows.append(("kappa", _fmt(inv.kappa)))
    rows.append(("sigma", _fmt(inv.sigma)))
    rows.append(("sup_t2", _fmt(inv.sup_t2)))

    def matrix_rows(tag: str, mat: np.ndarray) -> None:
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                if mat[i, j] != 0.0:
                    rows.append((f"{tag}[{i + 1}][{j + 1}]", _fmt(float(mat[i, j]))))

    matrix_rows("sub_ricci", inv.src[:d, :d])
    matrix_rows("gram_tau_h", inv.grams.tau_h)
    matrix_rows("t1", inv.dist.t1)
    matrix_rows("t2", inv.dist.t2)
    for i in range(space.dim):
        if inv.rig[i] != 0.0:
            rows.append((f"rigidity[{i + 1}]", _fmt(float(inv.rig[i]))))
    return rows


def _cmd_analyze(args) -> int:
    space = _checked_space(args)
    if isinstance(space, int):
        return space
    rows = _analysis_rows(space)
    if args.format == "csv":
        print("key,value")
        for key, value in rows:
            print(f"{key},{value}")
    else:
        for key, value in rows:
            print(f"{key} = {value}")
    return 0


def _grids(args) -> dict[str, int]:
    """The optimize grid sizes from --x-grid and --rho2-grid, each at least 1."""
    for flag, value in (("--x-grid", args.x_grid), ("--rho2-grid", args.rho2_grid)):
        if value < 1:
            raise SpecFormatError(f"{flag} must be at least 1, got {value}")
    return {"x_points": args.x_grid, "rho2_per_decade": args.rho2_grid}


def _cmd_bound(args) -> int:
    grids = _grids(args)
    space = _checked_space(args)
    if isinstance(space, int):
        return space
    report = optimize(space, **grids)
    text = report_csv(report) if args.format == "csv" else report_text(report)
    print(text, end="")
    return 0


def _cmd_certify(args) -> int:
    grids = _grids(args)
    if args.cutoff is not None and not 0.0 < args.cutoff < math.inf:
        raise SpecFormatError(
            f"--cutoff must be a positive finite number, got {args.cutoff}"
        )
    space = _checked_space(args)
    if isinstance(space, int):
        return space
    if space.oracle is None:
        print(
            f"{space.name}: certification needs a spectral model "
            "(oracle block with a frame map)",
            file=sys.stderr,
        )
        return _EXIT_BAD_SPEC
    report = optimize(space, **grids)
    result = certify(space, report, cutoff=args.cutoff)
    print(f"example = {space.name}")
    print(f"lambda1 = {_fmt(result.lambda1)} at irrep {result.witness}")
    print(f"tail = {result.tail_note}")
    for entry in result.entries:
        status = "PASS" if entry.passed else "FAIL"
        print(f"{entry.theorem}: bound {_fmt(entry.bound)} -> {status}")
    if not result.all_passed:
        return _EXIT_CERTIFY
    return 0


def _parse_sweep(text: str) -> tuple[str, np.ndarray]:
    name, sep, rng = text.partition("=")
    name = name.strip()
    parts = rng.split(":")
    if not sep or not name or len(parts) != 3:
        raise SpecFormatError(
            f"--sweep expects name=start:stop:count, got {text!r}"
        )
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SpecFormatError(
            f"--sweep expects numbers start:stop and an integer count, got {rng!r}"
        ) from exc
    if count < 1:
        raise SpecFormatError("--sweep count must be at least 1")
    return name, np.linspace(lo, hi, count)


def _cmd_report(args) -> int:
    grids = _grids(args)
    params = _parse_params(args.param)
    name, values = _parse_sweep(args.sweep)
    spaces = [_load(args.spec, {**params, name: float(v)}) for v in values]
    for value, space in zip(values, spaces):
        problems = validate(space)
        if problems:
            for p in problems:
                print(f"invalid at {name}={_fmt(float(value))}: {p}", file=sys.stderr)
            return _EXIT_INVALID
    print(",".join([name, *CSV_COLUMNS, "x_frontier"]))
    for value, space in zip(values, spaces):
        report = optimize(space, **grids)
        frontier = _largest_psd_x(invariants(space))
        suffix = "," if frontier is None else f",{_fmt(frontier)}"
        rows = report_csv(report, header=False).splitlines()
        if not report.entries:
            rows = [f"{space.name},none" + "," * (len(CSV_COLUMNS) - 2)]
        for row in rows:
            print(f"{_fmt(float(value))},{row}{suffix}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("spec", help="builtin example name or path to a spec file")
    sub.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="override a spec parameter (repeatable)",
    )


def _add_grids(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--x-grid", type=int, default=2000, metavar="N", help="x grid points"
    )
    sub.add_argument(
        "--rho2-grid",
        type=int,
        default=200,
        metavar="N",
        help="rho2 grid points per decade",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublap",
        description="Spectral gap bounds for step-2 sub-Riemannian "
        "homogeneous spaces.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("validate", help="check the structure constants")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = commands.add_parser("classify", help="print the structure flags")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = commands.add_parser("analyze", help="print curvature and torsion data")
    _add_common(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_analyze)

    p = commands.add_parser("bound", help="optimize the eigenvalue bounds")
    _add_common(p)
    _add_grids(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_bound)

    p = commands.add_parser(
        "certify", help="compare the bounds against the exact spectrum"
    )
    _add_common(p)
    _add_grids(p)
    p.add_argument(
        "--cutoff", type=float, default=None, metavar="R", help="Casimir cutoff"
    )
    p.set_defaults(func=_cmd_certify)

    p = commands.add_parser(
        "report", help="sweep a parameter and emit bound-vs-parameter CSV"
    )
    _add_common(p)
    _add_grids(p)
    p.add_argument(
        "--sweep",
        required=True,
        metavar="NAME=START:STOP:COUNT",
        help="parameter range to sweep",
    )
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecFormatError, FileNotFoundError) as exc:  # before its base ValueError
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_SPEC
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
