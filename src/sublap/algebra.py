"""Step-2 sub-Riemannian homogeneous spaces given by structure constants.

A space is presented by an adapted orthonormal frame e_1..e_{d+m}: the first d
vectors span the horizontal distribution, the rest span the vertical complement,
and the Lie brackets are [e_i, e_j] = sum_k c[i][j][k] e_k with constant c.
All geometry downstream (connection, curvature, bounds) is finite-dimensional
linear algebra on the array c.
"""

from __future__ import annotations

import ast
import functools
import importlib.resources
import itertools
import math
import operator
import re
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "OracleFactor",
    "OracleConfig",
    "HomogeneousSpace",
    "bracket",
    "project_h",
    "project_v",
    "validate",
    "rescale_vertical",
    "SpecFormatError",
    "parse_spec_text",
    "load_spec",
    "builtin_names",
    "load_builtin",
]

ZERO_TOL = 1e-12
COEFF_LIMIT = 1e50

# Each builtin is the spec file data/<name>.txt.
_BUILTINS = ("so3_twisted", "so4_alt", "so4_twisted", "twisted_spheres")
# The keyword of a spec line or block entry: its first word, ended by a blank, '=' or '{'.
_KEYWORD = re.compile(r"[^\s={]*")
# A plain decimal literal, which `float` reads to the double `ast` gives: an
# optional sign, digits with an optional fraction and an optional exponent;
# a bare integer has no leading zero, since Python rejects one ("007").
_DECIMAL = re.compile(
    r"[+-]?(?:0|[1-9][0-9]*|(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)"
)
_ECHO = 40  # characters of a long coefficient that an error message repeats


def _shown(expr: str) -> str:
    """expr quoted for a one-line message: a long one is cut to its first
    _ECHO characters, followed by its length."""
    if len(expr) <= _ECHO:
        return repr(expr)
    return f"{expr[:_ECHO]!r}... ({len(expr)} characters)"


@dataclass(frozen=True)
class OracleFactor:
    """One su(2) slot of a spectral oracle: generators g1,g2,g3 with [g1,g2]=g3 cyclic."""

    spins: str  # "all" (half-integers, group-regular SU(2)/S^3) or "integer" (SO(3)/S^2)


@dataclass(frozen=True)
class OracleConfig:
    factors: tuple[OracleFactor, ...]
    # frame_map[i][f] is the length-3 coefficient vector of e_{i+1} in factor f.
    frame_map: tuple[tuple[tuple[float, float, float], ...], ...]
    cutoff: float = 40.0
    integer_sum: bool = False


# The theorems a `variant` line may name, and the names its formula may read:
# d and the values of that theorem's reported entry.
VARIANT_THEOREMS = ("main", "t1zero", "asn", "sntf")
VARIANT_NAMES = ("d", "rho1", "rho2", "omega")


@dataclass(frozen=True, eq=False)
class HomogeneousSpace:
    """Structure constants of a homogeneous space in an adapted orthonormal frame.

    Immutable: ``c`` is a read-only float copy of the caller's array.  Spaces
    compare by identity; `rescale_vertical` and `dataclasses.replace` make new ones.
    """

    name: str
    dim_h: int
    dim_v: int
    c: np.ndarray = field(repr=False)
    params: dict[str, float] = field(default_factory=dict)
    oracle: OracleConfig | None = field(default=None, repr=False)
    # (theorem, formula, convention) of each `variant` line of the spec
    variants: tuple[tuple[str, str, str], ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        c = np.array(self.c, dtype=float)
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.dim_h + self.dim_v

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim)
        v[i] = 1.0
        return v


def bracket(space: HomogeneousSpace, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Lie bracket of two coefficient vectors."""
    return np.einsum("i,j,ijk->k", u, v, space.c)


def project_h(space: HomogeneousSpace, v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    out[: space.dim_h] = v[: space.dim_h]
    return out


def project_v(space: HomogeneousSpace, v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    out[space.dim_h :] = v[space.dim_h :]
    return out


@functools.lru_cache(maxsize=32)
def _pair_rows(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Rows of c.reshape(n * n, n) at the pairs i < j and at i < j < d; then the
    pair-product rows (i, j)·n + k, (j, k)·n + i, (i, k)·n + j of each i < j < k."""
    iu, ju = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[iu, ju] = np.arange(iu.size) * n
    i, j, k = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    flat = iu * n + ju
    return flat, flat[ju < d], np.stack((pair[i, j] + k, pair[j, k] + i, pair[i, k] + j))


def validate(space: HomogeneousSpace) -> list[str]:
    """Check the structural invariants; returns human-readable violations (empty if valid).

    Checks antisymmetry of c, the Jacobi identity, and step-2 bracket generation
    (horizontal frame plus first brackets spans everything). Indices in messages
    are 1-based to match the spec-file syntax. A structure array of the wrong
    shape, or with a non-finite entry, is reported alone.
    """
    problems: list[str] = []
    n = space.dim
    c = space.c
    if c.shape != (n, n, n):
        return [
            f"structure array has shape {c.shape}, expected {(n, n, n)} "
            f"from dim_h={space.dim_h}, dim_v={space.dim_v}"
        ]
    if not np.isfinite(c).all():
        return ["structure constants are not all finite"]

    skew = c + c.transpose(1, 0, 2)
    suspect = skew.any()
    bad = np.argwhere(np.abs(skew) > ZERO_TOL) if suspect else np.empty((0, 3), int)
    for i, j, k in bad[bad[:, 0] <= bad[:, 1]]:
        problems.append(
            f"antisymmetry violated at ({i + 1},{j + 1},{k + 1}): "
            f"c[{i + 1}][{j + 1}][{k + 1}] + c[{j + 1}][{i + 1}][{k + 1}] = {skew[i, j, k]:.3e}"
        )

    # An exactly antisymmetric c has a totally antisymmetric Jacobiator, so its
    # triples i < j < k decide it; any other c, or a failing triple, takes the n^4 scan.
    d = space.dim_h
    pairs, horizontal, rows = _pair_rows(n, d)
    if not suspect:
        pc = c.reshape(n * n, n).take(pairs, axis=0) @ c.reshape(n, n * n)
        t = pc.reshape(pairs.size * n, n).take(rows, axis=0)
        suspect = (np.abs(t[0] + t[1] - t[2]) > ZERO_TOL).any()
    if suspect:
        # jac[i,j,k,:] = [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
        comp = np.tensordot(c, c, axes=(2, 0))  # comp[i,j,k,m] = sum_l c[i,j,l] c[l,k,m]
        jac = comp + comp.transpose(1, 2, 0, 3) + comp.transpose(2, 0, 1, 3)
        # One test clears a valid space.  Past it, the per-triple scan reports each
        # (i, j, k) row whose maximum exceeds the tolerance (a NaN maximum does not).
        defects = np.abs(jac)
        bad = np.argwhere(defects.max(axis=3) > ZERO_TOL) if (defects > ZERO_TOL).any() else []
        seen = set()
        for i, j, k in bad:
            key = tuple(sorted((int(i), int(j), int(k))))
            if key in seen:
                continue
            seen.add(key)
            defect = float(defects[i, j, k].max())
            problems.append(
                f"Jacobi identity violated on ({key[0] + 1},{key[1] + 1},{key[2] + 1}): "
                f"max defect {defect:.3e}"
            )

    # H adds exactly d to the rank, and [H, H] the rank of its vertical part at its own scale.
    block = c.reshape(n * n, n).take(horizontal, axis=0)[:, d:]
    rank = d + np.linalg.matrix_rank(block, tol=1e-10 * np.abs(block).max(initial=0.0))
    if rank < n:
        problems.append(
            f"step-2 generation fails: span(H + [H,H]) has rank {rank} < {n}"
        )
    return problems


def rescale_vertical(space: HomogeneousSpace, t: float) -> HomogeneousSpace:
    """Rescale the vertical metric by t (replace each vertical frame vector U by U/sqrt(t)).

    In the rescaled orthonormal frame the structure constants become
    c'[i][j][k] = c[i][j][k] * f_i * f_j / f_k with f = 1 on H and 1/sqrt(t) on V.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"rescale factor must be positive and finite, got {t}")
    f = np.ones(space.dim)
    f[space.dim_h :] = scale = 1.0 / math.sqrt(t)
    c = space.c * f[:, None, None] * f[None, :, None] / f[None, None, :]
    oracle = space.oracle
    if oracle is not None:  # the image of U / sqrt(t) is U's image over sqrt(t)
        rows = [tuple(tuple(v * scale for v in g) for g in row) for row in oracle.frame_map]
        frame_map = tuple(oracle.frame_map[: space.dim_h]) + tuple(rows[space.dim_h :])
        oracle = replace(oracle, frame_map=frame_map)
    return replace(space, c=c, params=dict(space.params), oracle=oracle)


_ALLOWED_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def eval_coefficient(expr: str, params: dict[str, float]) -> float:
    """Evaluate an arithmetic coefficient expression over named parameters.

    Supports numbers, parameter names, + - * / ** and parentheses; '^' is accepted
    as a power alias. Anything else is rejected. A division by zero, an overflow
    or a non-real value (a negative base to a fractional power) raises
    ArithmeticError.
    """
    text = expr.strip().replace("^", "**")
    # An integer past the float range reads inf here but overflows in the walk.
    if _DECIMAL.fullmatch(text) and math.isfinite(val := float(text)):
        return val

    def walk(node: ast.AST) -> float:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id not in params:
                raise ValueError(f"unbound parameter {node.id!r} in {_shown(expr)}")
            return float(params[node.id])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            val = walk(node.operand)
            return val if isinstance(node.op, ast.UAdd) else -val
        if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
            return _ALLOWED_BINOPS[type(node.op)](walk(node.left), walk(node.right))
        raise ValueError(f"unsupported syntax in coefficient {_shown(expr)}")

    try:
        val = walk(ast.parse(text, mode="eval"))
    except SyntaxError as exc:
        raise ValueError(f"cannot parse coefficient {_shown(expr)}: {exc}") from None
    except RecursionError:
        raise ValueError(f"cannot parse coefficient {_shown(expr)}: nested too deeply") from None
    if isinstance(val, complex):
        raise ArithmeticError(f"non-real value {val}")
    return val


class SpecFormatError(ValueError):
    """Raised when a spec file cannot be parsed."""


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_spec_text(
    text: str, overrides: dict[str, float] | None = None
) -> HomogeneousSpace:
    """Parse the structured-text spec format.

    Layout::

        name so3_twisted
        dim_h 2
        dim_v 1
        params { c = 0 }
        bracket 1 2 = -1 3
        bracket 1 3 = -c 1; 1 + c**2 2
        oracle { ... }
        variant sntf = rho1 / (d / (d - 1) + 0.75 * omega) : denominator uses d/(d-1)

    Only i < j bracket lines are allowed; antisymmetric completion is automatic and
    unlisted brackets are zero. Each bracket term is an arithmetic expression over
    the params followed by the 1-based target index.  A variant line names a
    theorem, a formula over `VARIANT_NAMES` and, after the colon, its convention.
    """
    name = ""
    dim_h = dim_v = -1
    params: dict[str, float] = {}
    bracket_lines: list[tuple[int, int, str]] = []
    oracle_lines: list[str] = []
    variants: list[tuple[str, str, str]] = []

    lines = text.splitlines()
    pos = 0
    while pos < len(lines):
        line = _strip_comment(lines[pos]).strip()
        pos += 1
        if not line:
            continue
        word = _KEYWORD.match(line).group()
        if word == "name":
            name = line[len("name") :].strip()
            if "," in name or '"' in name:  # the name is a CSV cell, written unquoted
                raise SpecFormatError(f"bad name line {_shown(line)}; a name has no ',' or '\"'")
        elif word == "dim_h":
            dim_h = _int_field(line)
        elif word == "dim_v":
            dim_v = _int_field(line)
        elif word == "params":
            body, pos = _read_block(line[len("params") :], lines, pos)
            for entry in body:
                if "=" not in entry:
                    raise SpecFormatError(f"bad params entry {entry!r}")
                key, _, val = entry.partition("=")
                try:
                    params[key.strip()] = float(val)
                except ValueError as exc:
                    raise SpecFormatError(f"bad params entry {entry!r}") from exc
        elif word == "oracle":
            oracle_lines, pos = _read_block(line[len("oracle") :], lines, pos)
        elif word == "bracket":
            head, _, rhs = line.partition("=")
            parts = head.split()
            if len(parts) != 3 or not rhs:
                raise SpecFormatError(f"bad bracket line {line!r}")
            i, j = _index(parts[1], line), _index(parts[2], line)
            if not i < j:
                raise SpecFormatError(
                    f"bracket indices must satisfy i < j, got {i} {j}"
                )
            bracket_lines.append((i, j, rhs))
        elif word == "variant":
            variants.append(_variant(line))
        else:
            raise SpecFormatError(f"unrecognized line {line!r}")

    if dim_h < 1 or dim_v < 0:
        raise SpecFormatError("dim_h and dim_v must both be declared")
    if overrides:
        unknown = set(overrides) - set(params)
        if unknown:
            raise SpecFormatError(
                f"unknown parameter override(s): {', '.join(sorted(unknown))}"
            )
        params.update(overrides)

    n = dim_h + dim_v
    terms: list[tuple[int, int, int, float]] = []  # (i, j, k, value), 0-based
    for i, j, rhs in bracket_lines:
        if not (1 <= i <= n and 1 <= j <= n):
            raise SpecFormatError(f"bracket index out of range in 'bracket {i} {j}'")
        for term in rhs.split(";"):
            term = term.strip()
            if not term:
                continue
            expr, _, target = term.rpartition(" ")
            if not expr:
                raise SpecFormatError(f"bad bracket term {term!r}")
            k = _index(target, term)
            if not 1 <= k <= n:
                raise SpecFormatError(f"bracket target {k} out of range")
            terms.append((i - 1, j - 1, k - 1, _coeff(expr, params)))
    # Each scatter accumulates in term order; i < j, so the two never share a slot.
    c = np.zeros((n, n, n))
    if terms:
        i, j, k, vals = (np.array(col) for col in zip(*terms))
        np.add.at(c, (i, j, k), vals)
        np.subtract.at(c, (j, i, k), vals)

    oracle = _parse_oracle(oracle_lines, params, n) if oracle_lines else None
    return HomogeneousSpace(
        name=name or "unnamed",
        dim_h=dim_h,
        dim_v=dim_v,
        c=c,
        params=params,
        oracle=oracle,
        variants=tuple(variants),
    )


def _variant(line: str) -> tuple[str, str, str]:
    """(theorem, formula, convention) of a `variant` line; the formula is
    tried at unit values, so bad syntax and unknown names fail here."""
    head, _, rhs = line.partition("=")
    parts = head.split()
    formula, _, convention = (s.strip() for s in rhs.partition(":"))
    if len(parts) != 2 or parts[1] not in VARIANT_THEOREMS or not (formula and convention):
        raise SpecFormatError(
            f"bad variant line {_shown(line)}; expected 'variant THEOREM = FORMULA : CONVENTION' "
            f"with THEOREM one of {', '.join(VARIANT_THEOREMS)}"
        )
    try:
        eval_coefficient(formula, dict.fromkeys(VARIANT_NAMES, 1.0))
    except ValueError as exc:
        raise SpecFormatError(f"bad variant formula: {exc}") from exc
    except ArithmeticError:
        pass  # well formed; only the unit sample values fail
    return parts[1], formula, convention


def _read_block(rest: str, lines: list[str], pos: int) -> tuple[list[str], int]:
    """Collect the entries of a `{ ... }` block starting on the current line."""
    rest = rest.strip()
    if not rest.startswith("{"):
        raise SpecFormatError("expected '{' to open a block")
    buf = rest[1:]
    entries: list[str] = []
    while True:
        done = False
        if "}" in buf:
            buf, _, tail = buf.partition("}")
            if tail.strip():
                raise SpecFormatError(f"trailing text after block: {_shown(tail)}")
            done = True
        chunk = buf.strip()
        if chunk:
            entries.extend(s.strip() for s in chunk.splitlines() if s.strip())
        if done:
            return entries, pos
        if pos >= len(lines):
            raise SpecFormatError("unterminated block")
        buf = _strip_comment(lines[pos])
        pos += 1


def _int_field(line: str) -> int:
    """The integer value of a `key N` header line."""
    fields = line.split()
    if len(fields) != 2:
        raise SpecFormatError(f"bad dimension line {_shown(line)}")
    try:
        return int(fields[1])
    except ValueError as exc:
        raise SpecFormatError(f"bad dimension line {_shown(line)}") from exc


def _index(token: str, context: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise SpecFormatError(f"bad index {token!r} in {context!r}") from exc


def _coeff(expr: str, params: dict[str, float]) -> float:
    """Evaluate a spec coefficient, rejecting non-finite and huge values: the
    bounds multiply up to six structure constants, which must stay finite."""
    try:
        val = eval_coefficient(expr, params)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc
    except ArithmeticError as exc:
        raise SpecFormatError(f"cannot evaluate coefficient {_shown(expr)}: {exc}") from exc
    if not abs(val) <= COEFF_LIMIT:
        raise SpecFormatError(
            f"coefficient {_shown(expr)} evaluates to {val!r}; "
            f"it must be finite and at most {COEFF_LIMIT:g} in magnitude"
        )
    return val


def _parse_oracle(
    entries: list[str], params: dict[str, float], n: int
) -> OracleConfig:
    factors: dict[int, OracleFactor] = {}
    options: dict[str, float | bool] = {}  # cutoff and integer_sum, where set
    raw_maps: dict[int, list[tuple[float, int, int]]] = {}

    for entry in entries:
        word = _KEYWORD.match(entry).group()
        if word == "factor":
            head, _, rhs = entry.partition("=")
            fields, kind = head.split(), rhs.split()
            if len(fields) != 2 or kind not in (["su2", "all"], ["su2", "integer"]):
                raise SpecFormatError(f"bad oracle factor {entry!r}")
            idx = _index(fields[1], entry)
            if idx in factors:
                raise SpecFormatError(f"duplicate oracle factor {idx}")
            factors[idx] = OracleFactor(spins=kind[1])
        elif word == "cutoff":
            value = entry.partition("=")[2].strip()
            try:
                options["cutoff"] = float(value)
            except ValueError:
                options["cutoff"] = math.nan
            if not 0.0 < options["cutoff"] < math.inf:
                raise SpecFormatError(f"bad oracle cutoff {value!r}")
        elif word == "constraint":
            value = entry.partition("=")[2].strip()
            if value != "integer_sum":
                raise SpecFormatError(f"unknown oracle constraint {value!r}")
            options["integer_sum"] = True
        elif word == "map":
            head, _, rhs = entry.partition("=")
            fields = head.split()
            if len(fields) != 2:
                raise SpecFormatError(f"bad oracle map head {head.strip()!r}")
            idx = _index(fields[1], entry)
            if idx in raw_maps:
                raise SpecFormatError(f"duplicate oracle map {idx}")
            terms: list[tuple[float, int, int]] = []
            for term in rhs.split(";"):
                term = term.strip()
                expr, _, gen = term.rpartition(" ")
                if not gen.startswith("f") or "." not in gen:
                    raise SpecFormatError(f"bad oracle map term {term!r}")
                fpart, _, apart = gen[1:].partition(".")
                coeff = _coeff(expr, params)
                terms.append((coeff, _index(fpart, term) - 1, _index(apart, term) - 1))
            raw_maps[idx] = terms
        else:
            raise SpecFormatError(f"unrecognized oracle entry {entry!r}")

    if not factors:
        raise SpecFormatError("oracle block declares no factors")
    if sorted(factors) != list(range(1, len(factors) + 1)):
        raise SpecFormatError(
            f"oracle factors must be numbered 1 to {len(factors)}, got {sorted(factors)}"
        )
    if set(raw_maps) != set(range(1, n + 1)):
        raise SpecFormatError("oracle map must cover every frame vector exactly once")

    frame_map = []
    for i in range(1, n + 1):
        rows = [[0.0, 0.0, 0.0] for _ in factors]
        for coeff, f, a in raw_maps[i]:
            if not (0 <= f < len(factors) and 0 <= a < 3):
                raise SpecFormatError(f"oracle map index out of range in 'map {i}'")
            rows[f][a] += coeff
        frame_map.append(tuple(tuple(r) for r in rows))
    return OracleConfig(
        factors=tuple(f for _, f in sorted(factors.items())),
        frame_map=tuple(frame_map),
        **options,
    )


def load_spec(path: str, overrides: dict[str, float] | None = None) -> HomogeneousSpace:
    with open(path, encoding="utf-8") as fh:
        return parse_spec_text(fh.read(), overrides)


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def load_builtin(name: str, **params: float) -> HomogeneousSpace:
    """Load a built-in example by name, optionally binding its parameters."""
    if name not in _BUILTINS:
        raise KeyError(
            f"unknown builtin {name!r}; available: {', '.join(builtin_names())}"
        )
    text = (
        importlib.resources.files("sublap.data")
        .joinpath(f"{name}.txt")
        .read_text(encoding="utf-8")
    )
    return parse_spec_text(text, params or None)
