"""MPS reading and conversion to standard equality form.

Accepts the classical sections NAME / ROWS / COLUMNS / RHS / BOUNDS / ENDATA
in either fixed or whitespace-delimited layout. Deliberately strict about
everything else: RANGES, integrality markers, any bound but the redundant
LO 0 and PL, and a second RHS entry for a row are rejected while the file
is read, each with its line, rather than silently mangled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MpsParseError, UnsupportedMpsFeatureError
from .model import StandardLp

_ROW_KINDS = {"N": "objective", "E": "eq", "L": "le", "G": "ge"}

# bound kinds that carry no numeric field
_VALUELESS_BOUNDS = {"FR", "MI", "PL", "BV"}
_VALUED_BOUNDS = {"UP", "LO", "FX", "UI", "LI"}


@dataclass
class MpsProblem:
    """Parsed MPS content, order-preserving and otherwise uninterpreted."""

    name: str = ""
    row_kinds: list[tuple[str, str]] = field(default_factory=list)  # (kind, row)
    columns: list[tuple[str, str, float]] = field(default_factory=list)
    rhs: list[tuple[str, float]] = field(default_factory=list)

    def objective_row(self) -> str:
        for kind, row in self.row_kinds:
            if kind == "objective":
                return row
        raise MpsParseError("no objective row present")

    def column_names(self) -> list[str]:
        seen: dict[str, None] = {}
        for col, _, _ in self.columns:
            seen.setdefault(col)
        return list(seen)


def _parse_number(token: str, lineno: int) -> float:
    try:
        value = float(token.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise MpsParseError(f"bad numeric field {token!r}", line=lineno) from None
    if not math.isfinite(value):
        raise MpsParseError(f"non-finite numeric field {token!r}", line=lineno)
    return value


def parse_mps(text) -> MpsProblem:
    """Parse MPS text (str, bytes or a file-like object)."""
    if hasattr(text, "read"):
        text = text.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MpsParseError(f"input is not UTF-8: {exc}") from None

    prob = MpsProblem()
    row_kind_of: dict[str, str] = {}
    seen_cols: dict[str, None] = {}
    seen_pairs: set[tuple[str, str]] = set()
    rhs_rows: set[str] = set()
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        tokens = raw.split()
        if raw[0] not in " \t":
            head = tokens[0].upper()
            if head == "NAME":
                prob.name = tokens[1] if len(tokens) > 1 else ""
            elif head in ("ROWS", "COLUMNS", "RHS", "BOUNDS"):
                section = head
            elif head == "RANGES":
                raise UnsupportedMpsFeatureError(
                    "RANGES sections are not supported", line=lineno
                )
            elif head == "ENDATA":
                section = None
                break
            else:
                raise MpsParseError(f"unknown section {tokens[0]!r}", line=lineno)
            continue

        if section == "ROWS":
            if len(tokens) != 2:
                raise MpsParseError("ROWS lines need a kind and a row name", line=lineno)
            letter, row = tokens[0].upper(), tokens[1]
            if letter not in _ROW_KINDS:
                raise MpsParseError(f"unknown row kind {tokens[0]!r}", line=lineno)
            if row in row_kind_of:
                raise MpsParseError(f"row {row!r} declared twice", line=lineno)
            kind = _ROW_KINDS[letter]
            if kind == "objective" and any(k == "objective" for k, _ in prob.row_kinds):
                raise MpsParseError("more than one objective row", line=lineno)
            row_kind_of[row] = kind
            prob.row_kinds.append((kind, row))
        elif section == "COLUMNS":
            if "'" in raw and any(t.upper() == "'MARKER'" for t in tokens):
                raise UnsupportedMpsFeatureError(
                    "integrality markers are not supported", line=lineno
                )
            if len(tokens) not in (3, 5):
                raise MpsParseError(
                    "COLUMNS lines need a column then 1 or 2 (row, value) pairs",
                    line=lineno,
                )
            col = tokens[0]
            seen_cols.setdefault(col)
            for i in range(1, len(tokens), 2):
                row = tokens[i]
                if row not in row_kind_of:
                    raise MpsParseError(f"coefficient for undeclared row {row!r}", line=lineno)
                if (col, row) in seen_pairs:
                    raise MpsParseError(
                        f"duplicate coefficient for column {col!r}, row {row!r}",
                        line=lineno,
                    )
                seen_pairs.add((col, row))
                prob.columns.append((col, row, _parse_number(tokens[i + 1], lineno)))
        elif section == "RHS":
            # the leading RHS-set name is optional in the wild
            pairs = tokens[1:] if len(tokens) % 2 == 1 else tokens
            if not pairs or len(pairs) % 2 != 0 or len(pairs) > 4:
                raise MpsParseError("RHS lines need 1 or 2 (row, value) pairs", line=lineno)
            for i in range(0, len(pairs), 2):
                row = pairs[i]
                if row not in row_kind_of:
                    raise MpsParseError(f"RHS for undeclared row {row!r}", line=lineno)
                if row in rhs_rows:
                    raise MpsParseError(f"second RHS entry for row {row!r}", line=lineno)
                rhs_rows.add(row)
                prob.rhs.append((row, _parse_number(pairs[i + 1], lineno)))
        elif section == "BOUNDS":
            kind = tokens[0].upper()
            if kind in _VALUELESS_BOUNDS:
                if len(tokens) != 3:
                    raise MpsParseError(f"{kind} bounds take (set, column)", line=lineno)
                col, value = tokens[2], None
            elif kind in _VALUED_BOUNDS:
                if len(tokens) != 4:
                    raise MpsParseError(f"{kind} bounds take (set, column, value)", line=lineno)
                col, value = tokens[2], _parse_number(tokens[3], lineno)
            else:
                raise MpsParseError(f"unknown bound kind {tokens[0]!r}", line=lineno)
            if col not in seen_cols:
                raise MpsParseError(f"bound for undeclared column {col!r}", line=lineno)
            # LO 0 and PL (no upper bound) restate the default 0 <= x < inf
            if not (kind == "PL" or kind == "LO" and value == 0.0):
                shown = f"{kind} {col}" + (f" {value}" if value is not None else "")
                raise UnsupportedMpsFeatureError(
                    f"bound '{shown}' is not supported; only the default x >= 0 is",
                    line=lineno,
                )
        else:
            raise MpsParseError("data line outside any section", line=lineno)

    if not any(kind == "objective" for kind, _ in prob.row_kinds):
        raise MpsParseError("no objective (N) row declared")
    return prob


def to_standard_form(prob: MpsProblem) -> tuple[StandardLp, dict[str, int]]:
    """Convert to min c.x s.t. Ax = b, x >= 0.

    Every 'le' row gains a +1 slack column; every 'ge' row is negated and
    then gains a +1 slack, so all logical columns enter with coefficient +1
    and the uniform bound x >= 0, the only one :func:`parse_mps` lets
    through. Returns the LP and the column-name -> index map, slacks
    included.
    """
    obj_row = prob.objective_row()
    rows = [(kind, row) for kind, row in prob.row_kinds if kind != "objective"]
    row_index = {row: i for i, (_, row) in enumerate(rows)}
    col_names = prob.column_names()
    col_index = {col: j for j, col in enumerate(col_names)}
    m = len(rows)
    n_struct = len(col_names)
    n_logical = sum(1 for kind, _ in rows if kind in ("le", "ge"))

    a = np.zeros((m, n_struct + n_logical))
    b = np.zeros(m)
    c = np.zeros(n_struct + n_logical)
    for col, row, value in prob.columns:
        if row == obj_row:
            c[col_index[col]] = value
        else:
            a[row_index[row], col_index[col]] = value
    for row, value in prob.rhs:
        if row != obj_row:
            b[row_index[row]] = value

    colmap = dict(col_index)
    nxt = n_struct
    for i, (kind, row) in enumerate(rows):
        if kind not in ("le", "ge"):
            continue
        if kind == "ge":
            a[i, :] = -a[i, :]
            b[i] = -b[i]
        a[i, nxt] = 1.0
        slack = f"{row}__slack"
        while slack in colmap:
            slack += "_"
        colmap[slack] = nxt
        nxt += 1

    lp = StandardLp(a, b, c, name=prob.name)
    return lp, colmap


def format_mps(lp: StandardLp) -> str:
    """Serialize an all-equality LP in a layout :func:`parse_mps` reads back
    exactly (used by `generate`).

    Columns X0001.. and rows R0001.. (wider where n needs it) under the
    objective row COST; zero entries are left out, except the cost of a
    column with no nonzero entry, without which the column would be lost.
    Values are written with ``repr``, so :func:`to_standard_form` of the
    parsed text gives A, b and c bit for bit. No BOUNDS section is written:
    x >= 0 is the default.
    """
    width = max(4, len(str(lp.n)))
    rows = [f"R{i + 1:0{width}d}" for i in range(lp.m)]
    lines = [f"NAME          {lp.name or 'GENERATED'}", "ROWS", " N  COST"]
    lines += [f" E  {row}" for row in rows]
    lines.append("COLUMNS")
    for j, (cost, column) in enumerate(zip(lp.c.tolist(), lp.a.T.tolist())):
        col = f"X{j + 1:0{width}d}"
        if cost != 0.0 or not any(column):
            lines.append(f"    {col}  COST  {cost!r}")
        lines += [f"    {col}  {row}  {v!r}" for row, v in zip(rows, column) if v != 0.0]
    lines.append("RHS")
    lines += [f"    RHS  {row}  {v!r}" for row, v in zip(rows, lp.b.tolist()) if v != 0.0]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
