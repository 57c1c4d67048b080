import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optlp.errors import MpsParseError, UnsupportedMpsFeatureError
from optlp.model import StandardLp
from optlp.mps import MpsProblem, format_mps, parse_mps, to_standard_form
from optlp.solver import generate_synthetic

MINIMAL = """\
NAME          TINY
ROWS
 N  COST
 E  BAL
COLUMNS
    X1  COST  1.5
    X1  BAL  1.0
    X2  BAL  1.0
RHS
    RHS  BAL  4.0
ENDATA
"""


def test_parse_minimal_fixture():
    prob = parse_mps(MINIMAL)
    assert prob.name == "TINY"
    assert prob.row_kinds == [("objective", "COST"), ("eq", "BAL")]
    assert len(prob.columns) == 3
    assert prob.rhs == [("BAL", 4.0)]


def test_parse_accepts_fixed_format_and_comments():
    text = (
        "* comment line\n"
        "NAME          FIXED\n"
        "ROWS\n"
        " N  COST\n"
        " L  CAP\n"
        "COLUMNS\n"
        "    X01       COST         -1.0   CAP            2.0\n"
        "\n"
        "RHS\n"
        "    B         CAP           8.0\n"
        "ENDATA\n"
    )
    prob = parse_mps(text)
    assert prob.columns == [("X01", "COST", -1.0), ("X01", "CAP", 2.0)]
    assert prob.rhs == [("CAP", 8.0)]


def test_parse_rejects_ranges():
    text = MINIMAL.replace("RHS\n", "RANGES\n    R  BAL  1.0\nRHS\n")
    with pytest.raises(UnsupportedMpsFeatureError, match="RANGES"):
        parse_mps(text)


def test_parse_rejects_markers():
    text = MINIMAL.replace(
        "    X2  BAL  1.0\n",
        "    MARK      'MARKER'  'INTORG'\n    X2  BAL  1.0\n",
    )
    with pytest.raises(UnsupportedMpsFeatureError, match="marker"):
        parse_mps(text)


def test_parse_errors_carry_line_numbers():
    bad = MINIMAL.replace("RHS\n    RHS  BAL  4.0", "JUNKSECTION\n    RHS  BAL  4.0")
    with pytest.raises(MpsParseError) as exc:
        parse_mps(bad)
    assert exc.value.line == 9
    assert "line 9" in str(exc.value)


def _insert_after(line: str, new: str) -> str:
    return MINIMAL.replace(line, line + new, 1)


def _with_bound(line: str) -> str:
    """MINIMAL with a BOUNDS section holding ``line``, which is line 12."""
    return MINIMAL.replace("ENDATA\n", "BOUNDS\n" + line + "ENDATA\n")


# every rejection of a line: (error class, text, line of the fault, message)
LINE_REJECTIONS = {
    "bad number": (MpsParseError, MINIMAL.replace("COST  1.5", "COST  1.5x"), 6,
                   "bad numeric field"),
    "non-finite number": (MpsParseError, MINIMAL.replace("BAL  4.0", "BAL  nan"), 10,
                          "non-finite numeric field"),
    "RANGES": (UnsupportedMpsFeatureError,
               MINIMAL.replace("RHS\n", "RANGES\n    R  BAL  1.0\nRHS\n"), 9, "RANGES"),
    "unknown section": (MpsParseError, MINIMAL.replace("RHS\n", "JUNK\n"), 9,
                        "unknown section"),
    "outside any section": (MpsParseError,
                            _insert_after("NAME          TINY\n", "    X1  COST  1.0\n"), 2,
                            "data line outside any section"),
    "ROWS arity": (MpsParseError, MINIMAL.replace(" E  BAL\n", " E  BAL  MORE\n"), 4,
                   "ROWS lines need"),
    "row kind": (MpsParseError, MINIMAL.replace(" E  BAL\n", " Q  BAL\n"), 4,
                 "unknown row kind"),
    "repeated row": (MpsParseError, _insert_after(" E  BAL\n", " L  BAL\n"), 5,
                     "row 'BAL' declared twice"),
    "second N row": (MpsParseError, _insert_after(" E  BAL\n", " N  COST2\n"), 5,
                     "more than one objective"),
    "MARKER": (UnsupportedMpsFeatureError,
               _insert_after("    X1  BAL  1.0\n", "    MARK  'MARKER'  'INTORG'\n"), 8,
               "integrality markers"),
    "COLUMNS arity": (MpsParseError, MINIMAL.replace("    X2  BAL  1.0", "    X2  BAL"), 8,
                      "COLUMNS lines need"),
    "COLUMNS undeclared row": (MpsParseError, MINIMAL.replace("X2  BAL", "X2  NOPE"), 8,
                               "coefficient for undeclared row"),
    "repeated pair": (MpsParseError, MINIMAL.replace("    X2  BAL  1.0", "    X1  BAL  2.0"), 8,
                      "duplicate coefficient"),
    "RHS arity": (MpsParseError, MINIMAL.replace("    RHS  BAL  4.0", "    RHS"), 10,
                  "RHS lines need"),
    "RHS undeclared row": (MpsParseError, MINIMAL.replace("RHS  BAL", "RHS  NOPE"), 10,
                           "RHS for undeclared row"),
    "repeated RHS row": (MpsParseError,
                         _insert_after("    RHS  BAL  4.0\n", "    RHS2  BAL  9.0\n"), 11,
                         "second RHS entry for row 'BAL'"),
    "repeated RHS row in one line": (MpsParseError,
                                     MINIMAL.replace("RHS  BAL  4.0", "RHS  BAL  4.0  BAL  9.0"),
                                     10, "second RHS entry for row 'BAL'"),
    "bound kind": (MpsParseError, _with_bound(" XX BND  X1  1.0\n"), 12, "unknown bound kind"),
    "bound arity": (MpsParseError, _with_bound(" UP BND  X1\n"), 12, "UP bounds take"),
    "bound undeclared column": (MpsParseError, _with_bound(" LO BND  X9  0.0\n"), 12,
                                "bound for undeclared column"),
    "unsupported bound kind": (UnsupportedMpsFeatureError, _with_bound(" FR BND  X1\n"), 12,
                               "bound 'FR X1' is not supported"),
    "LO bound not 0": (UnsupportedMpsFeatureError, _with_bound(" LO BND  X1  1.0\n"), 12,
                       "bound 'LO X1 1.0' is not supported"),
}


@pytest.mark.parametrize("case", LINE_REJECTIONS)
def test_every_line_rejection_carries_its_line(case):
    cls, text, line, message = LINE_REJECTIONS[case]
    with pytest.raises(MpsParseError) as exc:
        parse_mps(text)
    assert type(exc.value) is cls
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: {message}")


@pytest.mark.parametrize("text", [b"NAME X\n\xff\xfe\n",
                                  MINIMAL.replace(" N  COST\n", "").replace("    X1  COST  1.5\n", "")],
                         ids=["not UTF-8", "no N row"])
def test_file_level_rejections_have_no_line(text):
    with pytest.raises(MpsParseError) as exc:
        parse_mps(text)
    assert exc.value.line is None


def test_parse_rejects_duplicates_and_undeclared():
    dup = MINIMAL.replace("    X2  BAL  1.0\n", "    X1  BAL  2.0\n")
    with pytest.raises(MpsParseError, match="duplicate"):
        parse_mps(dup)
    undeclared = MINIMAL.replace("    X2  BAL  1.0\n", "    X2  NOPE  1.0\n")
    with pytest.raises(MpsParseError, match="undeclared"):
        parse_mps(undeclared)
    two_obj = MINIMAL.replace(" E  BAL\n", " E  BAL\n N  COST2\n")
    with pytest.raises(MpsParseError, match="objective"):
        parse_mps(two_obj)
    no_obj = MINIMAL.replace(" N  COST\n", "").replace("    X1  COST  1.5\n", "")
    with pytest.raises(MpsParseError, match="objective"):
        parse_mps(no_obj)


def test_parse_accepts_bytes_and_file_objects():
    import io

    assert parse_mps(MINIMAL.encode()) == parse_mps(MINIMAL)
    assert parse_mps(io.StringIO(MINIMAL)) == parse_mps(MINIMAL)
    with pytest.raises(MpsParseError, match="UTF-8"):
        parse_mps(b"NAME X\n\xff\xfe\n")


def test_rhs_on_objective_row_is_ignored():
    text = MINIMAL.replace("    RHS  BAL  4.0\n", "    RHS  BAL  4.0\n    RHS  COST  7.5\n")
    prob = parse_mps(text)
    assert ("COST", 7.5) in prob.rhs
    lp, _ = to_standard_form(prob)
    assert lp.b.tolist() == [4.0]


def test_parse_exponent_and_d_notation():
    text = MINIMAL.replace("    X1  COST  1.5\n", "    X1  COST  1.5D+1\n")
    prob = parse_mps(text)
    assert prob.columns[0] == ("X1", "COST", 15.0)


def test_parse_rejects_non_finite_numbers():
    for token in ("nan", "inf", "-Infinity", "1e400", "1D400"):
        for old, new, line in (("COST  1.5", f"COST  {token}", 6),
                               ("BAL  4.0", f"BAL  {token}", 10)):
            with pytest.raises(MpsParseError, match="non-finite") as exc:
                parse_mps(MINIMAL.replace(old, new))
            assert exc.value.line == line


def test_standard_form_le_slack():
    text = """\
NAME  LE
ROWS
 N  COST
 L  CAP
COLUMNS
    X1  COST  2.0
    X1  CAP  1.0
    X2  CAP  1.0
RHS
    RHS  CAP  4.0
ENDATA
"""
    lp, colmap = to_standard_form(parse_mps(text))
    assert lp.n == 3 and lp.m == 1
    slack = colmap["CAP__slack"]
    assert slack == 2
    assert np.allclose(lp.a, [[1.0, 1.0, 1.0]])
    assert lp.b[0] == 4.0
    assert lp.c[slack] == 0.0


def test_standard_form_ge_surplus_normalized():
    text = """\
NAME  GE
ROWS
 N  COST
 G  MIN
COLUMNS
    X1  COST  1.0
    X1  MIN  1.0
RHS
    RHS  MIN  1.0
ENDATA
"""
    lp, colmap = to_standard_form(parse_mps(text))
    # stored as the negated row with a +1 slack: -x1 + z = -1,
    # equivalently x1 - z = 1
    assert np.allclose(lp.a, [[-1.0, 1.0]])
    assert lp.b[0] == -1.0
    assert np.allclose(-lp.a[0], [1.0, -1.0]) and -lp.b[0] == 1.0


def test_standard_form_equality_only_untouched():
    lp0, _ = generate_synthetic(9, 4, seed=5)
    lp, colmap = to_standard_form(parse_mps(format_mps(lp0)))
    assert lp.n == lp0.n and lp.m == lp0.m
    assert np.array_equal(lp.a, lp0.a)
    assert np.array_equal(lp.b, lp0.b)
    assert np.array_equal(lp.c, lp0.c)
    assert len(colmap) == lp0.n


def test_standard_form_rejects_nondefault_bounds():
    # the reader rejects the bound, with its line, before any standard form
    text = MINIMAL.replace(
        "ENDATA\n", "BOUNDS\n UP BND  X1  5.0\nENDATA\n"
    )
    with pytest.raises(UnsupportedMpsFeatureError, match="^line 12: bound 'UP X1 5.0'") as exc:
        parse_mps(text)
    assert exc.value.line == 12
    # redundant LO 0 bound is fine
    lo = MINIMAL.replace("ENDATA\n", "BOUNDS\n LO BND  X1  0.0\nENDATA\n")
    lp, _ = to_standard_form(parse_mps(lo))
    assert lp.n == 2


def test_redundant_bounds_read_as_no_bounds():
    # PL and LO 0 restate x >= 0 with no upper bound; every other kind is
    # rejected with its line
    def standard(text):
        lp, colmap = to_standard_form(parse_mps(text))
        return lp.a.tolist(), lp.b.tolist(), lp.c.tolist(), colmap

    for line in (" PL BND  X1\n", " LO BND  X2  0.0\n"):
        assert standard(_with_bound(line)) == standard(MINIMAL)
    for line, shown in ((" UP BND  X1  5.0\n", "UP X1 5.0"), (" MI BND  X1\n", "MI X1"),
                        (" FR BND  X2\n", "FR X2")):
        with pytest.raises(UnsupportedMpsFeatureError, match=f"^line 12: bound '{shown}'") as exc:
            parse_mps(_with_bound(line))
        assert exc.value.line == 12


def _random_fixture(rng):
    """Random mixed-row problem built around a known feasible point."""
    n = int(rng.integers(3, 6))
    kinds = ["eq", "le", "ge"]
    rows = [kinds[int(rng.integers(0, 3))] for _ in range(int(rng.integers(1, n - 1)))]
    x = rng.uniform(0.5, 2.0, size=n)
    coef = rng.normal(size=(len(rows), n)).round(3)
    prob = MpsProblem(name="RND")
    prob.row_kinds.append(("objective", "OBJ"))
    prob.row_kinds.extend((kind, f"R{i}") for i, kind in enumerate(rows))
    c = rng.normal(size=n).round(3)
    for j in range(n):
        prob.columns.append((f"C{j}", "OBJ", float(c[j])))
        for i in range(len(rows)):
            if coef[i, j] != 0.0:
                prob.columns.append((f"C{j}", f"R{i}", float(coef[i, j])))
    margins = rng.uniform(0.1, 1.0, size=len(rows))
    for i, kind in enumerate(rows):
        ax = float(coef[i] @ x)
        if kind == "eq":
            rhs = ax
        elif kind == "le":
            rhs = ax + float(margins[i])
        else:
            rhs = ax - float(margins[i])
        prob.rhs.append((f"R{i}", rhs))
    return prob, x, coef, rows, c


def _original_feasible(prob, coef, rows, x, tol=1e-9):
    for i, kind in enumerate(rows):
        ax = float(coef[i] @ x)
        rhs = dict(prob.rhs)[f"R{i}"]
        if kind == "eq" and abs(ax - rhs) > tol:
            return False
        if kind == "le" and ax > rhs + tol:
            return False
        if kind == "ge" and ax < rhs - tol:
            return False
    return True


def test_standard_form_round_trip_feasibility():
    rng = np.random.default_rng(123)
    for _ in range(25):
        prob, x, coef, rows, c = _random_fixture(rng)
        if not _original_feasible(prob, coef, rows, x):
            continue
        lp, colmap = to_standard_form(prob)
        # map the feasible original point into standard form
        full = np.zeros(lp.n)
        for j in range(len(x)):
            full[colmap[f"C{j}"]] = x[j]
        rhs_map = dict(prob.rhs)
        for i, kind in enumerate(rows):
            if kind == "eq":
                continue
            ax = float(coef[i] @ x)
            rhs = rhs_map[f"R{i}"]
            slack = rhs - ax if kind == "le" else ax - rhs
            assert slack >= -1e-12
            full[colmap[f"R{i}__slack"]] = slack
        assert np.min(full) >= -1e-12
        assert np.allclose(lp.a @ full, lp.b, atol=1e-9)
        assert float(lp.c @ full) == pytest.approx(float(c @ x), rel=1e-12, abs=1e-12)

        # converse: any nonnegative solution of the standard form is feasible
        # for the original inequality system with the same objective
        z = full
        struct = np.array([z[colmap[f"C{j}"]] for j in range(len(x))])
        assert _original_feasible(prob, coef, rows, struct)
        assert float(lp.c @ z) == pytest.approx(float(c @ struct), rel=1e-12, abs=1e-12)


def test_format_mps_round_trip_exact():
    lp0, _ = generate_synthetic(7, 3, seed=77)
    lp, _ = to_standard_form(parse_mps(format_mps(lp0)))
    assert np.array_equal(lp.a, lp0.a)
    assert np.array_equal(lp.b, lp0.b)
    assert np.array_equal(lp.c, lp0.c)
    # zero entries are left out and read back as zeros; the name is kept
    lp0 = StandardLp(np.array([[1.0, 0.0, -2.5], [0.0, 3.0, 0.0]]), np.array([0.0, 1e-300]),
                     np.array([0.0, 1.0, 0.1]), name="SPARSE")
    text = format_mps(lp0)
    assert not any(line.endswith(" 0.0") for line in text.splitlines())
    lp, _ = to_standard_form(parse_mps(text))
    assert (lp.a.tolist(), lp.b.tolist(), lp.c.tolist(), lp.name) == (
        lp0.a.tolist(), lp0.b.tolist(), lp0.c.tolist(), "SPARSE")


def test_format_mps_keeps_a_column_with_no_nonzero():
    # the middle column has no coefficient and no cost: its cost, 0.0, is
    # written, so that the column is read back
    lp0 = StandardLp([[1.0, 0.0, 2.0]], [3.0], [1.0, 0.0, 1.0])
    text = format_mps(lp0)
    assert "    X0002  COST  0.0" in text.splitlines()
    lp, colmap = to_standard_form(parse_mps(text))
    assert colmap == {"X0001": 0, "X0002": 1, "X0003": 2}
    assert (lp.a.tolist(), lp.b.tolist(), lp.c.tolist()) == (
        lp0.a.tolist(), lp0.b.tolist(), lp0.c.tolist())


# MPS-like text for the fuzz run: sections in any order, often after a
# valid ROWS section, each with lines of the fields its kind takes, made of
# a few names and numbers (some malformed), or of arbitrary text. Whole
# lines are drawn, which keeps the draws per example few and the run short
_FUZZ_NAMES = ("COST", "R1", "R2", "X1")
_FUZZ_NUMBERS = ("0", "1", "-1.5", "1D3", "1e400", "nan", "1_0", "1.5x")
_FUZZ_LINES = {
    "ROWS": [f" {kind}  {row}" for kind in "NELGQ" for row in _FUZZ_NAMES] + [" N", " E  R1  R2"],
    "COLUMNS": [f"    {col}  {row}  {v}" for col, row, v
                in itertools.product(("X1", "X2"), _FUZZ_NAMES, _FUZZ_NUMBERS)]
    + ["    X1  COST  1  R1  2", "    X2  R1  1  R2", "    X1  'MARKER'  'INTORG'", "    X1"],
    "RHS": [f"    {lead}{row}  {v}" for lead, row, v
            in itertools.product(("", "RHS  "), _FUZZ_NAMES, _FUZZ_NUMBERS)]
    + ["    RHS  R1  1  R2  2", "    RHS  R1  1  R1  2", "    RHS"],
    "BOUNDS": [f" {kind} BND  {col}{v}" for kind, col, v
               in itertools.product(("LO", "UP", "FX", "MI", "PL", "FR", "XX"), ("X1", "X9"),
                                    ("", "  0", "  0.0", "  1", "  nan"))],
}
_fuzz_junk = st.text(max_size=6)
_fuzz_section = st.one_of(
    *(st.tuples(st.just(head), st.lists(st.one_of(st.sampled_from(lines),
                                                   _fuzz_junk.map("    ".__add__)), max_size=4))
      for head, lines in _FUZZ_LINES.items()),
    st.tuples(st.sampled_from(["NAME  FUZZ", "RANGES", "ENDATA", "OBJSENSE", "* note", ""]),
              st.lists(_fuzz_junk, max_size=2)))
_fuzz_text = st.tuples(st.sampled_from(["", "ROWS\n N  COST\n E  R1\n"]),
                       st.lists(_fuzz_section, max_size=5)).map(
    lambda t: t[0] + "\n".join(line for head, lines in t[1] for line in (head, *lines)))


@settings(max_examples=200)
@given(st.one_of(_fuzz_text, _fuzz_text.map(str.encode), st.binary(max_size=40)))
def test_random_mps_text_parses_or_is_rejected_with_its_line(text):
    # every input parses or ends in an MPS error; a rejection of a line
    # names it, and only file-level faults carry no line
    try:
        prob = parse_mps(text)
    except MpsParseError as exc:
        if exc.line is None:
            assert str(exc).startswith(("no objective (N) row", "input is not UTF-8"))
        else:
            lines = (text.decode() if isinstance(text, bytes) else text).splitlines()
            assert 1 <= exc.line <= len(lines)
            assert str(exc).startswith(f"line {exc.line}: ")
    else:
        assert isinstance(prob, MpsProblem)
