import math
import os
import sys
import tempfile
from types import SimpleNamespace
from typing import Optional
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hjgen import fields, hj, pq
from hjgen.errors import ConfigError, ConvergenceError, DomainError
from hjgen.fields import (
    _STATUS,
    ActionField,
    RootLine,
    SolutionField,
    Status,
    check_axis,
    level_samples,
    read_field_csv,
    sweep,
    write_field_csv,
)
from hjgen.numerics import SolverConfig, SolveStats, _brent, _refine, scan_abscissae
from scan_reference import crossings, full_scan, scanned_line, sloped


def _brent_on(g, lo, hi, g_lo, g_hi, cfg):
    # the kernel's Brent loop on g itself: target 0 and the level -g, its root
    return _brent(sloped(lambda q: -g(q)), 0.0, lo, g_lo, None, hi, g_hi, None, cfg, _tally())[0]


def identity(q):
    """The level q, with its slope 1."""
    return q, 1.0


def test_check_axis():
    assert check_axis([0, 0.5, 1]) == (0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        check_axis([])
    with pytest.raises(ValueError):
        check_axis([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        check_axis([1.0, 0.5])
    for axis in ([math.nan], [0.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="axis values must be finite"):
            check_axis(axis)


def _toy_field():
    xs = (0.0, 0.5, 1.0)
    ys = (0.0, 1.0)
    q = [[0.1, None], [0.2, 0.25], [None, 0.3]]
    u = [[1.0, None], [2.0, 2.5], [None, 3.0]]
    st = [
        [Status.RESOLVED, Status.NO_ROOT],
        [Status.RESOLVED, Status.MULTI_ROOT],
        [Status.DOMAIN_FAIL, Status.RESOLVED],
    ]
    return SolutionField(xs, ys, q, u, st)


def test_resolved_fraction_counts_strictly_resolved():
    field = _toy_field()
    assert field.resolved_fraction() == pytest.approx(3.0 / 6.0)
    assert field.has_value(1, 1)  # multi_root still carries a value
    assert not field.has_value(0, 1)


def test_solution_csv_round_trip(tmp_path):
    field = _toy_field()
    path = tmp_path / "field.csv"
    write_field_csv(field, str(path))
    back = read_field_csv(str(path))
    assert isinstance(back, SolutionField)
    assert back.axis1 == field.axis1
    assert back.axis2 == field.axis2
    assert back.q == field.q
    assert back.value == field.value
    assert back.status == field.status


def test_action_csv_round_trip_17_digits(tmp_path):
    xs = (0.1, 0.2)
    ts = (0.0, 0.3)
    q = [[1 / 3, 0.1], [None, 2 / 7]]
    s = [[0.123456789012345678, 1e-17], [None, 3.0]]
    p = [[1.0, 2.0], [None, 4.0]]
    st = [
        [Status.RESOLVED, Status.MULTI_ROOT],
        [Status.NO_ROOT, Status.RESOLVED],
    ]
    field = ActionField(xs, ts, q, s, st, p)
    path = tmp_path / "field.csv"
    write_field_csv(field, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "x,t,q,S,p,status"
    back = read_field_csv(str(path))
    assert isinstance(back, ActionField)
    assert back.q == q and back.value == s and back.p == p


def test_read_rejects_truncated_row(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("x,y,q,u,status\n0,0,1,2,resolved\n0,1,1\n")
    with pytest.raises(ConfigError) as err:
        read_field_csv(str(path))
    assert err.value.line == 3


def test_read_rejects_unknown_header_and_status(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ConfigError):
        read_field_csv(str(path))
    path.write_text("x,y,q,u,status\n0,0,1,2,nonsense\n")
    with pytest.raises(ConfigError):
        read_field_csv(str(path))


def test_read_rejects_presence_mismatch(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("x,y,q,u,status\n0,0,,,resolved\n")
    with pytest.raises(ConfigError):
        read_field_csv(str(path))


def test_read_rejects_incomplete_grid(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(
        "x,y,q,u,status\n0,0,1,1,resolved\n0,1,1,1,resolved\n1,0,1,1,resolved\n"
    )
    with pytest.raises(ConfigError):
        read_field_csv(str(path))



GOOD = ["x,y,q,u,status", "0,0,1,2,resolved", "0,1,1,2,resolved", "1,0,,,no_root", "1,1,3,4,multi_root"]
GOOD_ACTION = ["x,t,q,S,p,status", "0,0,1,2,5,resolved", "0,1,1,2,,resolved"]


def _edit(lines, line, text):
    # the lines of a file, with its 1-based line ``line`` replaced (text None: removed)
    out = list(lines)
    if text is None:
        del out[line - 1]
    else:
        out[line - 1] = text
    return out


def _big(n1=40, n2=40):
    return ["x,y,q,u,status"] + [f"{i},{j},{i + j},1.5,resolved" for i in range(n1) for j in range(n2)]


# (file lines, message, line) for each class of malformed field file
MALFORMED = {
    "empty file": ([], "empty field file", 1),
    "unknown header": (["a,b,c"], "unrecognized field header 'a,b,c'", 1),
    "header only": (["x,y,q,u,status", ""], "field file has no data rows", 2),
    "truncated row": (_edit(GOOD, 3, "0,1,1"), "expected 5 columns, found 3", 3),
    "extra column": (_edit(GOOD, 3, "0,1,1,2,resolved,7"), "expected 5 columns, found 6", 3),
    "bad axis 1": (_edit(GOOD, 3, "0x,1,1,2,resolved"), "bad axis value '0x'", 3),
    "bad axis 2": (_edit(GOOD, 3, "0,1y,1,2,resolved"), "bad axis value '1y'", 3),
    "bad root": (_edit(GOOD, 3, "0,1,1..2,2,resolved"), "bad root value '1..2'", 3),
    "bad value": (_edit(GOOD, 3, "0,1,1, 2 x,resolved"), "bad value value ' 2 x'", 3),
    "bad momentum": (_edit(GOOD_ACTION, 3, "0,1,1,2,p,resolved"), "bad momentum value 'p'", 3),
    "empty axis 1": (_edit(GOOD, 4, ",0,,,no_root"), "axis cells must not be empty", 4),
    "empty axis 2": (_edit(GOOD, 4, "1,,,,no_root"), "axis cells must not be empty", 4),
    "bad axis 2 before empty axis 1": (_edit(GOOD, 4, ",z,,,no_root"), "bad axis value 'z'", 4),
    "unknown status": (_edit(GOOD, 5, "1,1,3,4,solved"), "unknown status 'solved'", 5),
    "status with a space": (_edit(GOOD, 5, "1,1,3,4,resolved "), "unknown status 'resolved '", 5),
    "presence, resolved": (
        _edit(GOOD, 2, "0,0,,2,resolved"), "cell presence inconsistent with status 'resolved'", 2
    ),
    "presence, no_root": (
        _edit(GOOD, 4, "1,0,1,2,no_root"), "cell presence inconsistent with status 'no_root'", 4
    ),
    "incomplete grid": (GOOD[:4], "row count does not form a complete grid", 4),
    "incomplete grid, trailing blanks": (
        GOOD[:4] + ["", ""], "row count does not form a complete grid", 6
    ),
    # an axis error names the line whose axis value fails to increase
    "decreasing axis 1": (
        [GOOD[0], "1,0,1,2,resolved", "1,1,1,2,resolved", "0,0,1,2,resolved", "0,1,1,2,resolved"],
        "axis values must be strictly increasing",
        4,
    ),
    "decreasing axis 2": (
        [GOOD[0], "0,1,1,2,resolved", "0,0,1,2,resolved"], "axis values must be strictly increasing", 3
    ),
    "decreasing axis 1 after a blank": (
        [GOOD[0], "", "1,0,1,2,resolved", "1,1,1,2,resolved", "0,0,1,2,resolved", "0,1,1,2,resolved"],
        "axis values must be strictly increasing",
        5,
    ),
    "out-of-order rows": (
        [GOOD[0], "0,0,1,2,resolved", "0,1,1,2,resolved", "1,1,1,2,resolved", "1,0,1,2,resolved"],
        "rows are not in row-major grid order",
        4,
    ),
    # the grid order error names the bad row's own line, so a blank line before it counts
    "out-of-order rows after a blank": (
        [GOOD[0], "", "0,0,1,2,resolved", "0,1,1,2,resolved", "1,1,1,2,resolved", "1,0,1,2,resolved"],
        "rows are not in row-major grid order",
        5,
    ),
    # axis values and roots are finite, each checked on its own line
    "lone NaN axis": ([GOOD[0], "nan,0,1,2,resolved"], "bad axis value 'nan'", 2),
    "infinite axis 2": (_edit(GOOD, 3, "0,inf,1,2,resolved"), "bad axis value 'inf'", 3),
    "NaN axis 1 in a big grid": (_edit(_big(), 2, "nan,0,0,1.5,resolved"), "bad axis value 'nan'", 2),
    "NaN root, resolved": (_edit(GOOD, 3, "0,1,nan,2,resolved"), "bad root value 'nan'", 3),
    "NaN root, multi_root": (_edit(GOOD, 5, "1,1,-NaN,4,multi_root"), "bad root value '-NaN'", 5),
    # a filled root or momentum is finite too; a value may be infinite
    "infinite root": (_edit(GOOD, 3, "0,1,inf,2,resolved"), "bad root value 'inf'", 3),
    "overflowing root": (_edit(GOOD, 4, "1,0,-1e999,2,resolved"), "bad root value '-1e999'", 4),
    "NaN momentum": (_edit(GOOD_ACTION, 3, "0,1,1,2,nan,resolved"), "bad momentum value 'nan'", 3),
    "infinite momentum": (
        _edit(GOOD_ACTION, 2, "0,0,1,2,-Infinity,resolved"), "bad momentum value '-Infinity'", 2
    ),
    "infinite momentum, no_root": (
        _edit(GOOD_ACTION, 3, "0,1,,,inf,no_root"), "bad momentum value 'inf'", 3
    ),
    "first bad line wins": (
        _edit(_edit(GOOD, 3, "0,1,1,2,solved"), 4, "1,0"), "unknown status 'solved'", 3
    ),
    "line errors before grid errors": (
        _edit(GOOD[:4], 3, "0,1,1,2,solved"), "unknown status 'solved'", 3
    ),
    "bad float in a later block": (_edit(_big(), 1300, "32,19,x,1.5,resolved"), "bad root value 'x'", 1300),
    "presence in a later block": (
        _edit(_big(), 1599, "39,37,,1.5,resolved"),
        "cell presence inconsistent with status 'resolved'",
        1599,
    ),
    "out-of-order rows in a later block": (
        _edit(_edit(_big(), 1300, "32,20,52,1.5,resolved"), 1301, "32,19,51,1.5,resolved"),
        "rows are not in row-major grid order",
        1300,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_read_names_the_first_bad_line(tmp_path, case):
    lines, message, line = MALFORMED[case]
    path = tmp_path / "bad.csv"
    path.write_text("".join(f"{raw}\n" for raw in lines))
    with pytest.raises(ConfigError) as err:
        read_field_csv(str(path))
    assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


def test_read_skips_blank_lines_between_rows(tmp_path):
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("\n".join(GOOD) + "\n")
    spaced.write_text("\n".join(GOOD[:3] + ["", "  ", "\t"] + GOOD[3:] + [""]) + "\n")
    big, big_spaced = tmp_path / "big.csv", tmp_path / "big_spaced.csv"
    rows = _big(30, 30)
    big.write_text("\n".join(rows) + "\n")
    big_spaced.write_text("\n".join(r for raw in rows for r in (raw, "")) + "\n")
    assert read_field_csv(str(spaced)) == read_field_csv(str(plain))
    assert read_field_csv(str(big_spaced)) == read_field_csv(str(big))


def _floats(infinite: bool):
    # 17-digit, tiny, subnormal, negative and signed-zero values, and
    # infinities when ``infinite`` (a root or momentum must be finite)
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=infinite),
        st.sampled_from([0.1, 1 / 3, -2 / 7, 5e-324, -5e-324, 2.2250738585072014e-308, -0.0]),
    )


@st.composite
def _fields(draw):
    n1, n2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    ax1 = sorted(draw(st.lists(finite, min_size=n1, max_size=n1, unique=True)))
    ax2 = sorted(draw(st.lists(finite, min_size=n2, max_size=n2, unique=True)))
    status = [[draw(st.sampled_from(Status)) for _ in ax2] for _ in ax1]

    def cells(present_only, infinite=False):
        # values at resolved / multi_root points; elsewhere None, or, for the
        # momentum column, which has no presence rule, a value or None
        return [
            [
                draw(_floats(infinite))
                if s in (Status.RESOLVED, Status.MULTI_ROOT)
                or (not present_only and draw(st.booleans()))
                else None
                for s in row
            ]
            for row in status
        ]

    q, value = cells(True), cells(True, infinite=True)
    if draw(st.booleans()):
        return ActionField(tuple(ax1), tuple(ax2), q, value, status, cells(False))
    return SolutionField(tuple(ax1), tuple(ax2), q, value, status)


@settings(deadline=None, database=None)
@given(_fields())
def test_csv_round_trip_property(field):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = os.path.join(tmp, "f.csv"), os.path.join(tmp, "g.csv")
        write_field_csv(field, path)
        back = read_field_csv(path)
        write_field_csv(back, again)
        with open(path, "rb") as fa, open(again, "rb") as fb:
            assert fa.read() == fb.read()
    assert type(back) is type(field)
    assert back == field
    assert all(s is t for a, b in zip(back.status, field.status) for s, t in zip(a, b))


def _parse_float(token: str, line: int, what: str) -> Optional[float]:
    if token == "":
        return None
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"bad {what} value {token!r}", line) from None


def reference_first_error(lines, is_action: bool) -> None:
    """Raise the :class:`ConfigError` of the first bad line of a field CSV.

    Reads the data lines one at a time, in order, so the error names the
    line where a reader going line by line would stop; never builds a field,
    and ends in ``AssertionError`` on a valid file.  This was the reader's
    error path, kept verbatim (with :func:`_parse_float`) as the reference.
    """
    ncols = 6 if is_action else 5
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != ncols:
            raise ConfigError(
                f"expected {ncols} columns, found {len(parts)}", lineno
            )
        a1 = _parse_float(parts[0], lineno, "axis")
        a2 = _parse_float(parts[1], lineno, "axis")
        if a1 is None or a2 is None:
            raise ConfigError("axis cells must not be empty", lineno)
        qv = _parse_float(parts[2], lineno, "root")
        val = _parse_float(parts[3], lineno, "value")
        if is_action:
            _parse_float(parts[4], lineno, "momentum")
        st = _STATUS.get(parts[-1])
        if st is None:
            raise ConfigError(f"unknown status {parts[-1]!r}", lineno)
        present = st in (Status.RESOLVED, Status.MULTI_ROOT)
        if present != (qv is not None and val is not None):
            raise ConfigError(f"cell presence inconsistent with status {st.value!r}", lineno)
        rows.append((lineno, a1, a2))
    if not rows:
        raise ConfigError("field file has no data rows", 2)
    axis1: list[tuple[int, float]] = []  # (line, value) where axis 1 takes a new value
    for lineno, a1, _ in rows:
        if not axis1 or axis1[-1][1] != a1:
            axis1.append((lineno, a1))
    n1 = len(axis1)
    if len(rows) % n1 != 0:
        raise ConfigError("row count does not form a complete grid", len(lines))
    n2 = len(rows) // n1
    axis2 = [(lineno, a2) for lineno, _, a2 in rows[:n2]]
    broken = [
        line for axis in (axis1, axis2) for (_, a), (line, b) in zip(axis, axis[1:]) if not a < b
    ]
    if broken:
        raise ConfigError("axis values must be strictly increasing", min(broken))
    for k, (lineno, a1, a2) in enumerate(rows):
        i, j = divmod(k, n2)
        if a1 != axis1[i][1] or a2 != axis2[j][1]:
            raise ConfigError("rows are not in row-major grid order", lineno)
    raise AssertionError("the line validator accepts a field the block parser rejected")


def _outcome(read, *args):
    # (message, line) of the ConfigError a reader raises, or None when it accepts the lines
    try:
        read(*args)
    except ConfigError as err:
        return str(err), err.line
    except AssertionError:  # the reference's end, reached only by a valid file
        pass
    return None


_BAD_TOKENS = ["x", "0x", "1..2", " 2 x", "--1", "1e", "solved", "resolved "]


@st.composite
def _corrupted(draw):
    """The lines of a written field, one or two data lines edited to break a
    rule, and blank lines put between; every number written is finite."""
    field = draw(_fields())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        write_field_csv(field, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
    number = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g"))
    edits = ["bad token", "empty", "number", "status", "drop cell", "add cell", "swap", "drop line"]
    for _ in range(draw(st.integers(1, 2))):
        if len(lines) == 1:
            break
        k = draw(st.integers(1, len(lines) - 1))
        cells = lines[k].split(",")
        column = draw(st.integers(0, len(cells) - 1))
        edit = draw(st.sampled_from(edits))
        if edit == "bad token":
            cells[column] = draw(st.sampled_from(_BAD_TOKENS))
        elif edit == "empty":
            cells[column] = ""
        elif edit == "number":
            cells[column] = draw(number)
        elif edit == "status":
            cells[-1] = draw(st.sampled_from(Status)).value
        elif edit == "drop cell":
            del cells[column]
        elif edit == "add cell":
            cells.insert(column, draw(number))
        elif edit == "swap":
            m = draw(st.integers(1, len(lines) - 1))
            lines[k], lines[m] = lines[m], lines[k]
            continue
        else:
            del lines[k]
            continue
        lines[k] = ",".join(cells)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    return lines


@settings(deadline=None, database=None, max_examples=300)
@given(_corrupted())
def test_reader_names_the_reference_first_error(lines):
    is_action = lines[0] == "x,t,q,S,p,status"
    want = _outcome(reference_first_error, lines, is_action)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.csv")
        with open(path, "w") as fh:
            fh.write("".join(f"{raw}\n" for raw in lines))
        for block in (1, 2, 3, 512):
            with mock.patch.object(fields, "_BLOCK", block):
                assert _outcome(read_field_csv, path) == want


MID = 1e9  # the recording lines' midpoint, the reference of a cold point


class RecordingLine(RootLine):
    """A :class:`RootLine` as row ``i`` of a sweep, whose own
    :meth:`RootLine.solve_row` walks the row, with each point's refinement
    scripted and recorded.

    Every target has two brackets, so each point's refined brackets and its
    warm start (the reference :func:`fields._nearest` is given, ``MID`` when
    cold) reach ``_nearest``.  The stand-in ``_refine`` returns the
    point's index j and guess, and the stand-in ``_nearest`` records
    ``(i, j, warm, guess)`` and answers ``result(i, j, warm, guess)``.
    """

    def __init__(self, i, axis2, result, calls):
        level, cfg = identity, SolverConfig(scan_points=2)
        super().__init__(level, level_samples(level, MID - 1.0, MID + 1.0, cfg), MID - 1.0, MID + 1.0, cfg)
        self.i, self.axis2, self.result, self.calls = i, list(axis2), result, calls

    def brackets(self, target):
        return [(self.i, self.axis2.index(target), 0.0, 0.0)] * 2

    def solve_row(self, targets, weights, warm=None, guess=None):
        def refine(level, target, i, j, g_lo, g_hi, guess, cfg, tally):
            return j, guess

        def nearest(found, ref, cfg):
            j, guess = found[0]
            warm = None if ref == MID else ref
            self.calls.append((self.i, j, warm, guess))
            root, status, slope = self.result(self.i, j, warm, guess)
            return root, slope, status

        with mock.patch.object(fields, "_refine", refine), mock.patch.object(fields, "_nearest", nearest):
            return super().solve_row(targets, weights, warm, guess)


def recording_lines(result, axis1, axis2):
    """One :class:`RecordingLine` per row of the grid, and their shared call list."""
    calls: list = []
    return [RecordingLine(i, axis2, result, calls) for i in range(len(axis1))], calls


def test_sweep_warm_start_wiring():
    def solver(i, j, warm, guess):
        return 10.0 * i + j, Status.RESOLVED, 1.0

    axis1, axis2 = [0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]
    lines, calls = recording_lines(solver, axis1, axis2)
    q, status = sweep(lines, axis1, axis2)
    assert [(i, j) for i, j, _, _ in calls] == [(i, j) for i in range(3) for j in range(4)]
    warm = {(i, j): w for i, j, w, _ in calls}
    assert warm[(0, 0)] is None  # origin runs cold
    assert warm[(1, 0)] == q[0][0]  # first column from the previous row
    assert warm[(2, 0)] == q[1][0]
    assert warm[(1, 2)] == q[1][1]  # everything else from the previous point of its line
    assert all(status[i][j] is Status.RESOLVED for i in range(3) for j in range(4))


def test_sweep_rows_independent_of_later_rows():
    # each result depends on its warm start and guess, so a row that read a
    # later row would differ between the prefix sweeps and the full one
    def solver(i, j, warm, guess):
        pred = guess or 0.0
        return (warm or 0.0) + 0.5 * pred + i - j, Status.RESOLVED, 1.0 + j

    axis1, axis2 = [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0, 4.0]
    lines, _ = recording_lines(solver, axis1, axis2)
    q, status = sweep(lines, axis1, axis2)
    for k in range(1, len(axis1)):
        q_k, status_k = sweep(lines[:k], axis1[:k], axis2)
        assert q_k == q[:k]
        assert status_k == status[:k]


def test_sweep_guesses_extrapolate_each_row():
    # roots linear in both coordinates, 2 i + 4 j, and the level's slope
    # along a row 1/4, so d root / d target = 4: a row's prediction through
    # the roots and those derivatives is exact from one earlier point on,
    # and column 0's, through its roots alone, from two
    def solver(i, j, warm, guess):
        if (i, j) == (1, 1):
            return None, Status.NO_ROOT, None
        return 2.0 * i + 4.0 * j, Status.RESOLVED, 0.25

    axis1, axis2 = [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0, 4.0]
    lines, calls = recording_lines(solver, axis1, axis2)
    sweep(lines, axis1, axis2)
    guesses = {(i, j): guess for i, j, _, guess in calls}
    assert guesses[(0, 0)] is None  # the origin has no history
    assert guesses[(1, 0)] == 0.0  # one root of column 0: held constant
    assert guesses[(2, 0)] == 4.0  # the line through column 0's two roots
    assert guesses[(0, 1)] == 4.0  # one earlier point: its tangent
    assert guesses[(2, 4)] == pytest.approx(20.0, abs=1e-12)  # Hermite through the last four
    assert guesses[(1, 2)] is None  # a point without a root breaks the line
    assert guesses[(1, 3)] == 14.0


def test_sweep_none_line_fails_its_row_and_breaks_column_0():
    def solver(i, j, warm, guess):
        return 2.0 * i + 3.0 * j, Status.RESOLVED, 1.0

    axis1, axis2 = [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0]
    lines, calls = recording_lines(solver, axis1, axis2)
    lines[1] = None
    q, status = sweep(lines, axis1, axis2)
    assert status[1] == [Status.DOMAIN_FAIL] * 3
    assert q[1] == [None] * 3
    assert all(i != 1 for i, _, _, _ in calls)  # a missing line is never solved
    first = {i: (warm, guess) for i, j, warm, guess in calls if j == 0}
    assert first[2] == (None, None)  # the failed row left no warm start or history
    assert first[3] == (4.0, 4.0)


class ColumnProblem:
    """A problem whose grid lines are columns: on the column at y the level
    is q itself, so each point's root is its x, and the value kernel gives
    10 x + y, but raises DomainError at (2, 0) and ConvergenceError at
    (3, 1); the column y = 0.5 has no root line."""

    lines_are_columns = True

    def __init__(self):
        self.calls = []  # (line axis, q_lo, q_hi) of each lines() call
        self.root_lines = []
        self.kernel_calls = []

    def lines(self, axis, q_lo, q_hi, cfg):
        self.calls.append((axis, q_lo, q_hi))
        lines = []
        for y in axis:
            if y == 0.5:
                lines.append(None)
                continue
            line = RootLine(identity, level_samples(identity, q_lo, q_hi, cfg), q_lo, q_hi, cfg)
            self.root_lines.append(line)
            lines.append((line, lambda x, q, y=y: self.value(x, y, q)))

        def count(stats):
            stats.scan += 1000

        return lines, count

    def value(self, x, y, q):
        self.kernel_calls.append((x, y))
        if (x, y) == (2.0, 0.0):
            raise DomainError("value undefined", where=q)
        if (x, y) == (3.0, 1.0):
            raise ConvergenceError("value not converged")
        return 10.0 * x + y

    field = SolutionField


def test_solve_grid_runs_the_problem_lines_and_kernels():
    cfg = SolverConfig(scan_points=8)
    xs, ys = [1.0, 2.0, 3.0], [0.0, 0.5, 1.0]
    prob = ColumnProblem()
    stats = SolveStats()
    field = fields.solve_grid(prob, xs, ys, (0.0, 10.0), cfg, stats)
    assert prob.calls == [((0.0, 0.5, 1.0), 0.0, 10.0)]  # the columns' axis
    # every root is found, and each kernel runs at its own column's points
    assert sorted(prob.kernel_calls) == [(x, y) for x in xs for y in (0.0, 1.0)]
    fail, ok = Status.DOMAIN_FAIL, Status.RESOLVED
    # back on the (x, y) grid: the missing column and both kernel errors fail
    assert field.status == [[ok, fail, ok], [fail, fail, ok], [ok, fail, fail]]
    assert field.q == [[1.0, None, 1.0], [None, None, 2.0], [3.0, None, None]]
    assert field.value == [[10.0, None, 11.0], [None, None, 21.0], [30.0, None, None]]
    assert (field.axis1, field.axis2) == (tuple(xs), tuple(ys))
    assert (stats.points, stats.targets, stats.scan) == (9, 6, 1000)
    lines = prob.root_lines
    assert stats.refined == sum(line.refined for line in lines) == 6
    assert stats.probes == sum(line.probes for line in lines)
    assert stats.brent == sum(line.brent for line in lines)
    assert stats.statuses == {"resolved": 4, "no_root": 0, "multi_root": 0, "domain_fail": 5}
    # a solve without a record solves alike, and a second record adds up
    assert fields.solve_grid(ColumnProblem(), xs, ys, (0.0, 10.0), cfg) == field
    fields.solve_grid(ColumnProblem(), xs, ys, (0.0, 10.0), cfg, stats)
    assert stats.statuses == {"resolved": 8, "no_root": 0, "multi_root": 0, "domain_fail": 10}


def test_both_families_solve_through_one_function():
    assert hj.solve_grid is pq.solve_grid is fields.solve_grid


def reference_point(g, lo, hi, cfg, warm):
    """One point solved on its own: the scan, then Brent's method from every
    coarse bracket, with the line solver's status rules."""
    samples = full_scan(g, lo, hi, cfg.scan_points)
    if not samples:
        return None, Status.DOMAIN_FAIL
    ref = warm if warm is not None else 0.5 * (lo + hi)
    if all(abs(v) <= cfg.resid_tol for _, v in samples):
        return ref, Status.MULTI_ROOT
    try:
        roots = sorted(
            _brent_on(g, *br, cfg) for br in crossings(samples)
        )
    except (DomainError, ConvergenceError):
        return None, Status.DOMAIN_FAIL
    if not roots:
        return None, Status.NO_ROOT
    unique = [roots[0]]
    for r in roots[1:]:
        if abs(r - unique[-1]) > 10.0 * cfg.root_tol * (1.0 + abs(unique[-1])):
            unique.append(r)
    if len(unique) == 1:
        return unique[0], Status.RESOLVED
    first, second = sorted(unique, key=lambda r: (abs(r - ref), r))[:2]
    # two roots as far from the reference, as on a wave symmetric about
    # the range midpoint, are a tie that rounding breaks, and the line's
    # polished roots round apart from Brent's method's here
    assume(abs(abs(second - ref) - abs(first - ref)) > 1e-9)
    return first, Status.MULTI_ROOT


@st.composite
def _lines(draw):
    """(h, dh, lo, hi, scan_points, targets): a t-free h, its derivative,
    and a sorted target axis."""
    lo = draw(st.floats(-5.0, 5.0))
    hi = lo + draw(st.floats(0.5, 10.0))
    mid = 0.5 * (lo + hi)
    if draw(st.booleans()):  # monotone
        a = draw(st.floats(0.1, 10.0))
        b = draw(st.floats(0.0, 3.0))
        c = draw(st.floats(0.0, 5.0))
        d = draw(st.floats(0.1, 5.0))
        sign = draw(st.sampled_from((1.0, -1.0)))
        h = lambda q: sign * (a * (q - mid) + b * (q - mid) ** 3 + c * math.tanh(d * (q - mid)))
        dh = lambda q: sign * (a + 3.0 * b * (q - mid) ** 2 + c * d * (1.0 - math.tanh(d * (q - mid)) ** 2))
        periods = 0.5
    else:  # a tilted wave with up to three periods on [lo, hi]
        amp = draw(st.floats(0.5, 5.0))
        periods = draw(st.floats(0.2, 3.0))
        k = 2.0 * math.pi * periods / (hi - lo)
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        tilt = draw(st.floats(-1.0, 1.0))
        h = lambda q: amp * math.sin(k * (q - lo) + phase) + tilt * (q - lo)
        dh = lambda q: amp * k * math.cos(k * (q - lo) + phase) + tilt
    n = draw(st.integers(max(4, math.ceil(8 * periods)), 48))
    values = [h(q) for q in scan_abscissae(lo, hi, 4 * n)]
    t_lo, t_hi = min(values) - 0.5, max(values) + 0.5
    if draw(st.booleans()):  # an evenly spaced axis, as on a grid
        m = draw(st.integers(1, 40))
        targets = [t_lo + (t_hi - t_lo) * j / m for j in range(m + 1)]
    else:
        targets = sorted(set(draw(st.lists(st.floats(t_lo, t_hi), min_size=1, max_size=25))))
    return h, dh, lo, hi, n, targets


@settings(deadline=None, database=None)
@given(_lines())
def test_line_solver_matches_point_reference(case):
    h, dh, lo, hi, n, targets = case
    cfg = SolverConfig(scan_points=n)
    line = scanned_line(sloped(h, dh), lo, hi, cfg)
    q, status = sweep([line], [0.0], targets)
    warm = None
    for j, t in enumerate(targets):
        g = lambda v, t=t: t - h(v)
        want, want_status = reference_point(g, lo, hi, cfg, warm)
        # conditioning: one sign change per coarse bracket, and a slope that
        # turns the resid_tol stop into a root error far below 1e-10
        for b_lo, b_hi, _, _ in crossings([(v, g(v)) for v in scan_abscissae(lo, hi, n)]):
            fine = [g(v) for v in scan_abscissae(b_lo, b_hi, 64)]
            assume(sum(1 for a, b in zip(fine, fine[1:]) if a * b < 0.0) <= 1)
        if want is not None:
            assume(abs(h(want + 1e-7) - h(want - 1e-7)) >= 0.1 * 2e-7)
        assert status[0][j] is want_status
        assert (q[0][j] is None) == (want is None)
        if want is not None:
            assert abs(q[0][j] - want) <= 1e-10
        warm = want


# --- brackets by bisection, against the full scan -------------------------

def reference_scan(line, target):
    """g = target - level at the line's scan samples, every level evaluated
    again, as :func:`scan_reference.full_scan` keeps them."""
    return full_scan(lambda q: target - line.level(q)[0], line.lo, line.hi, line.cfg.scan_points)


def reference_brackets(line, target):
    """The full scan paired, as the (lo, hi, g_lo, g_hi) tuples
    :meth:`RootLine.brackets` returns."""
    return crossings(reference_scan(line, target))


@st.composite
def _bracket_lines(draw):
    """(line, targets): a line of one of several shapes, and targets that
    include exact sample levels and their neighbouring floats."""
    lo = draw(st.floats(-5.0, 5.0))
    hi = lo + draw(st.floats(0.5, 10.0))
    mid = 0.5 * (lo + hi)
    shape = draw(st.sampled_from(("monotone", "wavy", "flat", "plateau", "holed")))
    if shape == "monotone":
        a, b = draw(st.floats(-10.0, 10.0)), draw(st.floats(-3.0, 3.0))
        level = lambda q: a * (q - mid) + b * (q - mid) ** 3
    elif shape == "wavy":
        amp, periods = draw(st.floats(0.5, 5.0)), draw(st.floats(0.2, 4.0))
        k, phase = 2.0 * math.pi * periods / (hi - lo), draw(st.floats(0.0, 2.0 * math.pi))
        tilt = draw(st.floats(-1.0, 1.0))
        level = lambda q: amp * math.sin(k * (q - lo) + phase) + tilt * (q - lo)
    elif shape == "flat":
        c = draw(st.floats(-3.0, 3.0))
        level = lambda q: c
    elif shape == "plateau":  # a staircase, or a ramp clamped at both ends
        steps = draw(st.integers(1, 6))
        ramp = draw(st.booleans())
        level = (
            (lambda q: max(-1.0, min(1.0, 3.0 * (q - mid) / (hi - lo))))
            if ramp else (lambda q: float(math.floor(steps * (q - lo) / (hi - lo))))
        )
    else:  # a NaN, an infinite level or a domain error over part of the line
        hole = draw(st.sampled_from((math.nan, math.inf, -math.inf, "raise")))
        cut = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)

        def level(q):
            if q < cut:
                return q - mid
            if hole == "raise":
                raise DomainError("hole")
            return hole
    scale = draw(st.sampled_from((0.0, 1.0, 1e3)))
    cfg = SolverConfig(
        scan_points=draw(st.integers(2, 40)), resid_tol=draw(st.sampled_from((1e-12, 0.1)))
    )
    line = scanned_line(sloped(lambda q: level(q) + scale * math.cos(3.0 * q)), lo, hi, cfg)
    levels = [h for _, h in line.samples if math.isfinite(h)] or [0.0]
    t_lo, t_hi = min(levels) - 0.5, max(levels) + 0.5
    targets = draw(st.lists(st.floats(t_lo, t_hi), max_size=12))
    for h in draw(st.lists(st.sampled_from(levels), max_size=6)):
        targets += [h, math.nextafter(h, math.inf), math.nextafter(h, -math.inf)]
    targets += draw(st.lists(st.sampled_from((math.inf, -math.inf, math.nan)), max_size=1))
    return line, targets


@settings(deadline=None, database=None, max_examples=300)
@given(_bracket_lines())
def test_bisection_brackets_equal_the_full_scan(case):
    # the statuses that need no bracket follow the scan: no sample at all
    # fails the point, and g within resid_tol at every sample keeps the
    # cold reference, the range midpoint
    line, targets = case
    for t in targets:
        if not math.isfinite(t):
            assert line.solve(t) == (None, Status.DOMAIN_FAIL, None)
            continue
        scan = reference_scan(line, t)
        assert line.brackets(t) == crossings(scan)
        if not scan:
            assert line.solve(t) == (None, Status.DOMAIN_FAIL, None)
        elif all(abs(v) <= line.cfg.resid_tol for _, v in scan):
            assert line.solve(t) == (0.5 * (line.lo + line.hi), Status.MULTI_ROOT, None)


def test_bisection_brackets_on_a_wave():
    # sin over [0, 3 pi] in four runs: two crossings below 0, four above
    line = scanned_line(sloped(math.sin), 0.0, 3.0 * math.pi, SolverConfig(scan_points=37))
    for t, count in ((-0.93, 2), (-0.4, 2), (0.1, 4), (0.77, 4)):
        got = line.brackets(t)
        assert len(got) == count
        assert got == reference_brackets(line, t)


def test_sample_levels_and_their_neighbours_equal_the_full_scan():
    # the floats next to a sample's level differ from it, so every sign is
    # exact; the level itself is a zero, paired by the zero rules
    for level, lo, hi, n in ((lambda q: q - 0.4, 0.0, 10.0, 24), (math.sin, 0.0, 3.0 * math.pi, 37)):
        line = scanned_line(sloped(level), lo, hi, SolverConfig(scan_points=n))
        for h in [h for _, h in line.samples][1:-1]:
            for t in (math.nextafter(h, -math.inf), h, math.nextafter(h, math.inf)):
                assert line.brackets(t) == reference_brackets(line, t)


def test_a_zero_at_the_first_sample_opens_the_first_pair():
    # levels 0, 0.25, ..., 1 at q = 0, 0.25, ..., 1, rising or falling
    for sign in (1.0, -1.0):
        line = scanned_line(sloped(lambda q: sign * q), 0.0, 1.0, SolverConfig(scan_points=4))
        assert line.brackets(0.0) == [(0.0, 0.25, 0.0, -sign * 0.25)]
        assert line.solve(0.0)[:2] == (0.0, Status.RESOLVED)
    # unless the next level is the same: a plateau from q = 0 to 0.5
    line = scanned_line(sloped(lambda q: max(q, 0.5)), 0.0, 1.0, SolverConfig(scan_points=4))
    assert line.brackets(0.5) == []
    assert line.solve(0.5)[:2] == (None, Status.NO_ROOT)


def test_a_zero_at_a_turning_sample_is_one_bracket():
    # levels -0.5, -0.25, 0, -0.25, -0.5: the runs share the sample at q = 0.5,
    # and only the rising run on its left pairs it
    line = scanned_line(sloped(lambda q: -abs(q - 0.5)), 0.0, 1.0, SolverConfig(scan_points=4))
    assert line.brackets(0.0) == [(0.25, 0.5, 0.25, 0.0)]
    assert line.solve(0.0)[:2] == (0.5, Status.RESOLVED)


def test_a_plateau_on_the_target_closes_the_pair_on_its_left():
    # levels 0, 0.5, 0.5, 0.5, 1: g is zero from q = 0.25 to 0.75
    line = scanned_line(sloped(lambda q: 0.5 if 0.2 < q < 0.8 else q), 0.0, 1.0, SolverConfig(scan_points=4))
    assert [h for _, h in line.samples] == [0.0, 0.5, 0.5, 0.5, 1.0]
    assert line.brackets(0.5) == [(0.0, 0.25, 0.5, 0.0)]
    assert line.solve(0.5)[:2] == (0.25, Status.RESOLVED)


def test_a_non_finite_target_fails_the_point():
    line = scanned_line(identity, 0.0, 1.0, SolverConfig(scan_points=4))
    for t in (math.inf, -math.inf, math.nan):
        assert line.solve(t) == (None, Status.DOMAIN_FAIL, None)


def test_a_bracket_that_raises_in_refinement_fails_the_point():
    # cos 6q on [0, 1] falls through 0 near 0.26 and rises through it near
    # 0.785, where the level raises; the samples at q = k/8 all lie outside
    # (0.76, 0.80), so only the second bracket's refinement meets the raise
    def level(q):
        if 0.76 < q < 0.80:
            raise DomainError("level undefined")
        return math.cos(6.0 * q)

    line = scanned_line(sloped(level), 0.0, 1.0, SolverConfig(scan_points=8))
    assert [(lo, hi) for lo, hi, _, _ in line.brackets(0.0)] == [(0.25, 0.375), (0.75, 0.875)]
    assert line.solve(0.0) == (None, Status.DOMAIN_FAIL, None)
    assert line.solve(0.9)[1] == Status.MULTI_ROOT  # two roots, both outside the gap


def test_linear_pq_tie_bisects_to_the_pair_on_its_left():
    # on the shipped linear_pq grid the root 2x + y = 1.25 at (0.2, 0.85)
    # is a scan sample of [0, 10] in 24 intervals, so g is exactly 0 there
    prob = pq.PQProblem.explicit("2*q - 1", "q^2/2")
    cfg = SolverConfig(root_tol=1e-12, resid_tol=1e-12, scan_points=24)
    (line, _), = prob.lines([0.2], 0.0, 10.0, cfg)[0]
    assert line.brackets(0.85) == [(0.8333333333333334, 1.25, 0.41666666666666663, 0.0)]
    assert reference_brackets(line, 0.85) == line.brackets(0.85)
    assert line.solve(0.85)[:2] == (1.25, Status.RESOLVED)


# --- the sweep's predictor, against per-point weights ----------------------


def reference_predict(history, coord, hermite):
    """The weights computed at each call over (coordinate, root, d root /
    d target) triples: Hermite's through the roots and their derivatives,
    or Lagrange's through the roots alone."""
    if not history:
        return None
    guess = 0.0
    for k, (ck, rk, dk) in enumerate(history):
        basis, rate = 1.0, 0.0
        for m, (cm, _, _) in enumerate(history):
            if m != k:
                basis *= (coord - cm) / (ck - cm)
                rate += 1.0 / (ck - cm)
        if hermite:
            square = basis * basis
            a, b = (1.0 - 2.0 * rate * (coord - ck)) * square, (coord - ck) * square
        else:
            a, b = basis, 0.0
        guess += a * rk + b * dk
    return guess


def reference_guesses(results, axis1, axis2):
    """The guess each point of a sweep gets, from :func:`reference_predict`:
    Hermite along each row, Lagrange down column 0."""

    def extend(history, coord, root, slope):
        if root is None or slope is None or not 0.0 < abs(slope) < math.inf:
            history.clear()
            return
        history.append((coord, root, 1.0 / slope))
        del history[:-4]

    out = {}
    column: list = []
    for i, x in enumerate(axis1):
        out[i, 0] = reference_predict(column, x, False)
        extend(column, x, *results[i, 0])
        row: list = []
        extend(row, axis2[0], *results[i, 0])
        for j in range(1, len(axis2)):
            out[i, j] = reference_predict(row, axis2[j], True)
            extend(row, axis2[j], *results[i, j])
    return out


_uneven_axis = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=8, unique=True).map(sorted)
_point_result = st.one_of(
    st.just((None, None)),  # a failed point
    st.tuples(
        st.floats(-1e3, 1e3),
        st.one_of(st.none(), st.sampled_from((0.0, math.inf, math.nan)), st.floats(-10.0, 10.0)),
    ),
)


@settings(deadline=None, database=None)
@given(_uneven_axis, _uneven_axis, st.data())
def test_sweep_guesses_match_per_point_weights(axis1, axis2, data):
    results = {
        (i, j): data.draw(_point_result)
        for i in range(len(axis1)) for j in range(len(axis2))
    }

    def solver(i, j, warm, guess):
        root, slope = results[i, j]
        return root, Status.RESOLVED if root is not None else Status.NO_ROOT, slope

    lines, calls = recording_lines(solver, axis1, axis2)
    sweep(lines, axis1, axis2)
    guesses = {(i, j): guess for i, j, _, guess in calls}
    # repr tells -0.0 from 0.0, so equal reprs mean equal bits
    assert repr(guesses) == repr(reference_guesses(results, axis1, axis2))


# --- the root kernel, against the probe-then-Brent pair over closures -----


def reference_refine(level, target, br, guess, cfg):
    """Brent's method on the bracket ``br`` = (lo, hi, g_lo, g_hi) after up
    to two probes, over a closure of g that keeps every evaluation's
    (g, level'), each probe a Newton step from the last with the slope the
    level returned there: the refinement :func:`numerics._refine` runs,
    with the probes' and Brent's state in closures and Brent's method
    handing back only its root.  The root is then polished by g / level'
    at its own evaluation, clamped into the enclosure it was found in; an
    end never evaluated has no slope.  Returns (root, level')."""
    lo, hi, g_lo, g_hi = br
    seen = {}  # q -> (g, level') of every evaluation

    def g(q):
        h, slope = level(q)
        seen[q] = (target - h, slope)
        return target - h

    def usable(slope):
        return slope is not None and 0.0 < abs(slope) < math.inf

    def polish(q, lo, hi):
        v, slope = seen.get(q, (None, None))
        return (min(max(q + v / slope, lo), hi) if usable(slope) else q), slope

    if guess is not None and abs(g_lo) > cfg.resid_tol and abs(g_hi) > cfg.resid_tol:
        p = guess
        for _ in range(2):
            if not lo < p < hi:
                break
            try:
                v = g(p)
            except (DomainError, ConvergenceError):
                break
            if v != v:
                break
            if abs(v) <= cfg.resid_tol:
                return polish(p, lo, hi)
            if (v < 0.0) == (g_lo < 0.0):
                lo, g_lo = p, v
            else:
                hi, g_hi = p, v
            slope = seen[p][1]
            if not usable(slope):
                break
            p += v / slope
    root = reference_brent(g, (lo, hi, g_lo, g_hi), cfg)
    return polish(root, lo, hi)


def reference_brent(g, br, cfg):
    """Brent's method on a closure ``g`` over the bracket ``br`` = (lo, hi,
    g_lo, g_hi), as the root finder ran it before the kernel's Brent loop."""
    lo, hi, g_lo, g_hi = br
    if abs(g_lo) <= cfg.resid_tol:
        return lo
    if abs(g_hi) <= cfg.resid_tol:
        return hi
    eps = sys.float_info.epsilon
    a, fa = lo, g_lo
    b, fb = hi, g_hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(cfg.max_iter):
        if abs(fc) < abs(fb):
            a, fa = b, fb
            b, fb = c, fc
            c, fc = a, fa
        tol = 2.0 * eps * abs(b) + 0.5 * cfg.root_tol
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = g(b)
        if abs(fb) <= cfg.resid_tol:
            return b
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise ConvergenceError(
        f"root not isolated after {cfg.max_iter} iterations",
        bracket=(b, c, fb, fc) if b < c else (c, b, fc, fb),
    )


def _refine_outcome(fn, *args):
    """repr of the result, or the error's type, message and bracket."""
    try:
        return repr(fn(*args))
    except (DomainError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc), repr(getattr(exc, "bracket", None))


@st.composite
def _refine_cases(draw):
    """A bracketed line level and its slope, exact or not, with holes where
    it raises or is NaN, a guess and a solver configuration."""
    lo = draw(st.floats(-10.0, 10.0))
    hi = lo + draw(st.floats(1e-6, 10.0))
    root = lo + draw(st.floats(0.05, 0.95)) * (hi - lo)
    kind = draw(st.sampled_from(("monotone", "tanh", "step", "wave")))
    if kind == "monotone":
        a, b = draw(st.floats(1e-3, 1e3)), draw(st.floats(0.0, 10.0))
        shape = lambda q: a * (q - root) + b * (q - root) ** 3
        dshape = lambda q: a + 3.0 * b * (q - root) ** 2
    elif kind == "tanh":
        a, b = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-2, 1e4))
        shape = lambda q: a * math.tanh(b * (q - root))
        dshape = lambda q: a * b * (1.0 - math.tanh(b * (q - root)) ** 2)
    elif kind == "step":
        a, b = draw(st.floats(1e-6, 1e6)), draw(st.floats(1e-6, 1e6))
        shape = lambda q: -a if q < root else b
        dshape = lambda q: 0.0
    else:
        a, k = draw(st.floats(0.1, 3.0)), draw(st.floats(0.5, 20.0))
        shape = lambda q: (q - root) + a * math.sin(k * (q - root))
        dshape = lambda q: 1.0 + a * k * math.cos(k * (q - root))
    sign = draw(st.sampled_from((1.0, -1.0)))
    target = draw(st.sampled_from((0.0, 1.0, -3.5)))
    hole = draw(st.sampled_from((None, "domain", "convergence", "nan")))
    centre = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    width = draw(st.floats(0.01, 0.3)) * (hi - lo)
    # the slope the level reports: exact, scaled, or one the kernel cannot use
    factor = draw(st.sampled_from((1.0, 1.0, 1.0, -1.0, 1e3, 1e-3, 0.0, math.inf, math.nan, None)))

    def level(q):
        if hole is not None and abs(q - centre) <= width:
            if hole == "domain":
                raise DomainError("hole", where=q)
            if hole == "convergence":
                raise ConvergenceError("hole")
            return math.nan, math.nan
        return target - sign * shape(q), None if factor is None else -sign * factor * dshape(q)

    cfg = SolverConfig(
        root_tol=draw(st.sampled_from((1e-12, 1e-6))),
        resid_tol=draw(st.sampled_from((1e-12, 1e-3))),
        max_iter=draw(st.sampled_from((1, 2, 3, 5, 100))),
    )
    ends = []
    for q in (lo, hi):
        try:
            ends.append(target - level(q)[0])
        except (DomainError, ConvergenceError):
            ends.append(sign * shape(q))
    g_lo, g_hi = ends
    small = draw(st.sampled_from((None, None, None, "lo", "hi")))  # an end within resid_tol of 0
    tiny = draw(st.sampled_from((0.0, 0.5, 1.0))) * cfg.resid_tol
    if small == "lo":
        g_lo = math.copysign(tiny, -g_hi)
    elif small == "hi":
        g_hi = math.copysign(tiny, -g_lo)
    assume(g_lo == g_lo and g_hi == g_hi and g_lo * g_hi <= 0.0)
    where = draw(st.sampled_from((None, "inside", "outside", "end", "hole", "root")))
    guess = None if where is None else {
        "inside": lo + draw(st.floats(0.0, 1.0)) * (hi - lo),
        "outside": draw(st.sampled_from((lo, hi))) + draw(st.floats(-5.0, 5.0)),
        "end": draw(st.sampled_from((lo, hi))),
        "hole": centre,
        "root": root + draw(st.floats(-1e-9, 1e-9)) * (hi - lo),
    }[where]
    return level, target, lo, hi, g_lo, g_hi, guess, cfg


def _tally():
    """The counters a line hands the kernel, as ``_refine`` reads them."""
    return SimpleNamespace(probes=0, landed=0, brent=0, refined=0)


def _assert_kernel_matches(level, target, lo, hi, g_lo, g_hi, guess, cfg):
    calls = []

    def logged(q):
        calls.append(q)
        return level(q)

    tally = _tally()
    got = _refine_outcome(_refine, logged, target, lo, hi, g_lo, g_hi, guess, cfg, tally)
    got_calls, calls[:] = calls[:], []
    want = _refine_outcome(reference_refine, logged, target, (lo, hi, g_lo, g_hi), guess, cfg)
    assert got == want
    assert repr(got_calls) == repr(calls)  # every probe and Brent iterate, bitwise
    # the kernel counts every evaluation it tried, those that raised included,
    # and a first probe that landed
    assert tally.probes + tally.brent == len(got_calls) and tally.refined == 1
    first = got_calls[:1] == [guess] and tally.probes >= 1
    try:
        landed = first and abs(target - level(guess)[0]) <= cfg.resid_tol
    except (DomainError, ConvergenceError):
        landed = False
    assert tally.landed == landed


@settings(deadline=None, database=None, max_examples=400)
@given(_refine_cases())
def test_refine_kernel_matches_the_probe_then_brent_pair(case):
    _assert_kernel_matches(*case)


def test_refine_kernel_slope_after_a_nan_probe():
    # a NaN probe ends the probing; the bracket is within root_tol, so
    # Brent's method returns an end without an evaluation, and an end that
    # was never evaluated has no slope
    cfg = SolverConfig(root_tol=1e-6)
    level = lambda q: (math.nan, math.nan) if q == 0.5e-6 else (0.3e-6 - q, -1.0)
    for guess in (0.5e-6, 2e-6, None):
        _assert_kernel_matches(level, 0.0, 0.0, 1e-6, -0.3e-6, 0.7e-6, guess, cfg)
    tally = _tally()
    assert _refine(level, 0.0, 0.0, 1e-6, -0.3e-6, 0.7e-6, 0.5e-6, cfg, tally) == (0.0, None)
    assert (tally.probes, tally.brent) == (1, 0)


def test_refine_kernel_has_no_slope_on_a_bracket_narrower_than_its_tolerance():
    # the bracket is narrower than Brent's enclosure tolerance, so no
    # evaluation runs and the root, an end, has no slope
    lo, hi = 1.0, 1.0 + 1e-12
    target = 1.0 + 4e-13
    tally = _tally()
    root, slope = _refine(identity, target, lo, hi, target - lo, target - hi, None, SolverConfig(), tally)
    assert root in (lo, hi) and slope is None
    assert (tally.refined, tally.probes, tally.brent) == (1, 0, 0)


@pytest.mark.parametrize("slope", [0.0, -0.0, math.nan, None])
def test_an_unusable_slope_ends_the_probing_and_falls_to_brent(slope):
    # the level q^3 - 0.5 through 0 at 0.5^(1/3); the first probe misses,
    # and its slope gives no Newton step, so Brent's method runs at once
    level = lambda q: (q**3 - 0.5, slope)
    cfg = SolverConfig()
    calls = []

    def logged(q):
        calls.append(q)
        return level(q)

    tally = _tally()
    root, got = _refine(logged, 0.0, 0.0, 1.0, 0.5, -0.5, 0.7, cfg, tally)
    assert calls[0] == 0.7 and (tally.probes, tally.landed) == (1, 0) and tally.brent == len(calls) - 1 > 0
    assert abs(root - 0.5 ** (1.0 / 3.0)) <= 1e-12
    assert repr(got) == repr(slope)  # the root is not polished either


def test_an_accepted_probe_is_polished_inside_its_enclosure():
    # the level q at target 0.5: a probe 1e-13 off lands within resid_tol
    cfg = SolverConfig()
    guess = 0.5 + 1e-13
    for slope, want in ((1.0, 0.5), (1e-20, 0.25), (-1e-20, 0.75), (math.inf, guess)):
        # the probes' enclosure is [0.25, 0.75]; a step of 1e7 is clamped to it
        tally = _tally()
        root, got = _refine(lambda q: (q, slope), 0.5, 0.25, 0.75, 0.25, -0.25, guess, cfg, tally)
        assert (root, got) == (want, slope)
        assert (tally.probes, tally.landed, tally.brent) == (1, 1, 0)


# shapes increasing through 0 at 0, with their derivatives; each is also
# monotone in floating point, being a composition of monotone roundings
_MONOTONE_SHAPES = {
    "line": (lambda x: x, lambda x: 1.0),
    "cubic": (lambda x: x + x * x * x, lambda x: 1.0 + 3.0 * x * x),
    "tanh": (math.tanh, lambda x: 1.0 - math.tanh(x) ** 2),
    "atan": (math.atan, lambda x: 1.0 / (1.0 + x * x)),
}


@st.composite
def _wild_guess_cases(draw):
    """A strictly monotone level that crosses the target once in [lo, hi],
    the slope it reports, exact or not, a guess that may be anywhere, and a
    solver configuration."""
    lo = draw(st.floats(-10.0, 10.0))
    hi = lo + draw(st.floats(1e-6, 10.0))
    root = lo + draw(st.floats(0.05, 0.95)) * (hi - lo)
    shape, dshape = _MONOTONE_SHAPES[draw(st.sampled_from(sorted(_MONOTONE_SHAPES)))]
    a = draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(1e-3, 1e3))
    k = draw(st.floats(1e-2, 1e2)) / (hi - lo)
    target = draw(st.sampled_from((0.0, 1.0, -3.5)))
    factor = draw(st.sampled_from((1.0, -1.0, 1e6, 1e-6, 0.0, math.inf, math.nan, None)))
    level = lambda q: (
        target + a * shape(k * (q - root)),
        None if factor is None else factor * a * k * dshape(k * (q - root)),
    )
    guess = draw(st.one_of(
        st.floats(lo, hi),  # inside, or on an end
        st.floats(-30.0, 30.0),  # mostly outside
        st.floats(-1e-9, 1e-9).map(lambda d: root + d),  # next to the root
        st.just(math.nan),
    ))
    cfg = SolverConfig(
        root_tol=draw(st.sampled_from((1e-12, 1e-6))),
        resid_tol=draw(st.sampled_from((1e-12, 1e-3))),
    )
    return level, target, lo, hi, guess, cfg


@settings(deadline=None, database=None, max_examples=400)
@given(_wild_guess_cases())
def test_refine_probes_never_pick_the_root(case):
    # however wild the guess and the slopes, the root is a point that meets
    # Brent's stop rule in the initial bracket, or that point moved toward
    # its Newton step g / level' (the polish, clamped into an enclosure
    # holding the point): the probes only change how fast it is found
    level, target, lo, hi, guess, cfg = case
    g = lambda q: target - level(q)[0]
    g_lo, g_hi = g(lo), g(hi)
    assume(g_lo * g_hi < 0.0)
    calls = []

    def logged(q):
        calls.append(q)
        return level(q)

    tally = _tally()
    root, _ = _refine(logged, target, lo, hi, g_lo, g_hi, guess, cfg, tally)
    assert lo <= root <= hi
    # Brent's enclosure is at most root_tol + 4 eps |root| wide; g is
    # monotone, so a sign change that close shows at that distance (the
    # factor allows for rounding the bound)

    def meets_stop_rule(b):
        reach = (cfg.root_tol + 4.0 * sys.float_info.epsilon * abs(b)) * (1.0 + 1e-9)
        left, right = g(max(lo, b - reach)), g(min(hi, b + reach))
        return abs(g(b)) <= cfg.resid_tol or min(left, right) <= 0.0 <= max(left, right)

    def polishes_to(b, slope):
        if slope is None or not 0.0 < abs(slope) < math.inf:
            return root == b
        step = b + g(b) / slope
        return min(b, step) <= root <= max(b, step)

    points = [(lo, None), (hi, None)] + [(q, level(q)[1]) for q in calls]
    assert any(meets_stop_rule(b) and polishes_to(b, slope) for b, slope in points)
    assert tally.probes + tally.brent == len(calls) and tally.refined == 1


def test_brent_runs_the_reference_loop():
    # the kernel's Brent loop on g itself against the reference: same
    # iterates, same root, and on an exhausted budget the same enclosure;
    # it returns the root with g and the level's slope there, and counts
    # its evaluations
    g = lambda q: math.cos(q) - q
    for max_iter in (1, 2, 100):
        cfg = SolverConfig(max_iter=max_iter)
        lo, hi, g_lo, g_hi = br = (0.0, 1.0, g(0.0), g(1.0))
        got, want = [], []
        level = lambda q: got.append(q) or (-g(q), math.sin(q) + 1.0)  # at target 0, g itself
        tally = _tally()
        got_out = _refine_outcome(_brent, level, 0.0, lo, g_lo, None, hi, g_hi, None, cfg, tally)
        want_out = _refine_outcome(reference_brent, lambda q: want.append(q) or g(q), br, cfg)
        if max_iter == 100:
            b = got[-1]
            assert got_out == repr((b, g(b), math.sin(b) + 1.0)) and want_out == repr(b)
        else:
            assert got_out == want_out
        assert repr(got) == repr(want) and tally.brent == len(got)


def eager_weights(axis, hermite):
    """``table[j][n]``: the weights at ``axis[j]`` through ``axis[j - n : j]``
    for every n <= min(j, 4), all built up front, as :func:`reference_predict`
    takes them."""
    table = []
    for j, coord in enumerate(axis):
        by_n = [()]
        for n in range(1, min(j, 4) + 1):
            nodes = axis[j - n : j]
            weights = []
            for k, ck in enumerate(nodes):
                basis, rate = 1.0, 0.0
                for m, cm in enumerate(nodes):
                    if m != k:
                        basis *= (coord - cm) / (ck - cm)
                        rate += 1.0 / (ck - cm)
                square = basis * basis
                weights.append(
                    ((1.0 - 2.0 * rate * (coord - ck)) * square, (coord - ck) * square) if hermite else (basis, 0.0)
                )
            by_n.append(tuple(weights))
        table.append(by_n)
    return table


@settings(deadline=None, database=None)
@given(_uneven_axis, st.booleans(), st.randoms(use_true_random=False))
def test_lazy_weight_entries_equal_the_eager_table(axis, hermite, rng):
    # entries are built in any order, each when first read, and kept
    eager = eager_weights(axis, hermite)
    keys = [(j, n) for j in range(len(axis)) for n in range(min(j, 4) + 1)]
    rng.shuffle(keys)
    lazy = fields._Weights(axis, hermite)
    for j, n in keys:
        assert repr(lazy[j, n]) == repr(eager[j][n])
    assert len(lazy) == len(keys)
    assert all(lazy[key] is lazy[key] for key in keys)


@settings(deadline=None, database=None)
@given(
    st.integers(1, 4),
    st.lists(st.floats(0.3, 2.0), min_size=4, max_size=4),
    st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8),
    st.booleans(),
)
def test_weights_reproduce_polynomials_from_values_and_derivatives(n, steps, coefficients, hermite):
    # from n points, Hermite's weights give back every polynomial of degree
    # up to 2n - 1 from its values and derivatives, and Lagrange's every one
    # up to n - 1 from its values, to rounding of the weighted sum
    axis = [0.0]
    for step in steps[:n]:
        axis.append(axis[-1] + step)
    degree = 2 * n - 1 if hermite else n - 1
    c = coefficients[: degree + 1]
    poly = lambda x: sum(ck * x**k for k, ck in enumerate(c))
    dpoly = lambda x: sum(k * ck * x ** (k - 1) for k, ck in enumerate(c) if k)
    weights = fields._Weights(axis, hermite)[n, n]
    history = [(poly(x), dpoly(x)) for x in axis[:n]]
    got = fields._predict(history, weights)
    scale = sum(abs(a * y) + abs(b * dy) for (a, b), (y, dy) in zip(weights, history))
    assert abs(got - poly(axis[n])) <= 1e-12 * max(scale, abs(poly(axis[n])), 1.0)
