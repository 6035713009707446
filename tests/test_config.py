import os
import pathlib

import pytest

from hjgen import pq
from hjgen.cli import main
from hjgen.config import load_config, parse_config
from hjgen.errors import ConfigError
from hjgen.expr import Num, parse
from hjgen.hj import HJProblem
from hjgen.pq import PQProblem

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

HJ_TEXT = """
# sample
[problem]
type = hj
a = "1"
V = "x^2"    # trailing comment
G = "q^2/2"
sigma = -1
x0 = 0.25
eps_adm = 1e-3

[grid]
x = 0.1:0.5:5
t = 0.0, 0.1, 0.25, 0.4

[solver]
root_tol = 1e-11
scan_points = 12
q_min = 0.05
q_max = 6

[output]
field = out.csv
report = out.txt
min_resolved = 0.95
max_residual = 1e-3
"""


def test_parse_hj_config():
    cfg = parse_config(HJ_TEXT)
    assert isinstance(cfg.problem, HJProblem)
    assert cfg.problem.sigma == -1
    assert cfg.problem.x0 == 0.25
    assert cfg.problem.eps_adm == 1e-3
    assert cfg.axis1 == pytest.approx((0.1, 0.2, 0.3, 0.4, 0.5))
    assert cfg.axis1[-1] == 0.5  # endpoint exact
    assert cfg.axis2 == (0.0, 0.1, 0.25, 0.4)
    assert cfg.solver.root_tol == 1e-11
    assert cfg.solver.scan_points == 12
    assert cfg.solver.quad_tol == 1e-10  # default
    assert cfg.q_range == (0.05, 6.0)
    assert cfg.field_path == "out.csv"
    assert cfg.min_resolved == 0.95
    assert cfg.max_residual == 1e-3


PQ_TEXT = """
[problem]
type = pq
kind = explicit
f = "2*q - 1"
phi = "q^2/2"

[grid]
x = 0:1:3
y = 0:1:3

[solver]
q_min = 0
q_max = 10
"""


def test_parse_pq_config_with_defaults():
    cfg = parse_config(PQ_TEXT)
    assert isinstance(cfg.problem, PQProblem)
    assert cfg.problem.kind == "explicit"
    # the f key is the scaled_x family's G under the scale 1
    assert (cfg.problem.scale, cfg.problem.gfun) == (Num(1.0), parse("2*q - 1"))
    assert cfg.field_path is None
    assert cfg.min_resolved == 0.99
    assert cfg.max_residual == 1e-6


def _expect_error(text, fragment, line=None):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)
    if line is not None:
        assert err.value.line == line


def test_bad_expression_names_key_and_position():
    text = HJ_TEXT.replace('V = "x^2"', 'V = "x^^2"')
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "'V'" in msg and "position 2" in msg


def test_overflowing_literal_is_a_config_error():
    # 1e999 is not a number; it used to reach the solver as a NameError
    text = HJ_TEXT.replace('V = "x^2"', 'V = "x*1e999"')
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "'V'" in msg and "position 2" in msg and "1e999" in msg


def test_unknown_key_reports_line():
    text = HJ_TEXT.replace("x0 = 0.25", "x9 = 0.25")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "unknown key 'x9'" in str(err.value)
    assert err.value.line == 9


def test_unknown_section_and_duplicates():
    _expect_error("[weird]\nk = 1\n", "unknown section")
    _expect_error("[solver]\nq_min = 0\nq_min = 1\n", "duplicate key")
    _expect_error("[grid]\nx = 0:1:3\n[grid]\ny = 0:1:3\n", "duplicate section")


def test_missing_required_pieces():
    _expect_error("[problem]\ntype = hj\n", "missing")
    _expect_error(PQ_TEXT.replace("q_min = 0\n", ""), "q_min")
    _expect_error(PQ_TEXT.replace("kind = explicit", "kind = odd"), "unknown pq kind")
    _expect_error(HJ_TEXT.replace("type = hj", "type = wave"), "unknown problem type")


def test_unknown_pq_kind_names_the_kind_line(tmp_path, monkeypatch, capsys):
    # scaled_y.cfg names its type on line 6 and its kind on line 7
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "scaled_y.cfg"
    cfg.write_text((CONFIGS / "scaled_y.cfg").read_text().replace("kind = scaled_y", "kind = wave"))
    assert main(["solve", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: line 7: unknown pq kind 'wave'\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_axis_validation():
    _expect_error(PQ_TEXT.replace("x = 0:1:3", "x = 1:0:3"), "axis")
    _expect_error(PQ_TEXT.replace("x = 0:1:3", "x = 0:1:1"), "axis")
    _expect_error(PQ_TEXT.replace("x = 0:1:3", "x = 0.5, 0.5, 1"), "increasing")
    _expect_error(PQ_TEXT.replace("x = 0:1:3", 'x = "0:1:3"'), "unquoted")
    # a non-finite value is named with its line, in a list or from min:max
    for axis in ("0.5, 1.0, inf", "0.5, nan, 1.0", "-1e309, 0.5", "0:inf:3", "0:1e309:3"):
        _expect_error(PQ_TEXT.replace("x = 0:1:3", f"x = {axis}"), "'x' values must be finite", line=9)
    _expect_error(PQ_TEXT.replace("x = 0:1:3", "x = nan:1:3"), "min:max:count", line=9)
    for axis in ("1:0:3", "0.5, 0.5, 1", "0:1:1"):
        with pytest.raises(ConfigError) as err:
            parse_config(PQ_TEXT.replace("x = 0:1:3", f"x = {axis}"))
        assert err.value.line == 9


@pytest.mark.parametrize(
    "axis, message",
    [
        ("0:1:1", "axis 'x' needs at least 2 points"),
        ("0:1:0", "axis 'x' needs at least 2 points"),
        ("0:1:-3", "axis 'x' needs at least 2 points"),
        ("1:0:3", "axis 'x' needs min < max"),
        ("0.5:0.5:3", "axis 'x' needs min < max"),
    ],
)
def test_a_well_formed_axis_range_names_the_rule_it_breaks(axis, message):
    # the spec parses, so the format message would mislead
    with pytest.raises(ConfigError) as err:
        parse_config(PQ_TEXT.replace("x = 0:1:3", f"x = {axis}"))
    assert str(err.value) == f"line 9: {message}" and err.value.line == 9


@pytest.mark.parametrize(
    "key, old, line",
    [
        ("x0", "x0 = 0.25", 9),
        ("eps_adm", "eps_adm = 1e-3", 10),
        ("root_tol", "root_tol = 1e-11", 17),
        ("resid_tol", None, 19),  # added after scan_points
        ("quad_tol", None, 19),
        ("q_min", "q_min = 0.05", 19),
        ("q_max", "q_max = 6", 20),
        ("min_resolved", "min_resolved = 0.95", 25),
        ("max_residual", "max_residual = 1e-3", 26),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_numbers_are_named_with_their_line(key, old, line, value):
    if old is None:
        text = HJ_TEXT.replace("scan_points = 12", f"scan_points = 12\n{key} = {value}")
    else:
        text = HJ_TEXT.replace(old, f"{key} = {value}")
    _expect_error(text, f"{key!r} must be finite", line=line)


@pytest.mark.parametrize(
    "old, new, message, line",
    [
        ("root_tol = 1e-11", "root_tol = 0", "'root_tol' must be positive", 17),
        ("scan_points = 12", "scan_points = 1", "'scan_points' must be at least 2", 18),
        ("scan_points = 12", "scan_points = 12\nmax_iter = 0", "'max_iter' must be at least 1", 19),
        ("q_min = 0.05", "q_min = 7", "'q_min' must be below 'q_max'", 19),
        ("eps_adm = 1e-3", "eps_adm = -1", "'eps_adm' must be positive", 10),
        ("x0 = 0.25", 'x0 = "0.25"', "'x0' must be an unquoted number", 9),
        ('V = "x^2"', "V = x^2", "expression for 'V' must be double-quoted", 6),
        ("scan_points = 12", "scan_points = 12.5", "bad integer for 'scan_points': '12.5'", 18),
        ("scan_points = 12", 'scan_points = "12"', "'scan_points' must be an unquoted integer", 18),
        ("x = 0.1:0.5:5", "x = 0.1:0.5", "axis 'x' must be min:max:count", 13),
        (
            'G = "q^2/2"',
            'G = "q^2/2" x    # trailing comment',
            "unexpected text after quoted value: 'x'",
            7,
        ),
        ("x0 = 0.25", "x0 =   # no value", "missing value", 9),
        ("x0 = 0.25", "= 0.25", "missing key before '='", 9),
        ("min_resolved = 0.95", "min_resolved = most", "bad number for 'min_resolved': 'most'", 25),
        ("max_residual = 1e-3", "max_residual = 1e", "bad number for 'max_residual': '1e'", 26),
        ("field = out.csv", "field =", "missing value", 23),
        ("report = out.txt", "report =   # no value", "missing value", 24),
    ],
    ids=[
        "root_tol", "scan_points", "max_iter", "q_min", "eps_adm",
        "quoted_number", "unquoted_expression", "bad_integer", "quoted_integer",
        "no_count", "text_after_quote", "no_value", "no_key",
        "min_resolved", "max_residual", "no_field", "no_report",
    ],
)
def test_bad_values_are_named_with_their_line(old, new, message, line):
    _expect_error(HJ_TEXT.replace(old, new), message, line=line)


# The HJ keys spread over the sections in the reverse of the order they are
# read, each section with a comment line that an edit turns into an unknown key
READ_ORDER_TEXT = """[output]
# output extra
max_residual = 1e-3
min_resolved = 0.95
report = out.txt
field = out.csv
[solver]
# solver extra
scan_points = 12
max_iter = 50
quad_tol = 1e-10
resid_tol = 1e-12
root_tol = 1e-11
q_max = 6
q_min = 0.05
[grid]
# grid extra
t = 0.0:0.4:5
x = 0.1:0.5:5
[problem]
# problem extra
eps_adm = 1e-3
x0 = 0.25
sigma = -1
G = "q^2/2"
V = "x^2"
a = "1"
type = hj
"""
# (old, new, message, line) in the order parse_config finds the errors; the
# edits after an error apply before it, so the q_max edit sees the range edit
READ_ORDER = [
    ('a = "1"', 'a = "y"', "expression for 'a' takes only x, not 'y'", 27),
    ('V = "x^2"', "V = x^2", "expression for 'V' must be double-quoted", 26),
    ('G = "q^2/2"', 'G = "q^^2"', "in expression for 'G'", 25),
    ("sigma = -1", "sigma = 2", "sigma must be +1 or -1", 24),
    ("x0 = 0.25", "x0 = nan", "'x0' must be finite", 23),
    ("eps_adm = 1e-3", "eps_adm = 0", "'eps_adm' must be positive", 22),
    ("# problem extra", "extra = 1", "unknown key 'extra' in [problem]", 21),
    ("x = 0.1:0.5:5", "x = 0.1:0.5", "axis 'x' must be min:max:count", 19),
    ("t = 0.0:0.4:5", "t = 0:inf:5", "axis 't' values must be finite", 18),
    ("# grid extra", "extra = 1", "unknown key 'extra' in [grid]", 17),
    ("q_min = 0.05", "q_min = one", "bad number for 'q_min': 'one'", 15),
    ("q_max = 0.05", "q_max = nan", "'q_max' must be finite", 14),
    ("q_max = 6", "q_max = 0.05", "'q_min' must be below 'q_max'", 15),
    ("root_tol = 1e-11", "root_tol = -1", "'root_tol' must be positive", 13),
    ("resid_tol = 1e-12", 'resid_tol = "1"', "'resid_tol' must be an unquoted number", 12),
    ("quad_tol = 1e-10", "quad_tol = inf", "'quad_tol' must be finite", 11),
    ("max_iter = 50", "max_iter = 0", "'max_iter' must be at least 1", 10),
    ("scan_points = 12", "scan_points = 1.5", "bad integer for 'scan_points': '1.5'", 9),
    ("# solver extra", "extra = 1", "unknown key 'extra' in [solver]", 8),
    ("report = out.txt", "report = ./out.csv", "'report' names the same file as 'field'", 5),
    ("min_resolved = 0.95", "min_resolved = nan", "'min_resolved' must be finite", 4),
    ("max_residual = 1e-3", "max_residual = most", "bad number for 'max_residual': 'most'", 3),
    ("# output extra", "extra = 1", "unknown key 'extra' in [output]", 2),
]


@pytest.mark.parametrize("first", range(len(READ_ORDER) + 1))
def test_errors_are_found_in_reading_order(first):
    # with the errors from ``first`` on, the first of them is the one raised,
    # whatever the order of the sections and keys in the file
    text = READ_ORDER_TEXT
    for old, new, _, _ in reversed(READ_ORDER[first:]):
        assert text.count(old) == 1
        text = text.replace(old, new)
    if first == len(READ_ORDER):
        assert parse_config(text).problem.sigma == -1
    else:
        _expect_error(text, READ_ORDER[first][2], line=READ_ORDER[first][3])


@pytest.mark.parametrize("report", ["out.csv", "./out.csv", "sub/../out.csv", "link.csv"])
def test_report_and_field_must_be_different_files(report, tmp_path, monkeypatch):
    # the report would overwrite the field, and the solve still passed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.csv").write_text("")
    os.symlink("out.csv", tmp_path / "link.csv")
    text = HJ_TEXT.replace("report = out.txt", f"report = {report}")
    _expect_error(text, "'report' names the same file as 'field'", line=24)


def test_solve_rejects_a_report_on_the_field_before_writing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "same.cfg"
    cfg.write_text(PQ_TEXT + "[output]\nfield = f.csv\nreport = f.csv\n")
    assert main(["solve", str(cfg)]) == 2
    err = "error: line 17: 'report' names the same file as 'field'\n"
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "text, old, new, key, line",
    [
        (HJ_TEXT, "type = hj", 'type = "hj"', "type", 4),
        (HJ_TEXT, "sigma = -1", 'sigma = "-1"', "sigma", 8),
        (PQ_TEXT, "kind = explicit", 'kind = "explicit"', "kind", 4),
    ],
    ids=["type", "sigma", "kind"],
)
def test_quoted_keywords_are_named_with_their_line(text, old, new, key, line):
    # a keyword is unquoted like a number; only a path may be quoted
    _expect_error(text.replace(old, new), f"{key!r} must be unquoted", line=line)


@pytest.mark.parametrize("sigma, value", [("1", 1), ("+1", 1), ("-1", -1)])
def test_sigma_signs(sigma, value):
    assert parse_config(HJ_TEXT.replace("sigma = -1", f"sigma = {sigma}")).problem.sigma == value


def test_axis_min_max_count_points():
    # equispaced, with the last point max exactly
    cfg = parse_config(PQ_TEXT.replace("x = 0:1:3", "x = 0.1:0.7:7"))
    assert cfg.axis1 == tuple(0.1 + (0.7 - 0.1) * i / 6 for i in range(6)) + (0.7,)


def test_value_syntax_errors():
    _expect_error("[problem]\ntype\n", "key = value", line=2)
    _expect_error("k = 1\n", "outside any", line=1)
    _expect_error('[problem]\ntype = "hj\n', "unterminated", line=2)
    _expect_error(HJ_TEXT.replace("type = hj", "type = hj extra"), "unknown problem type")
    _expect_error(HJ_TEXT.replace("sigma = -1", "sigma = 3"), "sigma")
    _expect_error(HJ_TEXT.replace("q_max = 6", "q_max = 0.01"), "q_min")


def test_scaled_problem_round_trip():
    text = """
[problem]
type = pq
kind = scaled_y
scale = "2 + sin(y)"
G = "p^2"
phi = "p^2/2"

[grid]
x = 0:1:3
y = 0:0.4:3

[solver]
q_min = 0
q_max = 5
"""
    cfg = parse_config(text)
    assert cfg.problem.kind == "scaled_y"
    assert cfg.problem.lines_are_columns  # the root variable is p
    assert (cfg.problem.scale, cfg.problem.gfun) == (parse("2 + sin(y)"), parse("p^2"))


SCALED_TEXT = """
[problem]
type = pq
kind = {kind}
scale = "{scale}"
G = "{G}"
phi = "{phi}"

[grid]
x = 0:1:3
y = 0:1:3

[solver]
q_min = 0
q_max = 5
"""


@pytest.mark.parametrize(
    "text, key, var, name, line",
    [
        (HJ_TEXT.replace('V = "x^2"', 'V = "y^2"'), "V", "x", "y", 6),
        (HJ_TEXT.replace('G = "q^2/2"', 'G = "x*q"'), "G", "q", "x", 7),
        (PQ_TEXT.replace('phi = "q^2/2"', 'phi = "p^2/2"'), "phi", "q", "p", 6),
        (SCALED_TEXT.format(kind="scaled_x", scale="1 + y", G="q", phi="q"), "scale", "x", "y", 5),
        (SCALED_TEXT.format(kind="scaled_y", scale="1 + y", G="q^2", phi="p"), "G", "p", "q", 6),
    ],
    ids=["hj", "hj_G", "explicit", "scaled_x", "scaled_y"],
)
def test_expression_of_a_foreign_variable_names_key_and_line(text, key, var, name, line):
    # each key is a function of one variable: a and V of x, G of q, and a pq
    # scale of its line coordinate, G and phi of its root
    _expect_error(text, f"expression for {key!r} takes only {var}, not {name!r}", line=line)


def test_kinds_table_covers_the_pq_kinds():
    from hjgen.config import _PQ_KINDS

    assert tuple(_PQ_KINDS) == pq.KINDS


@pytest.mark.parametrize(
    "kind, key, line",
    [("explicit", "f", 5), ("explicit", "phi", 6)]
    + [
        (kind, key, line)
        for kind in ("scaled_x", "scaled_y")
        for key, line in (("scale", 5), ("G", 6), ("phi", 7))
    ],
)
def test_pq_expression_keys_must_be_quoted(kind, key, line):
    if kind == "explicit":
        text = PQ_TEXT
    else:
        root = "p" if kind == "scaled_y" else "q"
        text = SCALED_TEXT.format(kind=kind, scale="1", G=root, phi=root)
    # the key's line with its quotes taken off
    old = next(ln for ln in text.splitlines() if ln.startswith(f"{key} = "))
    text = text.replace(old, old.replace('"', ""))
    _expect_error(text, f"expression for {key!r} must be double-quoted", line=line)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.cfg"))
