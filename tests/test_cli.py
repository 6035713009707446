import os
import pathlib
import re
import subprocess
import sys

import pytest

from hjgen import cli
from hjgen.cli import main
from hjgen.fields import read_field_csv

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _run_module(*argv):
    # ``python -m hjgen`` on this checkout's package, not on an installed copy
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-m", "hjgen", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


SMALL_FREE = """
[problem]
type = hj
a = "1"
V = "0"
G = "q"
sigma = +1
x0 = 0

[grid]
x = 0.5:2.0:21
t = 0.0:0.4:17

[solver]
root_tol = 1e-12
resid_tol = 1e-12
quad_tol = 1e-10
scan_points = 16
q_min = 0.01
q_max = 20

[output]
field = {field}
report = {report}
min_resolved = 0.99
max_residual = 5e-3
"""

SMALL_LINEAR = """
[problem]
type = pq
kind = explicit
f = "2*q - 1"
phi = "q^2/2"

[grid]
x = 0.0:1.0:9
y = 0.0:1.0:9

[solver]
q_min = 0
q_max = 10

[output]
field = {field}
report = {report}
max_residual = 1e-8
"""


@pytest.fixture()
def free_run(tmp_path):
    cfg = tmp_path / "free.cfg"
    field = tmp_path / "field.csv"
    report = tmp_path / "report.txt"
    cfg.write_text(SMALL_FREE.format(field=field, report=report))
    code = main(["solve", str(cfg)])
    return cfg, field, report, code


def test_solve_free_particle_end_to_end(free_run):
    cfg, field_path, report_path, code = free_run
    assert code == 0
    report = report_path.read_text()
    assert "resolved_fraction: 1.000000" in report
    assert report.strip().endswith("PASS")
    field = read_field_csv(str(field_path))
    worst = 0.0
    for i, x in enumerate(field.axis1):
        for j, t in enumerate(field.axis2):
            worst = max(worst, abs(field.value[i][j] - x * x / (4 * (1 - t))))
    assert worst <= 1e-8


def test_solve_is_deterministic(free_run):
    _, field_path, _, code = free_run
    assert code == 0
    first = field_path.read_bytes()
    assert main(["solve", str(free_run[0])]) == 0
    assert field_path.read_bytes() == first  # identical config, identical bytes


def test_solve_unaffected_by_other_solves_in_the_process(free_run, tmp_path):
    # a pq solve and a second hj grid in between leave no state that moves
    # the first config's output
    _, field_path, _, code = free_run
    assert code == 0
    first = field_path.read_bytes()
    pq_cfg = tmp_path / "lin.cfg"
    pq_cfg.write_text(SMALL_LINEAR.format(field=tmp_path / "f.csv", report=tmp_path / "r.txt"))
    assert main(["solve", str(pq_cfg)]) == 0
    other = tmp_path / "other.cfg"
    text = SMALL_FREE.format(field=tmp_path / "g.csv", report=tmp_path / "s.txt")
    other.write_text(text.replace("x = 0.5:2.0:21", "x = 0.7:1.9:13"))
    assert main(["solve", str(other)]) == 0
    assert main(["solve", str(free_run[0])]) == 0
    assert field_path.read_bytes() == first


def test_solve_bad_expression_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    text = SMALL_FREE.format(field=tmp_path / "f.csv", report=tmp_path / "r.txt")
    cfg.write_text(text.replace('V = "0"', 'V = "x^^2"'))
    assert main(["solve", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'V'" in err and "position" in err


def test_solve_without_a_field_path_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nofield.cfg"
    text = SMALL_LINEAR.format(field=tmp_path / "f.csv", report=tmp_path / "r.txt")
    cfg.write_text(text.replace(f"field = {tmp_path / 'f.csv'}\n", ""))
    assert main(["solve", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: [output] must name a field CSV path for solve\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_solve_without_roots_exits_1(tmp_path, capsys):
    cfg = tmp_path / "noroot.cfg"
    text = SMALL_LINEAR.format(field=tmp_path / "f.csv", report=tmp_path / "r.txt")
    cfg.write_text(text.replace("q_min = 0\nq_max = 10", "q_min = 50\nq_max = 60"))
    assert main(["solve", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "resolved_fraction: 0.000000" in out


def test_verify_round_trip_and_corruption(tmp_path, capsys):
    cfg = tmp_path / "lin.cfg"
    field = tmp_path / "f.csv"
    cfg.write_text(SMALL_LINEAR.format(field=field, report=tmp_path / "r.txt"))
    assert main(["solve", str(cfg)]) == 0
    assert main(["verify", str(cfg), str(field)]) == 0
    capsys.readouterr()

    lines = field.read_text().splitlines()
    # corrupt the u value of the centre row (grid is 9x9, header + 81 rows)
    target = 1 + 4 * 9 + 4
    cols = lines[target].split(",")
    cols[3] = repr(float(cols[3]) + 1.0)
    lines[target] = ",".join(cols)
    field.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(cfg), str(field)]) == 1
    out = capsys.readouterr().out
    assert "status: FAIL" in out
    row = next(line for line in out.splitlines() if line.startswith("worst_point"))
    i, j = eval(row.split("index")[1].split(" at")[0].strip())
    assert abs(i - 4) <= 1 and abs(j - 4) <= 1


def test_verify_nan_cell_fails_and_names_a_point(tmp_path, capsys):
    # a NaN residual counts as infinite: it fails the gate and is the worst point
    cfg = tmp_path / "lin.cfg"
    field = tmp_path / "f.csv"
    cfg.write_text(SMALL_LINEAR.format(field=field, report=tmp_path / "r.txt"))
    assert main(["solve", str(cfg)]) == 0
    capsys.readouterr()
    lines = field.read_text().splitlines()
    target = 1 + 4 * 9 + 4  # the u value of the centre point (4, 4)
    cols = lines[target].split(",")
    cols[3] = "nan"
    lines[target] = ",".join(cols)
    field.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(cfg), str(field)]) == 1
    out = capsys.readouterr().out
    assert "residual_max_abs: inf\n" in out
    assert "residual_mean_abs: inf\n" in out
    assert "status: FAIL\n" in out
    # sixth order on 9 points: rows 3..5 are interior, and (3, 4) is the
    # first whose stencil meets the centre
    assert "worst_point: index (3, 4) at (0.375, 0.5)\n" in out


def test_verify_truncated_csv_exits_2(tmp_path):
    cfg = tmp_path / "lin.cfg"
    field = tmp_path / "f.csv"
    cfg.write_text(SMALL_LINEAR.format(field=field, report=tmp_path / "r.txt"))
    assert main(["solve", str(cfg)]) == 0
    text = field.read_text().splitlines()
    field.write_text("\n".join(text[: len(text) // 2]) + "\n0.5,0.5\n")
    assert main(["verify", str(cfg), str(field)]) == 2


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
POWER_PQ = CONFIGS / "power_pq.cfg"


@pytest.mark.parametrize(
    "line, column, message",
    [(1300, 2, "bad root value 'nan'"), (2, 0, "bad axis value 'nan'")],
)
def test_verify_rejects_a_nan_root_or_axis(tmp_path, monkeypatch, capsys, line, column, message):
    # a resolved point needs a root and a grid point finite coordinates: the
    # error names the line of the NaN, not the grid's end
    monkeypatch.chdir(tmp_path)
    assert main(["solve", str(POWER_PQ)]) == 0
    field = tmp_path / "power_pq_field.csv"
    lines = field.read_text().splitlines()
    cols = lines[line - 1].split(",")
    assert cols[-1] == "resolved"
    cols[column] = "nan"
    lines[line - 1] = ",".join(cols)
    field.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(POWER_PQ), str(field)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"


def test_two_point_axis_has_no_interior_point(tmp_path, monkeypatch, capsys):
    # a grid with 2 points on t has no interior point: solve writes the
    # field and a FAIL report, and verify of that field fails the same way
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "harmonic.cfg"
    text = (CONFIGS / "harmonic.cfg").read_text()
    cfg.write_text(text.replace("t = 0.2:0.6:41", "t = 0.2:0.6:2"))
    assert main(["solve", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "residual: no usable interior point" in out and "status: FAIL" in out
    assert (tmp_path / "harmonic_report.txt").read_text() == out
    field = tmp_path / "harmonic_field.csv"
    assert read_field_csv(str(field)).shape == (41, 2)
    assert main(["verify", str(cfg), str(field)]) == 1
    assert capsys.readouterr().out == out


FREE_PARTICLE = POWER_PQ.with_name("free_particle.cfg")


@pytest.mark.parametrize(
    "config, column, text, message",
    [
        (POWER_PQ, 2, "inf", "bad root value 'inf'"),
        (FREE_PARTICLE, 4, "nan", "bad momentum value 'nan'"),
    ],
    ids=["inf_root", "nan_momentum"],
)
def test_verify_and_oracle_reject_a_non_finite_root_or_momentum(
    tmp_path, monkeypatch, capsys, config, column, text, message
):
    # a filled root or momentum cell must be finite: verify, and oracle on
    # an action field, exit 2 naming the cell's line
    monkeypatch.chdir(tmp_path)
    assert main(["solve", str(config)]) == 0
    field = tmp_path / f"{config.stem}_field.csv"
    lines = field.read_text().splitlines()
    cols = lines[1299].split(",")
    assert cols[-1] == "resolved"
    cols[column] = text
    lines[1299] = ",".join(cols)
    field.write_text("\n".join(lines) + "\n")
    commands = [["verify", str(config), str(field)]]
    if config == FREE_PARTICLE:
        commands.append(["oracle", "free_particle", str(field), "--param", "a=1", "--param", "C=1"])
    capsys.readouterr()
    for args in commands:
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: line 1300: {message}\n"


def test_verify_kind_mismatch_exits_2(tmp_path):
    pq_cfg = tmp_path / "lin.cfg"
    pq_field = tmp_path / "f.csv"
    pq_cfg.write_text(SMALL_LINEAR.format(field=pq_field, report=tmp_path / "r.txt"))
    assert main(["solve", str(pq_cfg)]) == 0
    hj_cfg = tmp_path / "free.cfg"
    hj_cfg.write_text(
        SMALL_FREE.format(field=tmp_path / "g.csv", report=tmp_path / "s.txt")
    )
    assert main(["verify", str(hj_cfg), str(pq_field)]) == 2


def test_oracle_free_particle(free_run, capsys):
    _, field_path, _, code = free_run
    assert code == 0
    assert main(
        ["oracle", "free_particle", str(field_path), "--param", "a=1", "--param", "C=1"]
    ) == 0
    out = capsys.readouterr().out
    assert "status: PASS" in out
    # wrong constant: large error, quality failure
    assert main(
        ["oracle", "free_particle", str(field_path), "--param", "C=2"]
    ) == 1


def test_oracle_harmonic_and_mismatched_generator(tmp_path):
    cfg = tmp_path / "osc.cfg"
    field = tmp_path / "osc.csv"
    cfg.write_text(
        """
[problem]
type = hj
a = "1"
V = "x^2"
G = "q^2/2"
x0 = 0
eps_adm = 1e-3

[grid]
x = 0.15:0.45:9
t = 0.2:0.5:9

[solver]
scan_points = 16
q_min = 0.05
q_max = 6

[output]
field = {field}
max_residual = 1e-3
""".format(field=field)
    )
    assert main(["solve", str(cfg)]) == 0
    assert main(
        ["oracle", "harmonic", str(field), "--param", "G=q^2/2"]
    ) == 0
    assert main(
        ["oracle", "harmonic", str(field), "--param", "G=q^3"]
    ) == 1


def test_oracle_domain_error_names_the_operation(tmp_path, capsys):
    # G = ln(q - 0.5) leaves its domain at the field's roots below q = 0.5;
    # the compiled generator must report the operation and its argument
    cfg = tmp_path / "osc.cfg"
    field = tmp_path / "osc.csv"
    cfg.write_text(
        """
[problem]
type = hj
a = "1"
V = "x^2"
G = "q^2/2"
eps_adm = 1e-3

[grid]
x = 0.15:0.45:5
t = 0.2:0.5:5

[solver]
scan_points = 16
q_min = 0.05
q_max = 6

[output]
field = {field}
max_residual = 1e-3
""".format(field=field)
    )
    assert main(["solve", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["oracle", "harmonic", str(field), "--param", "G=ln(q-0.5)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ln argument -0.")
    assert err.rstrip().endswith("must be positive")


def test_oracle_separation_matches_free_particle_closed_form(tmp_path):
    # build a field whose S column holds the separated solution x + t
    field = tmp_path / "sep.csv"
    rows = ["x,t,q,S,p,status"]
    for x in (0.0, 0.5, 1.0):
        for t in (0.0, 0.5):
            rows.append(f"{x},{t},1,{x + t},1,resolved")
    field.write_text("\n".join(rows) + "\n")
    assert main(
        [
            "oracle",
            "separation",
            str(field),
            "--param", "a=1",
            "--param", "V=0",
            "--param", "C=1",
            "--param", "x0=0",
        ]
    ) == 0


def test_oracle_nan_deviation_fails(free_run, capsys):
    # a NaN deviation from the field counts as infinite; a NaN oracle
    # parameter is an input failure (test_oracle_non_finite_param_exits_2)
    _, field_path, _, _ = free_run
    capsys.readouterr()
    lines = field_path.read_text().splitlines()
    target = 1 + 10 * 17 + 8  # the S value of point (10, 8) of the 21 x 17 grid
    cols = lines[target].split(",")
    cols[3] = "nan"
    lines[target] = ",".join(cols)
    field_path.write_text("\n".join(lines) + "\n")
    assert main(["oracle", "free_particle", str(field_path), "--param", "C=1"]) == 1
    out = capsys.readouterr().out
    assert "max_abs_err: inf\n" in out and "status: FAIL\n" in out


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_oracle_non_finite_threshold_exits_2(free_run, capsys, threshold):
    # a gate that no deviation can fail or pass is an input failure, not a
    # comparison that ends in FAIL
    _, field_path, _, _ = free_run
    capsys.readouterr()
    assert main(["oracle", "free_particle", str(field_path), "--threshold", threshold]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --threshold must be finite, got {float(threshold)!r}\n"


@pytest.mark.parametrize(
    "name, param",
    [
        ("free_particle", "C=nan"),
        ("free_particle", "a=nan"),
        ("free_particle", "C=inf"),
        ("free_particle", "a=inf"),
        ("separation", "x0=inf"),
        ("separation", "C=nan"),
    ],
)
def test_oracle_non_finite_param_exits_2(free_run, capsys, name, param):
    # rejected where it enters, naming the parameter, before any comparison
    _, field_path, _, _ = free_run
    capsys.readouterr()
    assert main(["oracle", name, str(field_path), "--param", param]) == 2
    key, raw = param.split("=")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: oracle parameter {key!r} must be finite, got {raw!r}\n"


def test_oracle_unknown_name_exits_2(free_run, capsys):
    _, field_path, _, _ = free_run
    capsys.readouterr()
    assert main(["oracle", "wkb", str(field_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = "error: unknown oracle 'wkb'; expected one of free_particle, harmonic, separation\n"
    assert captured.err == expected


def test_oracle_bad_param_exits_2(free_run):
    _, field_path, _, _ = free_run
    assert main(["oracle", "free_particle", str(field_path), "--param", "a"]) == 2
    assert main(["oracle", "free_particle", str(field_path), "--param", "z=1"]) == 2


def test_oracle_singular_parameters_exit_2_not_crash(free_run, capsys):
    # C = 0.2 puts the oracle's pole at a grid time; must map to an input
    # failure, not a traceback
    _, field_path, _, _ = free_run
    assert main(["oracle", "free_particle", str(field_path), "--param", "C=0.2"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr,var",
    [
        ("asin(x/sqrt(q))", "q"),
        ("q^2/2", "q"),
        ("ln(x)", "q"),  # derivative identically zero
    ],
)
def test_diffcheck_passes(expr, var):
    assert main(["diffcheck", expr, var]) == 0


def test_diffcheck_skips_samples_where_math_raises(capsys):
    # exp(exp(x)*10)^2 overflows to inf above x ~ 3.57, where sin raises:
    # those samples are skipped, not an input failure
    assert main(["diffcheck", "sin(exp(exp(x)*10)*exp(exp(x)*10))", "x", "--n", "20"]) in (0, 1)
    assert "error" not in capsys.readouterr().err


def test_diffcheck_long_sum_compiles():
    # a left-deep sum needs no parentheses, however long
    assert main(["diffcheck", "x" + "+1" * 249, "x", "--n", "5"]) == 0


@pytest.mark.parametrize(
    "source, depth",
    [("x" + "+1" * 999, "1000"), ("sin(" * 199 + "x" + ")" * 199, r"at least \d+")],
)
def test_diffcheck_too_deep_is_a_parse_error(capsys, source, depth):
    # a 1,000-term sum is too deep for the tree walks, 199 nested calls for the parser
    assert main(["diffcheck", source, "x"]) == 2
    err = capsys.readouterr().err
    want = rf"error: syntax error at position \d+: expression nests {depth} deep"
    assert re.match(want, err), err


def _count_compiles(monkeypatch):
    """Count compile_function calls; make evaluate raise."""
    compiles = []
    compile_function = cli.expr.compile_function

    def counted(e, params):
        compiles.append(params)
        return compile_function(e, params)

    def no_evaluate(*args):
        raise AssertionError("evaluate called")

    monkeypatch.setattr(cli.expr, "compile_function", counted)
    monkeypatch.setattr(cli.expr, "evaluate", no_evaluate)
    return compiles


def test_diffcheck_compiles_each_expression_once(monkeypatch, capsys):
    compiles = _count_compiles(monkeypatch)
    assert main(["diffcheck", "x^2*sin(x)+exp(-x)/(1+x^2)", "x", "--n", "100"]) == 0
    assert compiles == [("x",), ("x",)]
    assert capsys.readouterr().out == "diffcheck: 100 points, 0 mismatches\n"


def test_diffcheck_variable_absent_from_the_expression(monkeypatch, capsys):
    # the derivative is 0, and both functions still take every name
    compiles = _count_compiles(monkeypatch)
    assert main(["diffcheck", "3*q", "x"]) == 0
    assert compiles == [("q", "x"), ("q", "x")]
    assert capsys.readouterr().out == "diffcheck: 100 points, 0 mismatches\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_diffcheck_without_points_exits_2(capsys, n):
    assert main(["diffcheck", "x^2", "x", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n" in captured.err


@pytest.mark.parametrize(
    "old, new",
    [
        ("root_tol = 1e-12", "root_tol = nan"),
        ("x0 = 0", "x0 = nan"),
        ("q_max = 6", "q_max = inf"),
        ("quad_tol = 1e-10", "quad_tol = inf"),
        ("max_residual = 5e-8", "max_residual = nan"),
        ("min_resolved = 0.99", "min_resolved = inf"),
    ],
)
def test_solve_non_finite_input_exits_2(tmp_path, monkeypatch, capsys, old, new):
    # an input failure (exit 2) naming the key and its line, not a solve
    # whose every point fails (exit 1)
    text = (CONFIGS / "harmonic.cfg").read_text()
    line = text.splitlines().index(old) + 1
    cfg = tmp_path / "harmonic.cfg"
    cfg.write_text(text.replace(old, new))
    monkeypatch.chdir(tmp_path)
    assert main(["solve", str(cfg)]) == 2
    key = new.split(" = ")[0]
    assert capsys.readouterr().err == f"error: line {line}: {key!r} must be finite\n"
    assert not (tmp_path / "harmonic_field.csv").exists()


def test_diffcheck_narrow_domain_exits_2(capsys):
    assert main(["diffcheck", "sqrt(q - 3.999)", "q", "--n", "100"]) == 2
    assert "in-domain" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()



def test_parser_is_built_once_and_shared_by_calls(free_run, capsys):
    # each call in one process answers as a fresh process does; an oracle
    # call after one with an unknown --param must not see that parameter
    cfg, field_path, _, _ = free_run
    calls = [
        ["verify", str(cfg)],  # missing argument: exit 2
        ["verify", str(cfg), str(field_path)],
        ["oracle", "free_particle", str(field_path), "--param", "z=1"],
        ["oracle", "free_particle", str(field_path), "--param", "a=1", "--param", "C=1"],
    ]
    cli._parser.cache_clear()
    shared = []
    for argv in calls:
        code = main(argv)
        shared.append((code, capsys.readouterr().out))
    assert cli._parser.cache_info().misses == 1
    fresh = [_run_module(*argv) for argv in calls]
    assert shared == [(proc.returncode, proc.stdout) for proc in fresh]
    assert [code for code, _ in shared] == [2, 0, 2, 0]


def test_module_entry_point():
    proc = _run_module("diffcheck", "q^2/2", "q", "--n", "20")
    assert proc.returncode == 0
    assert "0 mismatches" in proc.stdout
