"""Smoke tests of the scripts in tools/ against this checkout's package."""

import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted(path.name for path in (ROOT / "configs").glob("*.cfg"))


def test_quad_census_runs_on_the_checkout():
    # the census reads the solves' SolveStats records: a rename that breaks
    # it fails here instead of in the next measurement
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "quad_census.py"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    headers = [line for line in lines if line.endswith(")") and not line.startswith(" ")]
    assert headers[: len(CONFIGS)] == [f"{name} (solve exit 0)" for name in CONFIGS]
    assert headers[len(CONFIGS):] == ["criterion-06 separated field (81 x 41)"]
    roots = [line for line in lines if line.startswith("  roots: ")]
    assert len(roots) == len(CONFIGS)
    # each solve's status histogram follows its roots line, and every
    # shipped point resolves
    for line in roots:
        statuses = lines[lines.index(line) + 1]
        points = re.match(r"  roots: ([\d,]+) points", line)[1]
        assert statuses == f"  statuses: resolved {points}, no_root 0, multi_root 0, domain_fail 0"
    assert not any(line.lstrip().startswith("generic:") for line in lines)
    # on the shipped Hamilton-Jacobi configs every level evaluation is one
    # dp/dq quadrature (no row lies at x = x0, and neither G' nor the margin
    # raises), and the separated field runs one quadrature per x row through
    # the row-table slot
    for name in ("free_particle.cfg", "harmonic.cfg"):
        section = lines[lines.index(f"{name} (solve exit 0)") :]
        constraint = re.fullmatch(r"  constraint: ([\d,]+) quadratures \(ok \1\)", section[1])
        counts = next(
            re.match(r"  roots: ([\d,]+) points; evaluations/point ([\d.]+) ", line)
            for line in section
            if line.startswith("  roots: ")
        )
        points = int(counts[1].replace(",", ""))
        # the mean is printed to 3 decimals
        assert abs(int(constraint[1].replace(",", "")) - points * float(counts[2])) <= points * 5e-4
        # the row tables stop on Clenshaw-Curtis: at most 2% fall back
        rule = re.fullmatch(r"    rule: Clenshaw-Curtis n=16 [\d,]+ \([\d.]+%\), n=32 [\d,]+ \([\d.]+%\),"
                            r" tanh-sinh fallbacks [\d,]+ \(([\d.]+)%\)", section[2])
        assert float(rule[1]) <= 2.0
    separated = lines[lines.index("criterion-06 separated field (81 x 41)") :]
    assert any(re.match(r"  separation: 81 quadratures \(ok 81\)", line) for line in separated)


def test_quad_census_needs_a_package_that_counts(tmp_path):
    # a package without numerics.SolveStats has nothing to read
    (tmp_path / "hjgen").mkdir()
    (tmp_path / "hjgen" / "__init__.py").write_text("")
    (tmp_path / "hjgen" / "numerics.py").write_text("")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "quad_census.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "SolveStats" in proc.stderr


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_quartiles_interpolate():
    bench = load_tool("bench_pairs")
    assert bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_bench_pairs_gain_needs_nine_wins_in_ten_and_a_move_past_the_iqr():
    bench = load_tool("bench_pairs")
    old = [2.0 + 0.01 * k for k in range(10)]  # median 2.045, IQR 0.045
    # every pair won by 0.05: the median moves 0.05 > 0.045
    result = bench.compare(old, [v - 0.05 for v in old], "lower", 0.25)
    assert (result["wins"], result["pairs"], result["gain"], result["regression"]) == (10, 10, True, "none")
    assert abs(result["change"] - (-0.05 / 2.045)) < 1e-12
    # every pair won, but by less than the old spread
    assert not bench.compare(old, [v - 0.04 for v in old], "lower", 0.25)["gain"]
    # 9 of 10 pairs won by far is a gain; 8 of 10 is not
    nine = [v - 1.0 for v in old[:9]] + [old[9] + 1.0]
    assert bench.compare(old, nine, "lower", 0.25)["wins"] == 9
    assert bench.compare(old, nine, "lower", 0.25)["gain"]
    eight = [v - 1.0 for v in old[:8]] + [v + 1.0 for v in old[8:]]
    assert not bench.compare(old, eight, "lower", 0.25)["gain"]
    # a tie is not a win
    assert bench.compare(old, list(old), "lower", 0.25)["wins"] == 0
    # higher is better: the same runs read the other way round
    up = bench.compare(old, [v + 0.05 for v in old], "higher", 0.25)
    assert (up["wins"], up["gain"], up["regression"]) == (10, True, "none")
    # a larger share of failed operations cancels the gain; an equal one does not
    failing = bench.compare(old, [v - 0.05 for v in old], "lower", 0.25, (0.01, 0.02))
    assert (failing["gain"], failing["more_failed"]) == (False, True)
    assert bench.compare(old, [v - 0.05 for v in old], "lower", 0.25, (0.01, 0.01))["gain"]


def test_bench_pairs_regression_is_the_median_past_the_bound():
    bench = load_tool("bench_pairs")
    old = [1.0, 1.1, 0.9, 1.0, 1.0]  # median 1.0, IQR 0
    assert bench.compare(old, [1.25] * 5, "lower", 0.25)["regression"] == "none"
    assert bench.compare(old, [1.26] * 5, "lower", 0.25)["regression"] == "yes"
    # one run far out does not move the median past the bound
    assert bench.compare(old, [1.0, 1.0, 9.0, 1.0, 1.0], "lower", 0.25)["regression"] == "none"
    assert bench.compare(old, [0.74] * 5, "higher", 0.25)["regression"] == "yes"
    assert bench.compare(old, [0.75] * 5, "higher", 0.25)["regression"] == "none"
    with pytest.raises(ValueError):
        bench.compare(old, old[:4], "lower", 0.25)


def test_bench_pairs_spread_wider_than_the_bound_is_unresolved():
    bench = load_tool("bench_pairs")
    wide = [0.6, 0.8, 1.0, 1.2, 1.4]  # median 1.0, IQR 0.4 > 0.25 of the median
    # a median within the bound, on a spread wider than it: unresolved
    assert bench.compare(wide, [1.1] * 5, "lower", 0.25)["regression"] == "unresolved"
    assert bench.compare(wide, [0.9] * 5, "lower", 0.25)["regression"] == "unresolved"
    # the same on the new side's spread
    steady = [1.0] * 5
    assert bench.compare(steady, wide, "lower", 0.25)["regression"] == "unresolved"
    # unless every new run is better than every old run
    assert bench.compare(wide, [0.55] * 5, "lower", 0.25)["regression"] == "none"
    assert bench.compare(wide, [1.45] * 5, "higher", 0.25)["regression"] == "none"
    # a median past the bound is a regression however wide the spread
    assert bench.compare(wide, [1.3] * 5, "lower", 0.25)["regression"] == "yes"


def test_bench_pairs_report_names_both_verdicts():
    bench = load_tool("bench_pairs")
    old = [2.0 + 0.01 * k for k in range(10)]
    lines = bench.report("cpu_per_ref", "ratio", bench.compare(old, [v - 0.05 for v in old], "lower", 0.25))
    assert lines[0].startswith("cpu_per_ref (ratio): old 2.045 [2.0225, 2.0675]  new 1.995")
    assert "new better in 10/10 pairs" in lines[0]
    assert lines[1] == "  gain: met (10/10 wins, 9 needed; median moved 0.05, old IQR 0.045)"
    assert lines[2] == "  regression: none (new IQR 0.045)"
    failing = bench.compare(old, [v - 0.05 for v in old], "lower", 0.25, (0.0, 0.5))
    assert bench.report("cpu_per_ref", "ratio", failing)[1] == (
        "  gain: not met (10/10 wins, 9 needed; median moved 0.05, old IQR 0.045; more operations failed)"
    )


def test_bench_pairs_rejects_a_directory_without_a_benchmark(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(tmp_path), str(ROOT),
         "--workload", "hj_free_particle", "--pairs", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "has no perfbench/run.py" in proc.stderr


FAKE_RUN = '''
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
here = pathlib.Path(__file__).resolve().parent.parent
with open(here.parent / "log", "a") as log:
    log.write(f"{here.name} {args['--workload']} {args['--seed']} {args['--seconds']} {args['--trace']}\\n")
value = float(args["--seed"]) + (0.5 if here.name == "old" else 0.0)
print("info " + json.dumps({"cpu_s": value / 10, "wall_s": value / 5, "ref_s": 0.1}))
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"cpu_per_ref": {"value": value, "unit": "ratio"}}}))
'''


def stand_in_checkouts(tmp_path, run_py: str):
    declared = {"run_seconds": 7, "end_to_end": [
        {"name": "cpu_per_ref", "unit": "ratio", "better": "lower", "bound": 0.25}]}
    for side in ("old", "new"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(run_py)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(declared))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(tmp_path / "old"),
         str(tmp_path / "new"), "--workload", "w", "--pairs", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_bench_pairs_alternates_the_sides_over_seeded_pairs(tmp_path):
    # stand-in checkouts whose run.py logs its arguments and reads 0.5 lower on NEW
    proc = stand_in_checkouts(tmp_path, FAKE_RUN)
    assert proc.returncode == 0, proc.stderr
    # the run length is BENCHMARK.json's run_seconds on both sides
    assert (tmp_path / "log").read_text().splitlines() == [
        "old w 1 7 0", "new w 1 7 0", "new w 2 7 0", "old w 2 7 0", "old w 3 7 0", "new w 3 7 0",
    ]
    out = proc.stdout.splitlines()
    assert out[:3] == [
        "pair 1 (old first): cpu_per_ref 1.5 -> 1",
        "pair 2 (new first): cpu_per_ref 2.5 -> 2",
        "pair 3 (old first): cpu_per_ref 3.5 -> 3",
    ]
    summary = "cpu_per_ref (ratio): old 2.5 [2, 3]  new 2 [1.5, 2.5]  change -20.0%  new better in 3/3 pairs"
    assert summary in out
    # the medians moved 0.5, no more than the old IQR of 1: no gain; that IQR
    # is wider than the bound of 0.625 and the runs overlap: unresolved
    assert "  gain: not met (3/3 wins, 3 needed; median moved 0.5, old IQR 1)" in out
    assert "  regression: unresolved (new IQR 1)" in out
    assert "old: 0 of 12 operations failed; every run correct: True" in out
    assert "new: 0 of 12 operations failed; every run correct: True" in out
    # the pass times are k / 10 and k / 5 on NEW against (k + 0.5) / 10 and
    # (k + 0.5) / 5 on OLD: ratios 1/1.5, 2/2.5, 3/3.5, of median 0.8
    assert out[-1] == "new/old within a pair, median: cpu_s 0.8, wall_s 0.8, ref_s 1"


def test_bench_pairs_reads_setup_s_within_pairs(tmp_path):
    # runs whose info lines carry cold-start samples: NEW's are 0.9 of
    # OLD's in every pair, so the within-pair setup_s ratio is 0.9 however
    # far the pairs' own times swing; the pooled quartiles are each side's
    run_py = FAKE_RUN.replace(
        '"ref_s": 0.1}',
        '"ref_s": 0.1, "setup_s_samples": [s * (0.9 if here.name == \'new\' else 1.0) '
        'for s in (0.01 * float(args["--seed"]), 0.02 * float(args["--seed"]))]}',
    )
    proc = stand_in_checkouts(tmp_path, run_py)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    # OLD's six samples are 0.01, 0.02, 0.02, 0.04, 0.03, 0.06
    assert "old setup_s, 6 cold starts pooled: median 0.025 [0.02, 0.0375] s" in out
    assert "new setup_s, 6 cold starts pooled: median 0.0225 [0.018, 0.03375] s" in out
    assert out[-1] == "new/old within a pair, median: cpu_s 0.8, wall_s 0.8, ref_s 1, setup_s 0.9"


def test_bench_pairs_info_time_takes_the_median_cold_start():
    bench = load_tool("bench_pairs")
    run = {"info": {"cpu_s": 2.0, "setup_s_samples": [0.03, 0.01, 0.02]}}
    assert bench.info_time(run, "cpu_s") == 2.0
    assert bench.info_time(run, "setup_s") == 0.02
    assert bench.info_time(run, "ref_s") is None
    assert bench.info_time({"info": None}, "setup_s") is None


def test_bench_pairs_fails_on_a_run_without_a_result_line(tmp_path):
    proc = stand_in_checkouts(tmp_path, "")  # a run.py that prints nothing
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "printed no result line" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cmp_shipped_damaged_configs_are_config_errors():
    # every damaged copy is a config error but those that quote a path or
    # drop [output], which parse; none is the same-path case
    from hjgen.config import parse_config
    from hjgen.errors import ConfigError

    cmp = load_tool("cmp_shipped")
    parsed = []
    for cfg in cmp.DAMAGED_CONFIGS:
        copies = cmp.damaged_configs((ROOT / "configs" / cfg).read_text())
        assert len(set(copies.values())) == len(copies)
        for name, text in copies.items():
            try:
                parse_config(text)
            except ConfigError as err:
                assert "same file" not in str(err)
            else:
                parsed.append((cfg, name))
    both = ("[output] removed", "field quoted", "report quoted")
    assert sorted(parsed) == sorted((cfg, name) for cfg in cmp.DAMAGED_CONFIGS for name in both)


CODE_LINES_FIXTURE = '''"""A module docstring
over two lines."""

import math  # a comment after code

# a comment line


class Box:
    """A class docstring."""

    def area(self, w,
             h):
        """A function docstring."""
        text = """not a docstring,
        so both its lines are code"""
        return (w *
                h)
'''


def test_code_lines_leaves_out_docstrings_comments_and_blanks(tmp_path):
    # code: import, class, the two lines of def, both lines of the
    # assigned string and both lines of the return
    tool = load_tool("code_lines")
    assert tool.code_lines(CODE_LINES_FIXTURE) == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["     1  b.py", "     8  pkg/a.py", "     9  total"]


def test_code_lines_counts_the_checkout():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *modules, total = proc.stdout.splitlines()
    assert "hjgen/fields.py" in {line.split()[1] for line in modules}
    assert int(total.split()[0]) == sum(int(line.split()[0]) for line in modules) > 0
