"""Smoke tests of the scripts in tools/ against this checkout's package."""

import pathlib
import re
import subprocess
import sys

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
