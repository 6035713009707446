"""Smoke tests of the scripts in tools/ against this checkout's package."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted(path.name for path in (ROOT / "configs").glob("*.cfg"))


def test_quad_census_runs_on_the_checkout():
    # the census wraps package internals by name: a rename that breaks it
    # fails here instead of in the next measurement
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
    # each Hamilton-Jacobi solve replays its dp/dq quadratures, and the
    # separated field runs one quadrature per x row through the row-table slot
    for name in ("free_particle.cfg", "harmonic.cfg"):
        constraint = lines[lines.index(f"{name} (solve exit 0)") + 1]
        assert re.fullmatch(r"  constraint: ([\d,]+) quadratures \(ok \1\)", constraint)
    separated = lines[lines.index("criterion-06 separated field (81 x 41)") :]
    assert any(re.match(r"  separation: 81 quadratures \(ok 81\)", line) for line in separated)
