"""One timed pass of a workload, and the checks on what it produced.

A pass runs through ``hjgen.cli.main`` exactly as ``hjgen solve`` /
``verify`` / ``oracle`` would, so the timed work is what a user of the
command line pays; ``field_roundtrip`` also builds the criterion-06
separated field through the library.

Every point a pass produces or reads is one operation.  An operation fails
when its status is not ``resolved``, when it misses its closed form, or when
a gate on the whole field it belongs to fails: a CLI exit code, a CSV that
does not reload to the same bytes, or the separated field's residual.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

from hjgen import cli, hj, verify
from hjgen.fields import ActionField, Status, read_field_csv, write_field_csv
from hjgen.numerics import SolverConfig
from inputs import SEPARATION_GRID, Workload, field_csv, shifted_axis

POINT_TOL = 1e-8  # closed-form gate per point (criteria 01, 03b, 04, 05, 06)
SEPARATION_MAX_RESIDUAL = 1e-4  # criterion 06
SEPARATION_CFG = SolverConfig(root_tol=1e-12, resid_tol=1e-12, quad_tol=1e-10, scan_points=24)
ORACLE_ARGS = {  # `hjgen oracle` arguments for the Hamilton-Jacobi fields
    "free_particle": ["--param", "a=1", "--param", "C=1"],
    "harmonic": ["--param", "G=q^2/2"],
}
RESOLVED = Status.RESOLVED.value


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _free_particle_ok(r) -> bool:
    x, t = float(r["x"]), float(r["t"])
    return (
        abs(float(r["S"]) - x * x / (4.0 * (1.0 - t))) <= POINT_TOL
        and abs(float(r["q"]) - x * x / (4.0 * (1.0 - t) ** 2)) <= POINT_TOL
    )


def _harmonic_ok(r) -> bool:
    # closed-form action for a = 1, V = x^2, G = q^2/2 (criterion 03b)
    x, t, q = float(r["x"]), float(r["t"]), float(r["q"])
    want = (
        q * t
        + 0.5 * x * math.sqrt(q - x * x)
        + 0.5 * q * math.asin(x / math.sqrt(q))
        - 0.5 * q * q
    )
    return abs(float(r["S"]) - want) <= POINT_TOL


def _linear_ok(r) -> bool:
    return abs(float(r["q"]) - (2.0 * float(r["x"]) + float(r["y"]))) <= POINT_TOL


def _power_ok(r) -> bool:
    x, y = float(r["x"]), float(r["y"])
    return abs(float(r["q"]) - x * x / (4.0 * (1.0 - y) ** 2)) <= POINT_TOL


POINT_CHECKS = {
    "free_particle": _free_particle_ok,
    "harmonic": _harmonic_ok,
    "linear_pq": _linear_ok,
    "power_pq": _power_ok,
}


def _separation_exact(x: float, t: float) -> float:
    # integral of sqrt(1 - s^2) from 0 to x, plus E t with E = 1
    return 0.5 * (x * math.sqrt(1.0 - x * x) + math.asin(x)) + t


def check_field_csv(name: str, path: str) -> list[tuple[str, bool]]:
    """(status, status resolved and closed form met) for each stored point.

    Parses the CSV itself rather than through hjgen, so a reader defect
    cannot hide a wrong field.
    """
    ok = POINT_CHECKS[name]
    header, *lines = Path(path).read_text().splitlines()
    cols = header.split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines]
    return [(r["status"], r["status"] == RESOLVED and ok(r)) for r in rows]


def reloads_identically(path: str, copy_path: str) -> bool:
    """A written field CSV reloads and re-serializes to the same bytes."""
    write_field_csv(read_field_csv(path), copy_path)
    return Path(copy_path).read_bytes() == Path(path).read_bytes()


@dataclass
class PassResult:
    """What one pass produced, as the checks saw it."""

    ops: int
    failed: int
    status: dict[str, int]  # program-assigned statuses over the operations
    digests: dict[str, str]  # output name -> SHA-256


class Runner:
    """Runs passes of one workload in the current directory (its work dir)."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self._reloaded: set[str] = set()  # CSV digests already reload-checked
        if workload.reads:
            self._stored = {n: check_field_csv(n, field_csv(n)) for n in workload.reads}
            self._stored_digests = {
                field_csv(n): sha256(Path(field_csv(n)).read_bytes()) for n in workload.reads
            }
            self._sep_axes = tuple(
                shifted_axis(seed, f"separation:{k}", *grid)
                for k, grid in zip("xt", SEPARATION_GRID)
            )

    def timed_pass(self):
        """The work one closed-loop pass measures; returns what the checks need."""
        out = io.StringIO()
        w = self.workload
        with contextlib.redirect_stdout(out):
            if w.solves:
                return [cli.main(["solve", f"{n}.cfg"]) for n in w.solves], out, None
            rcs = [cli.main(["verify", f"{n}.cfg", field_csv(n)]) for n in w.reads]
            rcs += [cli.main(["oracle", n, field_csv(n), *a]) for n, a in ORACLE_ARGS.items()]
        return rcs, out, self._separated_field()

    def _separated_field(self):
        osc = hj.HJProblem("1", "x^2", "0", sigma=1, x0=0.0)
        xs, ts = self._sep_axes
        value = [[hj.separation_action(osc, 1.0, x, t, SEPARATION_CFG) for t in ts] for x in xs]
        q = [[1.0] * len(ts) for _ in xs]
        p = [[math.sqrt(1.0 - x * x)] * len(ts) for x in xs]
        status = [[Status.RESOLVED] * len(ts) for _ in xs]
        field = ActionField(xs, ts, q, value, status, p)
        return field, verify.residual_report(osc, field)

    def check(self, rcs, out: io.StringIO, separated) -> PassResult:
        hist = {s.value: 0 for s in Status}
        failed = 0
        digests = {"stdout": sha256(out.getvalue().encode())}

        def tally(points, field_ok: bool):
            nonlocal failed
            for status, ok in points:
                hist[status] += 1
                failed += not (ok and field_ok)

        w = self.workload
        if w.solves:
            for name, rc in zip(w.solves, rcs):
                path = field_csv(name)
                digest = digests[path] = sha256(Path(path).read_bytes())
                if digest not in self._reloaded and reloads_identically(path, "reload.csv"):
                    self._reloaded.add(digest)
                tally(check_field_csv(name, path), rc == 0 and digest in self._reloaded)
            return PassResult(sum(hist.values()), failed, hist, digests)
        digests.update(self._stored_digests)
        oracle_rcs = dict(zip(ORACLE_ARGS, rcs[len(w.reads):]))
        for name, rc in zip(w.reads, rcs):
            tally(self._stored[name], rc == 0 and oracle_rcs.get(name, 0) == 0)
        field, report = separated
        write_field_csv(field, "separation_field.csv")
        digests["separation_field.csv"] = sha256(Path("separation_field.csv").read_bytes())
        points = [
            (RESOLVED, abs(field.value[i][j] - _separation_exact(x, t)) <= POINT_TOL)
            for i, x in enumerate(field.axis1)
            for j, t in enumerate(field.axis2)
        ]
        tally(points, report.max_abs <= SEPARATION_MAX_RESIDUAL)
        return PassResult(sum(hist.values()), failed, hist, digests)
