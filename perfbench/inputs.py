"""The benchmark's four workloads and their seeded inputs.

Each workload's inputs are the shipped configs with every grid axis shifted
by a seeded fraction (below one half) of its grid step, which keeps the
point counts and keeps every grid inside the window where the oracles and
admissibility hold; seed 0 leaves the shipped grids untouched.  This module
does not import hjgen, so ``run.py`` can use it before anything of
the program is known to be present.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

SHIPPED = ("free_particle", "harmonic", "linear_pq", "power_pq")
# the criterion-06 separated field: V = x^2, energy 1, on 81 x 41 points
SEPARATION_GRID = ((0.1, 0.8, 81), (0.0, 0.4, 41))


@dataclass(frozen=True)
class Workload:
    name: str
    solves: tuple[str, ...]  # configs solved by each pass
    reads: tuple[str, ...]  # configs whose stored fields each pass reads back

    @property
    def configs(self) -> tuple[str, ...]:
        return self.solves or self.reads


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hj_free_particle", ("free_particle",), ()),
        Workload("hj_harmonic", ("harmonic",), ()),
        Workload("pq_explicit", ("linear_pq", "power_pq"), ()),
        Workload("field_roundtrip", (), SHIPPED),
    )
}


def axis(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """Equispaced axis, built the way the config parser builds ``lo:hi:n``."""
    return tuple(hi if i == n - 1 else lo + (hi - lo) * i / (n - 1) for i in range(n))


def _shift(seed: int, key: str, lo: float, hi: float, n: int) -> float:
    """Seeded share (below one half) of the grid step of ``lo:hi:n``; 0 for seed 0."""
    if seed == 0:
        return 0.0
    return random.Random(f"{seed}:{key}").uniform(0.0, 0.5) * (hi - lo) / (n - 1)


def shifted_axis(seed: int, key: str, lo: float, hi: float, n: int) -> tuple[float, ...]:
    d = _shift(seed, key, lo, hi, n)
    return axis(lo + d, hi + d, n)


_AXIS_LINE = re.compile(r"^(\s*([xyt])\s*=\s*)([^:#\s]+):([^:#\s]+):(\d+)(.*)$")


def seeded_config(text: str, seed: int, name: str) -> str:
    """The shipped config text with each ``lo:hi:n`` grid axis shifted."""
    out = []
    section = ""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped
        m = _AXIS_LINE.match(line)
        if seed and section == "[grid]" and m:
            lo, hi, n = float(m[3]), float(m[4]), int(m[5])
            d = _shift(seed, f"{name}:{m[2]}", lo, hi, n)
            line = f"{m[1]}{lo + d!r}:{hi + d!r}:{n}{m[6]}"
        out.append(line)
    return "\n".join(out) + "\n"


def write_configs(root: Path, work: Path, seed: int, names) -> None:
    for name in names:
        text = (root / "configs" / f"{name}.cfg").read_text()
        (work / f"{name}.cfg").write_text(seeded_config(text, seed, name))


def field_csv(name: str) -> str:
    return f"{name}_field.csv"
