"""Check that two source trees solve the shipped configs to identical bytes.

Usage::

    python3 tools/cmp_shipped.py OLD_SRC NEW_SRC [SEED ...]

OLD_SRC and NEW_SRC are directories that each hold an ``hjgen`` package
(a checkout's ``src``).  For each tree this runs ``python3 -m hjgen solve``
on every config in ``configs/`` next to this script, serially, in a fresh
temporary directory.  Then, in the same directory and with the same tree,
it reads the fields back: ``hjgen verify`` of each config on the field CSV
its solve wrote (``<config name>_field.csv``), and ``hjgen oracle
free_particle`` and ``harmonic`` on those configs' CSVs with the
parameters the benchmark passes.  Last it runs ``hjgen diffcheck`` on the
README's example and on each distinct quoted expression of the configs,
against x and against q, and ``hjgen verify`` of ``free_particle.cfg`` on
damaged copies of its field: each class of malformed line or grid in line
3 and again in line 1300, past the reader's first block of 512 lines, and
a few damaged files; and ``hjgen solve`` on damaged copies of
``free_particle.cfg`` and ``scaled_y.cfg`` (see :func:`damaged_configs`),
comparing the config errors.  Each SEED (a perfbench seed, a non-negative
integer) adds the same solves, verifies and oracle checks on the configs
with their grids shifted as ``perfbench/inputs.py`` shifts them for that
seed, in a directory of their own.  It compares every file the solves
wrote (field CSVs and reports) and each command's exit code, standard
output and standard error.
For a field CSV that differs it also prints each numeric column's largest
absolute change and every status change between the trees, and for any
other output that differs (a report, an exit code, standard output or
error) its first differing lines, old -> new.  The last lines give each
field column's largest change over all fields and seeds, and the status
changes in all, so a deliberate change of the numerics can be read off
the output.  Exit status:
0 when everything is byte-identical, 1 when anything differs, 2 on bad
arguments.  Uses only the standard library.
"""

from __future__ import annotations

import csv
import difflib
import functools
import importlib.util
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
ORACLES = {  # oracle name -> its --param arguments, as perfbench passes them
    "free_particle": ["--param", "a=1", "--param", "C=1"],
    "harmonic": ["--param", "G=q^2/2"],
}
README_DIFFCHECK = ["asin(x/sqrt(q))", "q", "--n", "200", "--seed", "7"]
DAMAGED_FIELD = "free_particle"  # an action field: x,t,q,S,p,status
DAMAGED_LINES = (3, 1300)
SHOWN_LINES = 5  # differing lines printed per output
CELL_EDITS = {  # a class of malformed line: column -> new text of its cell
    "bad axis 1": {0: "0x"},
    "bad axis 2": {1: "1y"},
    "bad root": {2: "1..2"},
    "bad value": {3: " 2 x"},
    "bad momentum": {4: "p"},
    "empty axis 1": {0: ""},
    "empty axis 2": {1: ""},
    "bad axis 2 before empty axis 1": {0: "", 1: "z"},
    "unknown status": {5: "solved"},
    "status with a space": {5: "resolved "},
    "presence, resolved": {2: ""},
    "presence, no_root": {5: "no_root"},
    "axis 1 below its first value": {0: "-1"},
    "axis 2 below its first value": {1: "-1"},
}
DAMAGED_CONFIGS = ("free_particle.cfg", "scaled_y.cfg")  # a Hamilton-Jacobi and a pq config
REQUIRED_KEYS = {  # the keys a config of its kind cannot leave out
    "type", "kind", "a", "V", "G", "f", "scale", "phi", "x", "t", "y", "q_min", "q_max",
}
INT_MINIMA = {"max_iter": 1, "scan_points": 2}


def diffchecks(configs: list[Path]) -> list[list[str]]:
    """``hjgen diffcheck`` arguments: the README example, then each distinct
    quoted expression of ``configs`` against x and against q."""
    exprs = {m.group(1) for cfg in configs for m in re.finditer(r'"([^"]*)"', cfg.read_text())}
    return [README_DIFFCHECK] + [[e, var] for e in sorted(exprs) for var in ("x", "q")]


@functools.cache
def _perfbench_inputs():
    path = ROOT / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclasses look their module up
    spec.loader.exec_module(inputs)
    return inputs


def damaged(lines: list[str]) -> dict[str, list[str]]:
    """Name -> the lines of a damaged copy of a field CSV of six columns,
    all rows resolved: each class of malformed line or grid at each of
    ``DAMAGED_LINES``, then damage to the whole file."""
    out = {}
    for at in DAMAGED_LINES:
        k = at - 1

        def replaced(*new: str) -> list[str]:
            # the lines with line ``at`` and those after it replaced by ``new``
            return lines[:k] + list(new) + lines[k + len(new) :]

        for name, edit in CELL_EDITS.items():
            cells = lines[k].split(",")
            for col, text in edit.items():
                cells[col] = text
            out[f"{name}, line {at}"] = replaced(",".join(cells))
        out[f"truncated row, line {at}"] = replaced(lines[k].rsplit(",", 3)[0])
        out[f"extra column, line {at}"] = replaced(lines[k] + ",7")
        out[f"row removed, line {at}"] = lines[:k] + lines[at:]
        out[f"rows swapped, line {at}"] = replaced(lines[at], lines[k])
        out[f"first bad line wins, line {at}"] = replaced(
            lines[k].replace("resolved", "solved"), lines[at].rsplit(",", 1)[0]
        )
    out["empty file"] = []
    out["unknown header"] = ["a,b,c"] + lines[1:]
    out["header only"] = lines[:1]
    out["incomplete grid, trailing blanks"] = lines[:-1] + ["", ""]
    return out


def damaged_configs(text: str) -> dict[str, str]:
    """Name -> the text of a damaged copy of the config ``text``: each
    section removed, an unknown key in each section, each required key
    removed, each key repeated, each expression unquoted, unparsable and
    given a foreign variable, each unquoted value quoted, each number and
    axis set to ``nan`` and to a non-number, the problem type and pq kind
    set to an unknown word, each integer and axis count set below its
    minimum, and an unknown section."""
    lines = text.splitlines()
    out = {}

    def edit(k: int, *new: str, end: int | None = None) -> str:
        # the text with lines k up to ``end`` (one line by default) replaced by ``new``
        kept = lines[:k] + list(new) + lines[(k + 1 if end is None else end) :]
        return "".join(f"{line}\n" for line in kept)

    headers = [k for k, line in enumerate(lines) if line.startswith("[")]
    for k, end in zip(headers, headers[1:] + [len(lines)]):
        out[f"{lines[k]} removed"] = edit(k, end=end)
        out[f"unknown key in {lines[k]}"] = edit(k, lines[k], "extra = 1")
    for k, line in enumerate(lines):
        m = re.fullmatch(r"(\w+) = (.*)", line)
        if m is None:
            continue
        key, value = m.groups()
        if key in REQUIRED_KEYS:
            out[f"{key} removed"] = edit(k)
        out[f"{key} repeated"] = edit(k, line, line)
        if value.startswith('"'):
            expr = value[1:-1]
            out[f"{key} unquoted"] = edit(k, f"{key} = {expr}")
            out[f"{key} unparsable"] = edit(k, f'{key} = "{expr})"')
            out[f"{key} with a foreign variable"] = edit(k, f'{key} = "({expr}) + t*y"')
            continue
        out[f"{key} quoted"] = edit(k, f'{key} = "{value}"')
        axis = key in ("x", "t", "y")
        if axis or re.fullmatch(r"[-+.\de]+", value):
            out[f"{key} nan"] = edit(k, f"{key} = nan")
            out[f"{key} not a number"] = edit(k, f"{key} = one")
        elif key in ("type", "kind"):
            out[f"{key} unknown"] = edit(k, f"{key} = wave")
        if key in INT_MINIMA:
            out[f"{key} below its minimum"] = edit(k, f"{key} = {INT_MINIMA[key] - 1}")
        if axis:
            out[f"{key} count below its minimum"] = edit(k, f"{key} = {value.rsplit(':', 1)[0]}:1")
    out["unknown section"] = edit(len(lines), "[extra]", "k = 1")
    return out


def seeded_configs(seed: int) -> dict[str, str]:
    """Config file name -> text, each grid shifted as the benchmark shifts it for ``seed``."""
    return {
        cfg.name: _perfbench_inputs().seeded_config(cfg.read_text(), seed, cfg.stem)
        for cfg in sorted(CONFIGS.glob("*.cfg"))
    }


def solve_all(
    src: Path, configs: dict[str, str], work: Path, shipped: bool
) -> dict[str, bytes]:
    """Write ``configs`` (file name -> text) to ``work``; solve, verify and
    check against the oracles each one, and for the ``shipped`` configs run
    the diffchecks and verify the damaged fields, with the package under
    ``src``; name -> output bytes."""
    for name, text in configs.items():
        (work / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(src))
    out: dict[str, bytes] = {}

    def run(name: str, args: list[str], codes=(0, 1), cwd: Path = work) -> None:
        proc = subprocess.run(
            [sys.executable, "-m", "hjgen", *args],
            cwd=cwd, env=env, capture_output=True, check=False,
        )
        out[f"{name}: exit code"] = str(proc.returncode).encode()
        out[f"{name}: stdout"] = proc.stdout
        out[f"{name}: stderr"] = proc.stderr
        if proc.returncode not in codes:
            sys.stderr.write(proc.stderr.decode(errors="replace"))

    for name in configs:
        run(name, ["solve", name])
    for name in configs:
        run(f"verify {name}", ["verify", name, f"{Path(name).stem}_field.csv"])
    for name, params in ORACLES.items():
        run(f"oracle {name}", ["oracle", name, f"{name}_field.csv", *params])
    if shipped:
        for args in diffchecks(sorted(CONFIGS.glob("*.cfg"))):
            run(f"diffcheck {' '.join(args)}", ["diffcheck", *args])
        field = (work / f"{DAMAGED_FIELD}_field.csv").read_text().splitlines()
        path = work / "damaged.csv"
        for name, lines in damaged(field).items():
            path.write_text("".join(f"{line}\n" for line in lines))
            run(f"verify damaged {name}", ["verify", f"{DAMAGED_FIELD}.cfg", path.name], (2,))
        path.unlink()
        # in a directory of their own: a copy that parses writes its field there
        where = work / "damaged configs"
        where.mkdir()
        path = where / "damaged.cfg"
        for cfg in DAMAGED_CONFIGS:
            for name, text in damaged_configs((CONFIGS / cfg).read_text()).items():
                path.write_text(text)
                run(f"solve damaged {cfg}: {name}", ["solve", path.name], (0, 2), where)
        shutil.rmtree(where)
    for path in sorted(work.iterdir()):
        if path.suffix != ".cfg":
            out[path.name] = path.read_bytes()
    return out


def field_drift(old: bytes, new: bytes) -> tuple[dict[str, float], Counter] | str:
    """Max |new - old| per numeric column of two field CSVs, by column name,
    and the status changes, or a message when their layouts differ.

    Rows are matched by position; an empty cell (a point without a value)
    is left out of its column's maximum.
    """
    rows_old = list(csv.reader(io.StringIO(old.decode())))
    rows_new = list(csv.reader(io.StringIO(new.decode())))
    head = rows_old[0]
    if head != rows_new[0] or len(rows_old) != len(rows_new):
        return (
            f"layout differs: {len(rows_old) - 1} rows of {','.join(head)} vs "
            f"{len(rows_new) - 1} rows of {','.join(rows_new[0])}"
        )
    status = head.index("status")
    numeric = [k for k in range(len(head)) if k != status]
    drift = dict.fromkeys(numeric, 0.0)
    moves: Counter[tuple[str, str]] = Counter()
    for a, b in zip(rows_old[1:], rows_new[1:]):
        if a[status] != b[status]:
            moves[a[status], b[status]] += 1
        for k in numeric:
            if a[k] and b[k]:
                drift[k] = max(drift[k], abs(float(b[k]) - float(a[k])))
    return {head[k]: d for k, d in drift.items()}, moves


def describe(drift: dict[str, float], moves: Counter) -> list[str]:
    changes = ", ".join(f"{was} -> {now}: {n}" for (was, now), n in sorted(moves.items()))
    return [
        "max |diff|: " + ", ".join(f"{name} {d:.3g}" for name, d in drift.items()),
        "status changes: " + (changes or "none"),
    ]


def line_changes(old: bytes, new: bytes) -> list[str]:
    """The first ``SHOWN_LINES`` differing lines of two text outputs, as
    ``old -> new``; a line present on one side only pairs with ``(none)``."""
    a = old.decode(errors="replace").splitlines()
    b = new.decode(errors="replace").splitlines()
    pairs = [
        pair
        for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
        if tag != "equal"
        for pair in zip_longest(a[i1:i2], b[j1:j2], fillvalue="(none)")
    ]
    out = [f"{was} -> {now}" for was, now in pairs[:SHOWN_LINES]]
    if len(pairs) > SHOWN_LINES:
        out.append(f"... {len(pairs) - SHOWN_LINES} more")
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not all(a.isdigit() for a in argv[2:]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv[:2]]
    seeds = sorted({int(a) for a in argv[2:]})
    for tree in trees:
        if not (tree / "hjgen" / "__init__.py").is_file():
            print(f"error: {tree} holds no hjgen package", file=sys.stderr)
            return 2
    configs = sorted(CONFIGS.glob("*.cfg"))
    if not configs:
        print(f"error: no configs in {CONFIGS}", file=sys.stderr)
        return 2
    runs = [("", {cfg.name: cfg.read_text() for cfg in configs}, True)]
    runs += [(f"seed {seed}/", seeded_configs(seed), False) for seed in seeds]
    results: list[dict[str, bytes]] = [{}, {}]
    with tempfile.TemporaryDirectory() as tmp:
        for k, tree in enumerate(trees):
            for prefix, texts, shipped in runs:
                work = Path(tmp) / str(k) / (prefix or "shipped")
                work.mkdir(parents=True)
                out = solve_all(tree, texts, work, shipped)
                results[k].update((prefix + name, data) for name, data in out.items())
    old, new = results
    differ = 0
    drift: dict[str, float] = {}  # per field column, over every field compared
    moves: Counter = Counter()
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) == new.get(name):
            print(f"same    {name}")
            continue
        differ += 1
        print(f"DIFFERS {name}")
        if name not in old or name not in new:
            continue
        if name.endswith(".csv"):
            found = field_drift(old[name], new[name])
            if isinstance(found, str):
                print(f"        {found}")
                continue
            for column, d in found[0].items():
                drift[column] = max(drift.get(column, 0.0), d)
            moves += found[1]
            lines = describe(*found)
        else:
            lines = line_changes(old[name], new[name])
        for line in lines:
            print(f"        {line}")
    for line in describe(drift, moves) if drift else ["max |diff|: none"]:
        print(f"all fields, {line}")
    print(f"{len(configs)} configs, {len(seeds)} seeds, {differ} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
