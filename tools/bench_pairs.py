"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

Usage::

    python3 tools/bench_pairs.py OLD NEW --workload W --pairs N

OLD and NEW are checkouts (for example ``git archive`` exports of two
commits), each with its own ``perfbench/run.py``.  Pair k (k = 1..N) runs
``perfbench/run.py --workload W --seed k --seconds S --trace 0`` of each
checkout, one after the other; odd pairs run OLD first and even pairs NEW
first, so a drift of the machine over a pair lands on each side equally
often.  ``S`` is ``run_seconds`` of OLD's ``BENCHMARK.json``, the same on
both sides.

For each end-to-end metric that OLD's ``BENCHMARK.json`` declares, it
prints each side's median and quartiles, the change of the median, and the
number of pairs in which NEW was better.  Then two verdicts per metric:

- **gain**: met when NEW wins at least 9 of every 10 pairs, the medians
  differ, NEW's way, by more than OLD's interquartile range, and NEW's
  share of failed operations is no larger than OLD's;
- **regression**: ``yes`` when NEW's median is worse than OLD's by more
  than the metric's ``bound``, a fraction of OLD's median; else
  ``unresolved`` when either side's interquartile range is wider than that
  bound and not every NEW run is better than every OLD run; else ``none``.

It also prints each side's share of failed operations; each side's
median and quartiles of the cold-start times pooled over all its runs
(the ``setup_s_samples`` of the runs' ``info`` lines, whose per-run median
is ``setup_s``); and the median over pairs of NEW's time over OLD's for
the pass times ``cpu_s`` and ``wall_s``, the reference job's ``ref_s`` that
the ratios divide, and ``setup_s``: taken within each pair, so the
machine's speed, which drifts between pairs, cancels, a ratio moved by the
reference job alone shows, and so does a cold start that did not move
while the run medians of ``setup_s`` swing.  It writes no
file: each run writes only below its own checkout's ``.perfbench_work/``.
Exit status: 0 when every run gave a result, 1 when one did not, 2 on bad
arguments.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_WINS = (9, 10)  # a claimed gain wins at least 9 of every 10 pairs


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``--trace 0`` run of ``checkout``'s benchmark,
    with the run's ``info`` line (pass and reference-job times) under
    ``"info"``; :class:`RuntimeError` when the run fails or prints no
    result."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    info = [line[len("info "):] for line in lines if line.startswith("info ")]
    try:
        return {**json.loads(lines[-1]), "info": json.loads(info[-1]) if info else None}
    except (IndexError, ValueError):
        raise RuntimeError(f"{' '.join(cmd)} printed no result line") from None


def info_time(run: dict, key: str):
    """``key`` of a run's ``info`` line: a time, or for ``setup_s`` the
    median of the run's cold-start samples; ``None`` when it is missing."""
    info = run["info"] or {}
    if key == "setup_s":
        samples = info.get("setup_s_samples")
        return statistics.median(samples) if samples else None
    return info.get(key)


def quartiles(values) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), by linear interpolation
    between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(old, new, better: str, bound: float, fail_shares=(0.0, 0.0)) -> dict:
    """The summary and the verdicts of one metric over paired runs.

    ``old[k]`` and ``new[k]`` are the two sides' values in pair k;
    ``better`` is ``"lower"`` or ``"higher"``, ``bound`` the fraction of
    OLD's median by which NEW's may be worse without a regression, and
    ``fail_shares`` the (OLD, NEW) shares of failed operations over all runs.
    """
    if len(old) != len(new) or not old:
        raise ValueError("need the same positive number of runs on both sides")
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - old) < 0 is a win
    wins = sum(sign * (b - a) < 0.0 for a, b in zip(old, new))
    o1, o2, o3 = quartiles(old)
    n1, n2, n3 = quartiles(new)
    gain = sign * (o2 - n2)  # how far NEW's median is better, in the metric's unit
    allowed = bound * abs(o2)
    if -gain > allowed:
        regression = "yes"
    elif max(o3 - o1, n3 - n1) > allowed and max(sign * b for b in new) >= min(sign * a for a in old):
        regression = "unresolved"  # the spread hides a move of the bound's size
    else:
        regression = "none"
    return {
        "old": (o1, o2, o3),
        "new": (n1, n2, n3),
        "change": (n2 - o2) / o2 if o2 else math.nan,
        "wins": wins,
        "pairs": len(old),
        "more_failed": fail_shares[1] > fail_shares[0],
        "gain": (GAIN_WINS[1] * wins >= GAIN_WINS[0] * len(old) and gain > o3 - o1
                 and fail_shares[1] <= fail_shares[0]),
        "regression": regression,
    }


def report(name: str, unit: str, result: dict) -> list[str]:
    """The lines :func:`main` prints for one metric."""
    o1, o2, o3 = result["old"]
    n1, n2, n3 = result["new"]
    wins, pairs = result["wins"], result["pairs"]
    need = -(-GAIN_WINS[0] * pairs // GAIN_WINS[1])
    spread = o3 - o1
    moved = abs(n2 - o2)
    failed = "; more operations failed" if result["more_failed"] else ""
    return [
        f"{name} ({unit}): old {o2:.6g} [{o1:.6g}, {o3:.6g}]  new {n2:.6g} [{n1:.6g}, {n3:.6g}]"
        f"  change {100.0 * result['change']:+.1f}%  new better in {wins}/{pairs} pairs",
        f"  gain: {'met' if result['gain'] else 'not met'} ({wins}/{pairs} wins, {need} needed;"
        f" median moved {moved:.6g}, old IQR {spread:.6g}{failed})",
        f"  regression: {result['regression']} (new IQR {n3 - n1:.6g})",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    old, new = args.old.resolve(), args.new.resolve()
    for checkout in (old, new):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((old / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]

    runs = {"old": [], "new": []}
    for seed in range(1, args.pairs + 1):
        order = ("old", "new") if seed % 2 else ("new", "old")
        for side in order:
            checkout = old if side == "old" else new
            try:
                result = run_once(checkout, args.workload, seed, seconds)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            runs[side].append(result)
        values = {side: runs[side][-1]["metrics"] for side in runs}
        cells = "  ".join(
            f"{m['name']} {values['old'][m['name']]['value']:.6g} -> {values['new'][m['name']]['value']:.6g}"
            for m in declared["end_to_end"]
        )
        print(f"pair {seed} ({order[0]} first): {cells}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds 1..{args.pairs}, {seconds:g} s per run")
    print(f"old {old}\nnew {new}")
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    attempted = {side: sum(r["attempted"] for r in runs[side]) for side in runs}
    shares = tuple(failed[side] / max(attempted[side], 1) for side in runs)
    for m in declared["end_to_end"]:
        name = m["name"]
        old_values = [r["metrics"][name]["value"] for r in runs["old"]]
        new_values = [r["metrics"][name]["value"] for r in runs["new"]]
        result = compare(old_values, new_values, m["better"], m["bound"], shares)
        print("\n".join(report(name, m["unit"], result)))
    for side in runs:
        correct = all(r["correct"] for r in runs[side])
        print(f"{side}: {failed[side]} of {attempted[side]} operations failed; every run correct: {correct}")
    for side in runs:
        pooled = [s for r in runs[side] for s in (r["info"] or {}).get("setup_s_samples") or ()]
        if pooled:
            q1, q2, q3 = quartiles(pooled)
            print(f"{side} setup_s, {len(pooled)} cold starts pooled: median {q2:.6g} [{q1:.6g}, {q3:.6g}] s")
    ratios = []
    for key in ("cpu_s", "wall_s", "ref_s", "setup_s"):
        pairs = [(info_time(a, key), info_time(b, key)) for a, b in zip(runs["old"], runs["new"])]
        if all(a and b for a, b in pairs):
            ratios.append(f"{key} {statistics.median(b / a for a, b in pairs):.4g}")
    print(f"new/old within a pair, median: {', '.join(ratios) or 'not reported'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
