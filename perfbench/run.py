"""hjgen benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the checkout is the directory above this file.  The run
writes only below ``<checkout>/.perfbench_work/<workload>/``:

1. writes the workload's seeded configs there (see ``inputs.py``);
2. ``field_roundtrip`` only: solves all four configs with ``python3 -m hjgen
   solve`` so that the timed passes have field CSVs to read;
3. ``--trace 0`` only: times ``import hjgen`` plus ``load_config`` in fresh
   interpreters (``probe.py``) and keeps the median as ``setup_s``;
4. runs the closed loop (``loop.py``) in one workload process for
   ``--seconds`` seconds, checking every pass's outputs;
5. prints each metric with its unit, then the result as the last line.

With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics.  Exits 2
without a result when the checkout has no hjgen sources or configs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import SHIPPED, WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11  # measured cold starts per run, after one warm-up
RUN_LIMIT_S = 170  # every child is killed past this point of the run


def _env() -> dict[str, str]:
    """Children import hjgen from the checkout and sweep serially."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("HJGEN_THREADS", None)
    return env


def _child(cmd, cwd: Path, env, deadline: float) -> str:
    """Run a child to completion (killed at the deadline); its stdout."""
    proc = subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(map(str, cmd))} exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return proc.stdout


def _tail(values) -> tuple[float | None, float | None]:
    """Highest of p50..p99.9 with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    best = (None, None)
    for p in (50, 75, 90, 95, 99, 99.9):
        k = math.ceil(p / 100.0 * n)
        if n - k >= 10:
            best = (p, ordered[k - 1])
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "hjgen" / "__init__.py", ROOT / "BENCHMARK.json"]
    needed += [ROOT / "configs" / f"{n}.cfg" for n in SHIPPED]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    write_configs(ROOT, work, args.seed, workload.configs)
    py = sys.executable
    try:
        for name in workload.reads:
            _child([py, "-m", "hjgen", "solve", f"{name}.cfg"], work, _env(), deadline)
        setup = []
        if not args.trace:
            probe = [py, str(HERE / "probe.py"), *(f"{n}.cfg" for n in workload.configs)]
            setup = [
                float(_child(probe, work, _env(), deadline))
                for _ in range(SETUP_PROBES + 1)
            ][1:]
        spec = {"root": str(ROOT), "workload": workload.name, "seed": args.seed,
                "seconds": args.seconds, "trace": bool(args.trace)}
        loop = [py, str(HERE / "loop.py"), json.dumps(spec)]
        out = json.loads(_child(loop, work, _env(), deadline).splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = out["passes"]
    timed = [p for p in passes if p["traced"] == bool(args.trace)]
    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    cpus = [p["cpu_s"] for p in untraced]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values = dict(out["layers"])
        values.update({f"fields.status.{k}": v for k, v in timed[-1]["status"].items()})
    else:
        values = {
            "wall_per_ref": statistics.median(p["wall_per_ref"] for p in untraced),
            "cpu_per_ref": statistics.median(p["cpu_per_ref"] for p in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    tail_p, tail_v = _tail(walls)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "wall_s": statistics.median(walls),
        "wall_min_s": min(walls),
        "ref_s": statistics.median(p["ref_s"] for p in untraced),
        "wall_s_tail": None if tail_p is None else {"percentile": tail_p, "value": tail_v},
        "wall_s_samples": len(walls),
        "wall_s_passes": walls,
        "cpu_s": statistics.median(cpus),
        "fail_share": failed / attempted,
        "setup_s_samples": setup,
        "status": timed[-1]["status"],
        "field_sha256": timed[-1]["digests"],
        "counts_repeat": out["counts_repeat"],
        "untraced_layers": out["untraced_layers"],
        "errors": out["errors"],
    }
    print(f"hjgen benchmark: {workload.name}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<38} {m['value']:>16.6g} {m['unit']}")
    tail = "" if tail_p is None else f", p{tail_p:g} {tail_v:.6g} s"
    print(f"  {'wall_s':<38} {info['wall_s']:>16.6g} s (median of {len(walls)}{tail})")
    print(f"  {'cpu_s':<38} {info['cpu_s']:>16.6g} s (median of {len(cpus)})")
    print(f"  {'ref_s':<38} {info['ref_s']:>16.6g} s (reference job, median)")
    print(f"  {'fail_share':<38} {info['fail_share']:>16.6g} ratio ({failed} of {attempted})")
    print("info " + json.dumps(info))
    result = {
        "correct": failed == 0 and not out["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
