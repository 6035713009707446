"""The workload process: a closed loop of passes over one workload.

Run by ``run.py`` as ``python3 perfbench/loop.py <spec-json>`` from the
workload's work directory, with ``src`` on ``PYTHONPATH``.  One client runs
a pass, checks its outputs, and starts the next pass until the run's time is
used.  Each pass's times are also given relative to the reference job of
``reference.py``, timed around and during the pass.  With tracing, the first
half of the time runs untraced passes and the second half traced ones, so
the two can be compared.  Prints one JSON line.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _cpu() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    import hjgen
    from hjgen import numerics

    if Path(hjgen.__file__).resolve().parent != (root / "src" / "hjgen").resolve():
        print(f"error: imported hjgen from {hjgen.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    from tracer import Tracer, is_count, layer_metrics, write_spans
    from inputs import WORKLOADS
    from passes import Runner
    from reference import SLICES, SpeedSampler, reference_seconds

    runner = Runner(WORKLOADS[spec["workload"]], spec["seed"])
    seconds = spec["seconds"]
    trace = spec["trace"]
    errors: list[str] = []
    passes = []
    layers = []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    refs = [reference_seconds()]
    sampler = SpeedSampler()

    def one_pass(traced: bool):
        if traced:
            tracer.install()
        try:
            with sampler:
                w0, c0 = time.perf_counter(), _cpu()
                produced = runner.timed_pass()
                wall, cpu = time.perf_counter() - w0, _cpu() - c0
        finally:
            if traced and not tracer.uninstall():
                errors.append("tracer left a wrapped function in place")
        refs.append(reference_seconds())
        # the machine's speed during the pass: the slices sampled in it, and
        # the whole jobs on either side, which dominate for short passes
        slices = sampler.samples + [refs[-2] / SLICES, refs[-1] / SLICES]
        ref = SLICES * sum(slices) / len(slices)
        wall -= sum(sampler.samples)
        cpu -= sum(sampler.samples)
        result = runner.check(*produced)
        if traced:
            # the panel cap is private; without it quad_at_cap reads 0
            max_panels = getattr(numerics, "_MAX_PANELS", None)
            layers.append(layer_metrics(tracer, result.ops, max_panels))
        passes.append({
            "wall_s": wall, "cpu_s": cpu, "ref_s": ref,
            "wall_per_ref": wall / ref, "cpu_per_ref": cpu / ref,
            "traced": traced, **vars(result),
        })

    untraced_until = seconds / 2 if trace else seconds
    while not passes or time.perf_counter() - start < untraced_until:
        one_pass(False)
    if trace:
        while not passes[-1]["traced"] or time.perf_counter() - start < seconds:
            one_pass(True)
        write_spans(tracer.spans, f"{spec['workload']}.spans.tsv")

    if any(p["digests"] != passes[0]["digests"] for p in passes):
        errors.append("passes over the same inputs wrote different outputs")
    counts_repeat = all(
        layer[k] == layers[0][k] for layer in layers for k in layer if is_count(k)
    )
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if layers:
        layers = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        layers["trace.overhead"] = statistics.median(
            p["wall_per_ref"] for p in passes if p["traced"]
        ) / statistics.median(p["wall_per_ref"] for p in passes if not p["traced"])
    print(json.dumps({
        "passes": passes,
        "errors": errors,
        "peak_rss_kb": usage,
        "layers": layers or None,
        "counts_repeat": counts_repeat,
        "untraced_layers": sorted(tracer.missing) if trace else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
