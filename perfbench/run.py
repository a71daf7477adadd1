"""Run one workload of the shellcert benchmark and print its result as JSON.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The result, the raw per-operation times and (when traced)
the spans are also written under ``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import harness
import workloads
from spans import layer_metrics

RESULTS = harness.ROOT / "perfbench" / "results"


def _metric_specs(traced: bool) -> list:
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    return doc["per_layer" if traced else "end_to_end"]


def _render(values: dict, specs: list) -> dict:
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise KeyError("metrics not computed: %s" % ", ".join(missing))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = harness.WORKLOADS[workload_name]
    data = workload.data(seed)
    clock = harness.Clock()
    sc, built, setup_s = harness.setup(workload, data, clock)
    ctx = workloads.Context(sc)
    ops = workload.ops(ctx, data, built)
    tally = harness.Tally()
    times, ref_times, weights = harness.timed_phase(ctx, ops, seconds, tally, clock)
    values = {
        "ops_per_s": sum(weights.values()) / harness.median_round_seconds(ref_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    extra = {"rounds": len(next(iter(times.values()))), "times": times, "ref_times": ref_times,
             "weights": weights, "calibrations": clock.marks}
    if traced:
        tracer = harness.traced_round(ctx, ops, tally)
        values = layer_metrics(tracer.spans, sc.STAGES)
        traced_s = sum(s.duration for s in tracer.spans if s.name == "op")
        values["trace.overhead_s"] = traced_s - harness.mean_round_seconds(times)
        _write("trace-%s-seed%d.json" % (workload_name, seed),
               {"fields": ["id", "name", "start", "end", "parent", "attrs"],
                "spans": [s.as_list() for s in tracer.spans]})
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": _render(values, _metric_specs(traced)),
    }
    _write("%s-seed%d-trace%d.json" % (workload_name, seed, traced), dict(result, **extra))
    return result


def _write(name: str, doc: dict):
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / name).write_text(json.dumps(doc) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="corrupt one certificate, rank and hunt count; exit 0 iff each is caught")
    args = p.parse_args(argv)
    if not (harness.SRC / "shellcert" / "__init__.py").is_file():
        print("error: no shellcert sources under %s" % harness.SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        p.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
