"""Benchmark for hocn: run one seeded workload in this process and report.

Usage, from the repository root:

    python3 hocnbench/run.py --workload train-eval-ba2708 --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up the workload several times, repeats its operation in a
closed loop for ``--seconds`` (at least its minimum count) with no wrappers
installed, and reports the end-to-end metrics. ``--trace 1`` runs one set-up
and the minimum operations twice, first untraced and then with timing
wrappers around hocn's public functions, and reports the per-layer metrics.
Outputs are checked in both modes. The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a run
record (and, traced, the spans) is written under ``hocnbench/runs/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
# BLAS reads its thread count when numpy loads, so cap it before any import.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)
# Measure this checkout's sources and nothing installed elsewhere.
if not (SRC / "hocn" / "__init__.py").is_file():
    sys.exit(f"hocnbench: no program sources at {SRC / 'hocn'}")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import hocn  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer, installed, self_times, totals  # noqa: E402
from workloads import END_TO_END, FIGURES, WORKLOADS, Run  # noqa: E402

if Path(hocn.__file__).resolve().parent != (SRC / "hocn").resolve():
    sys.exit(f"hocnbench: imported hocn from {hocn.__file__}, not from {SRC}")


def _revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _mem_total_mb() -> float:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median(values, what):
    if not values:
        raise RuntimeError(f"no successful {what} to report")
    return statistics.median(values)


def measure(workload, seconds: float):
    """Untraced run: repeated set-up, then the closed loop."""
    run = Run(seconds, fixed=False)
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        workload.setup()
        run.setup_s.append(time.perf_counter() - start)
    workload.measure(run)
    values = {"setup_s": _median(run.setup_s, "set-up"),
              "op_s": _median(run.op_s, "operation"),
              "peak_rss_mb": peak_rss_mb()}
    return [run], {name: (values[name], unit) for name, unit in END_TO_END}, None


def trace(workload, seconds: float):
    """Traced run: the same fixed pass untraced, traced, then untraced again.

    The first pass lets lazy imports and the allocator warm up; the
    tracing overhead compares the traced pass with the last one.
    """
    def one_pass(run):
        workload.setup()
        workload.measure(run)

    tracer = Tracer()
    warmup, traced, plain = (Run(seconds, fixed=True) for _ in range(3))
    traced.tracer = tracer
    one_pass(warmup)
    with installed(tracer, layers.targets()):
        with tracer.span(f"bench.{workload.name}"):
            one_pass(traced)
    start = time.perf_counter()
    one_pass(plain)
    plain_wall = time.perf_counter() - start
    root = tracer.spans[0]
    values = layers.per_layer(tracer)
    values["trace.overhead_s"] = (root.end - root.start) - plain_wall
    values["trace.wall_s"] = plain_wall
    values["trace.self_sum_s"] = sum(self_times(tracer.spans))
    units = {name: unit for name, unit, *_ in layers.LAYERS + layers.TRACE_METRICS}
    return [warmup, traced, plain], {name: (values[name], units[name]) for name in units}, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workdir = ROOT / "hocnbench" / "runs"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    inputs: dict[str, str] = {}
    workload.prepare(args.seed, workdir, inputs)
    runs, values, tracer = (trace if args.trace else measure)(workload, args.seconds)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    figures = {}
    for run in runs:
        figures.update(run.figures)
    figures["failed_frac"] = failed / attempted
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "revision": _revision(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": NPROC,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "mem_total_mb": _mem_total_mb(), "inputs_sha256": inputs,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
        "figures": {name: {"value": v, "unit": FIGURES[name][0], "better": FIGURES[name][1],
                           "part_of": FIGURES[name][2]} for name, v in figures.items()},
        "samples": {"setup_s": runs[-1].setup_s, "op_s": runs[-1].op_s,
                    **{k: v for r in runs for k, v in r.times.items()}},
        "failures": [f for r in runs for f in r.failures],
    }
    if tracer is not None:
        record["self_s_by_span"] = {name: t["self_s"] for name, t in totals(tracer.spans).items()}
        record["moves"] = {name: moves for name, _, _, _, moves in layers.LAYERS}
    (workdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        origin = tracer.spans[0].start
        with open(workdir / f"{stem}.spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start - origin,
                                     "end": s.end - origin, "parent": s.parent}) + "\n")
    for failure in record["failures"]:
        print(f"hocnbench: check failed: {failure}", file=sys.stderr)
    for name, (value, unit) in values.items():
        print(f"metric {name} {value!r} {unit}")
    for name, entry in record["figures"].items():
        print(f"figure {name} {entry['value']!r} {entry['unit']} {entry['better']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
