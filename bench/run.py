"""corrlab benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 bench/run.py --workload claims-default --seed 0 --seconds 25 --trace 0

Workloads are ``claims-default``, ``sums-1e7`` and ``overlap-200`` (see
bench/README.md).  A run sets up ``SETUP_REPEATS`` times, then repeats the
workload's timed iteration until ``--seconds`` have passed (at least once),
then verifies the outputs outside the timed phase.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced iterations,
reports the per-layer metrics from the traced ones, and writes every span to
``bench/out/spans-<workload>-seed<seed>.jsonl``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Set-up runs per benchmark run; setup_s takes their median.
SETUP_REPEATS = 3

WORKLOAD_NAMES = ("claims-default", "sums-1e7", "overlap-200")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from workloads import BUILD_KINDS, CLAIM_IDS, SUM_KINDS

    sum_kinds = [k.label for k in SUM_KINDS]
    sum_layers = (
        "tables.prefix_sums",
        "correlation.type1",
        "correlation.type2",
        "identity.bilinear_rhs",
        "constants.density_estimate",
        "identity.identity_check",
    )
    return {
        **{f"tables.build_table.{k}.s": "s" for k in BUILD_KINDS},
        "tables.build_table.calls": "count",
        "tables.build_table.entries": "count",
        "tables.build_table.bytes_computed": "bytes",
        **{f"{layer}.{k}.s": "s" for layer in sum_layers for k in sum_kinds},
        **{f"correlation.type1.{k}.gbps_computed": "GB/s" for k in sum_kinds},
        **{f"constants.evaluate_claim.{c}.s": "s" for c in CLAIM_IDS},
        "constants.evaluate_claim.self_s": "s",
        "report.write.s": "s",
        "minoverlap.heuristic_Mn.s": "s",
        "minoverlap.heuristic_Mn.moves_per_s": "1/s",
        "minoverlap.exact_Mn.s": "s",
        "overlap_M": "count",
        "trace.overhead_s": "s",
    }


@dataclass
class Measurement:
    setup_times: list = field(default_factory=list)
    walls: list = field(default_factory=list)  # untraced iterations
    traced_walls: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # (traced, output) per iteration
    checks: list = field(default_factory=list)
    elapsed: float = 0.0
    peak_rss_mb: float = 0.0


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """Set up, run the timed phase, then verify outside it.

    With a tracer, iterations alternate untraced and traced (at least one of
    each) and set-up is traced too.
    """
    from workloads import Check

    m = Measurement()
    for i in range(SETUP_REPEATS):
        with _tracing(tracer, workload, f"setup{i}"):
            t = time.perf_counter()
            workload.setup()
            m.setup_times.append(time.perf_counter() - t)

    start = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        with _tracing(tracer if traced else None, workload, f"iter{n}"):
            t = time.perf_counter()
            try:
                handle = workload.run()
            except Exception as exc:  # the failure is counted and the run reports it
                traceback.print_exc()
                m.checks.append(Check(f"iteration {n} completes", False, repr(exc)))
                break
            wall = time.perf_counter() - t
        (m.traced_walls if traced else m.walls).append(wall)
        m.outputs.append((traced, workload.collect(handle)))
        n += 1
        if time.perf_counter() - start >= seconds and (tracer is None or n >= 2):
            break
    m.elapsed = time.perf_counter() - start
    # Read before verification, whose independent routes allocate memory too.
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if m.outputs:
        first = m.outputs[0][1]
        m.checks.extend(workload.verify(first))
        for i, (traced, out) in enumerate(m.outputs[1:], 1):
            what = "traced" if traced else "untraced"
            m.checks.append(
                Check(f"iteration {i} ({what}) output identical to iteration 0", workload.same(first, out))
            )
    return m


def _tracing(tracer, workload, segment: str):
    if tracer is None:
        return nullcontext()
    tracer.segment = segment
    return tracer.patched(workload.targets)


def _segment_metrics(spans) -> dict[str, float]:
    from spans import self_times

    out: dict[str, float] = {}

    def add(name, v):
        out[name] = out.get(name, 0.0) + v

    selfs = self_times(spans)
    type1_bytes: dict[str, float] = {}
    for s in spans:
        add(f"{s.metric}.s", s.duration)
        if s.name == "tables.build_table":
            add("tables.build_table.calls", 1)
            add("tables.build_table.entries", s.attrs["entries"])
            add("tables.build_table.bytes_computed", s.attrs["bytes"])
        elif s.name == "correlation.type1":
            key = s.attrs["key"]
            type1_bytes[key] = type1_bytes.get(key, 0.0) + s.attrs["bytes"]
        elif s.name == "constants.evaluate_claim":
            add("constants.evaluate_claim.self_s", selfs[s.id])
        elif s.name == "minoverlap.heuristic_Mn":
            add("minoverlap.heuristic_Mn.moves_per_s", s.attrs["moves"] / s.duration)
    for key, nbytes in type1_bytes.items():
        out[f"correlation.type1.{key}.gbps_computed"] = nbytes / out[f"correlation.type1.{key}.s"] / 1e9
    return out


def layer_metrics(tracer, workload, m: Measurement) -> dict[str, float]:
    """Median over set-up runs and traced iterations of each per-layer figure.

    Layers that the workload does not exercise read 0.
    """
    values: dict[str, list[float]] = {}
    for seg in tracer.segments():
        for name, v in _segment_metrics(seg).items():
            values.setdefault(name, []).append(v)
    result = {name: statistics.median(values.get(name, [0.0])) for name in per_layer_units()}
    if m.outputs:
        result.update(workload.counts(m.outputs[0][1]))
    if m.walls and m.traced_walls:
        result["trace.overhead_s"] = statistics.median(m.traced_walls) - statistics.median(m.walls)
    return result


def _cache_bytes(level: int) -> int | None:
    """Size of the CPU's unified or data cache at ``level``, read from sysfs."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
            return int(size.rstrip("KMG")) * scale
    except (OSError, ValueError):
        return None
    return None


def run_context(args, workload) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # corrlab claims falls back to the CPU count when neither --threads
        # nor CORRLAB_THREADS is given, as in claims-default.
        "claims_threads": os.cpu_count() or 1,
        "array_bytes": workload.array_bytes,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "corrlab" / "__init__.py").is_file():
        print(f"error: corrlab sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import corrlab

    if not Path(corrlab.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"error: imported corrlab from {corrlab.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T0
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    tracer = Tracer() if args.trace else None
    m = measure(workload, args.seconds, tracer)
    failed = [c for c in m.checks if not c.ok]
    context = run_context(args, workload)

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(m.walls) if m.walls else m.elapsed,
            "setup_s": import_s + statistics.median(m.setup_times),
            "peak_rss_mb": m.peak_rss_mb,
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, workload, m)
        units = per_layer_units()
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, args.workload, args.seed, context)
        print(f"spans {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")

    for key, value in context.items():
        print(f"context {key}={value}")
    print(f"setup_times_s {' '.join(f'{t:.4f}' for t in m.setup_times)}")
    print(f"untraced_walls_s {' '.join(f'{t:.4f}' for t in m.walls)}")
    print(f"traced_walls_s {' '.join(f'{t:.4f}' for t in m.traced_walls)}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(f"metric fail_ratio = {len(failed) / len(m.checks):.6g} ratio ({len(failed)}/{len(m.checks)})")
    if tracer is None and m.outputs:
        for name, value in workload.counts(m.outputs[0][1]).items():
            print(f"metric {name} = {value} count")
    for c in failed:
        print(f"FAILED {c.name}: {c.detail}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(m.checks),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
