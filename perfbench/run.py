#!/usr/bin/env python3
"""Benchmark of hmlc: one workload per run, the result on the last line of stdout.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics. Metric names and units come from
``BENCHMARK.json``. See ``perfbench/README.md`` for the workloads.
"""

import os

# One process with one caller: BLAS stays single-threaded. Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext, suppress  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups per run; setup_s is their median


def import_program() -> None:
    """Make ``hmlc`` importable from this checkout's sources, and only from there."""
    src = ROOT / "src"
    if not (src / "hmlc" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'hmlc'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import hmlc.cli  # noqa: F401  (loads every module the trace wraps)
    import hmlc
    if Path(hmlc.__file__).resolve().parent != src / "hmlc":
        sys.exit(f"error: imported hmlc from {hmlc.__file__}, not from {src}")


def host_facts(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload, args, work: Path, declared: dict) -> tuple[dict, dict]:
    """Facts about the run (sample counts, the unbounded median latency) and
    its result line."""
    import numpy as np
    import tracing

    setup_s = []
    for k in range(SETUPS):
        start = perf_counter()
        workload.setup(args.seed, work / f"setup{k}")
        setup_s.append(perf_counter() - start)

    tracer = tracing.Tracer()
    rounds = []
    start = perf_counter()
    # start another round only while it is expected to end within --seconds,
    # so that a run lasts about --seconds whatever the length of a round
    while (not rounds or (args.trace and len(rounds) < 2)
           or perf_counter() - start + statistics.mean(r.wall_s for r in rounds)
           <= args.seconds):
        # with --trace 1, untraced and traced rounds alternate; the untraced
        # ones are the baseline of the trace overhead
        with tracer.installed() if args.trace and len(rounds) % 2 else nullcontext():
            rounds.append(workload.run_round())

    facts = {"rounds": len(rounds), "latencies": sum(len(r.latencies_s) for r in rounds),
             "setups": len(setup_s)}
    if args.trace:
        tracer.require(workload.expected_spans)
        traced, untraced = rounds[1::2], rounds[0::2]
        values = tracing.layer_metrics(
            tracer, sum(r.wall_s for r in traced),
            statistics.mean(r.wall_s for r in untraced) * len(traced),
            *workload.step_counts(tracer))
    else:
        # pooled over the whole run: all its records and all its units of work.
        # On a shared host unit times fall into a fast and a slow mode whose
        # shares follow the load of other work on the host; the median jumps
        # between the modes as those shares move, p75 and p90 stay in the slow one.
        latencies_ms = 1000.0 * np.concatenate([r.latencies_s for r in rounds])
        facts["latency_ms_p50"] = float(np.percentile(latencies_ms, 50))
        values = {
            "setup_s": statistics.median(setup_s),
            "records_per_s": sum(r.records for r in rounds) / sum(r.records_s for r in rounds),
            "latency_ms_p75": float(np.percentile(latencies_ms, 75)),
            "latency_ms_p90": float(np.percentile(latencies_ms, 90)),
            "test_micro_f1": workload.test_micro_f1(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if values.keys() != declared.keys():
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json "
                           f"{sorted(declared)}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    return facts, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import tracing
    import workloads

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        facts, result = measure(workloads.WORKLOADS[args.workload](), args, work, declared)
    except tracing.CoverageError as e:
        sys.exit(f"error: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    print(json.dumps({"host": host_facts(args), "run": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
