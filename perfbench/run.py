"""qtransfer benchmark runner.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout. Builds nothing: the program is imported
from the checkout's src/. With --trace 0 it measures set-up time (fresh
`python -m qtransfer single` processes), then runs the workload in a fresh
worker process and reports the end-to-end metrics. With --trace 1 it runs
the workload untraced and then traced in one worker and reports the
per-layer metrics. Metric names and units come from BENCHMARK.json. The
last line of standard output is one JSON object; the lines above it are
the same figures for people, with the environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_ARGV = ["single", "--lambda0", "0.7"]
SETUP_REPEATS = 8
WORKER_TIMEOUT_S = 150


def bench_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    One BLAS thread: on two cores the default of two OpenBLAS threads
    stalls `validate` about fourfold now and then.
    """
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def setup_times(env: dict[str, str], count: int) -> list[float]:
    """Wall times from spawning `python -m qtransfer single` to its exit with a checked answer."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "qtransfer", *SETUP_ARGV], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        reason = reference.check(SETUP_ARGV, proc.returncode, proc.stdout)
        if reason is not None:
            raise RuntimeError(f"set-up command gave a wrong answer: {reason}: {proc.stderr}")
    return times


def run_worker(env, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload and print its figures; returns the result object."""
    env = bench_env()
    if trace:
        result = run_worker(env, workload, seed, seconds, trace)
    else:
        # Half of the set-up spawns before the workload and half after, so
        # the median spans the run instead of one moment of the host's
        # drifting speed. The first spawn writes the bytecode caches, which
        # a user pays once, and is not counted.
        setup = setup_times(env, 1 + SETUP_REPEATS // 2)[1:]
        result = run_worker(env, workload, seed, seconds, trace)
        setup += setup_times(env, SETUP_REPEATS - len(setup))
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    if trace:
        listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
        measured = result["metrics"]
        total = sum(v for k, v in result["self_seconds"].items() if "." not in k)
        print(f"self time by layer over {result['spans']} spans ({result['spans_file']}):")
        for layer, value in sorted(((k, v) for k, v in result["self_seconds"].items()
                                    if "." not in k), key=lambda kv: -kv[1]):
            print(f"  {layer:10s} {value:10.4f} s  {100 * value / total:5.1f} %")
        for name, value in measured.items():
            note = "" if name in listed else "  (printed only; see perfbench/README.md)"
            print(f"  {name:48s} {value:.6g}{note}")
    else:
        listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        measured = {key: result[key] for key in ("ops_per_s", "latency_p50_ms",
                                                 "latency_p90_ms", "peak_rss_mb")}
        measured["setup_s"] = statistics.median(setup)
        for name, value in measured.items():
            print(f"  {name:16s} {value:12.6g} {listed.get(name, '')}")
        print(f"  {'samples':16s} {result['attempted']:12d} ops (latency_p90_ms over these)")
        print(f"  {'failed_frac':16s} {result['failed'] / result['attempted']:12.6g} ratio "
              f"({result['failed']} of {result['attempted']})")
    for reason in result["reasons"]:
        print(f"  FAILED {reason}")
    missing = set(listed) - set(measured)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": measured[name], "unit": unit}
                        for name, unit in listed.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qtransfer" / "__init__.py").is_file():
        print(f"error: no qtransfer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(spec, name, args.seed, args.seconds, args.trace)
                   for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
