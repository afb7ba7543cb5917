"""One workload in one fresh process: the closed loop, the answer check and the trace.

Started by run.py with the environment it prepares (BLAS threads fixed at
one, PYTHONPATH pointing at the checkout's src). A single client runs
one operation at a time: `qtransfer.cli.main(argv)` with standard output
and standard error captured. Only that call is timed. Each answer is
checked against perfbench.reference right after the call, outside the
timed region, and the loop stops once the timed calls add up to the
requested seconds. Prints one JSON object on standard output.

Every CLI call a user makes starts a fresh process, so no garbage outlives
it. In one long process the path list of a large ent_pur run does outlive
it: it sits in a reference cycle until a full collection, and repeated
N=193 runs pile up hundreds of MB. So the loop runs a full collection,
untimed, whenever the calls since the last one took GC_EVERY_S or more;
collecting after every call would cost more than the small calls do.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import reference
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = Path(__file__).resolve().parent / "out"
_MAX_REASONS = 5
GC_EVERY_S = 0.05


class Loop:
    """Runs operations closed-loop and keeps per-operation latencies and failures."""

    def __init__(self, cli, keep_argvs: bool = False):
        self.cli = cli
        self.argvs: list[list[str]] | None = [] if keep_argvs else None
        self.latencies = array("d")
        self.busy = 0.0
        self._busy_at_gc = 0.0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # an escaping exception is a failed operation
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self.busy += elapsed
        if self.argvs is not None:
            self.argvs.append(argv)
        reason = reference.check(argv, code, out.getvalue())
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < _MAX_REASONS:
                self.reasons.append(f"{' '.join(argv)}: {reason}")
        if self.busy - self._busy_at_gc >= GC_EVERY_S:
            gc.collect()
            self._busy_at_gc = self.busy

    def run_for(self, ops, seconds: float) -> None:
        for argv in ops:
            self.run(argv)
            if self.busy >= seconds:
                return

    def summary(self) -> dict:
        lat = self.latencies
        p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
        return {"attempted": len(lat), "failed": self.failed, "reasons": self.reasons,
                "ops_per_s": (len(lat) - self.failed) / self.busy,
                "latency_p50_ms": 1e3 * statistics.median(lat), "latency_p90_ms": 1e3 * p90}


def _openblas_version(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def _git_commit() -> str:
    """Commit of the checkout, read from .git directly; 'none' outside a repository."""
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
    return "none"


def environment(np) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "openblas": _openblas_version(np),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "nproc": os.cpu_count(), "commit": _git_commit()}


def _import_package():
    import qtransfer

    source = ROOT / "src" / "qtransfer"
    if Path(qtransfer.__file__).resolve().parent != source:
        raise SystemExit(f"qtransfer imported from {qtransfer.__file__}, not from {source}")
    return qtransfer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = _import_package()
    import numpy as np

    ops = workloads.operations(args.workload, args.seed)
    plain = Loop(package.cli, keep_argvs=bool(args.trace))
    if not args.trace:
        plain.run_for(ops, args.seconds)
        result = plain.summary()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # Untraced first, then the same operations again with spans on; the
        # ratio of the two busy times is the tracing overhead.
        plain.run_for(ops, args.seconds / 2)
        recorder = tracer.SpanRecorder()
        traced = Loop(package.cli)
        undo = tracer.install(recorder, package)
        try:
            for i, argv in enumerate(plain.argvs):
                recorder.current_op = i
                traced.run(argv)
        finally:
            tracer.uninstall(undo)
        metrics, self_seconds = tracer.layer_metrics(recorder)
        metrics["trace.overhead_frac"] = traced.busy / plain.busy - 1.0
        SPAN_DIR.mkdir(exist_ok=True)
        spans = SPAN_DIR / f"spans-{args.workload}.npz"
        recorder.save(spans)
        result = {"attempted": len(plain.latencies) + len(traced.latencies),
                  "failed": plain.failed + traced.failed,
                  "reasons": plain.reasons + traced.reasons,
                  "metrics": metrics, "self_seconds": self_seconds,
                  "spans_file": str(spans.relative_to(ROOT)), "spans": len(recorder.start)}
    result["env"] = environment(np)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
