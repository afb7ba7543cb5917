"""Span recorder for the traced run, and the per-layer metrics derived from it.

`install` replaces the layer-boundary functions of qtransfer's modules with
timing wrappers, from outside the package. Each call becomes a span: name,
operation index, start, end and parent span. Spans stay in memory, in flat
arrays, and are written out once at the end.

Two bindings need care. `cli._HANDLERS` holds direct references to the
`cmd_*` handlers, so the dictionary entries are wrapped as well as the
module attributes. `entpur` imports `single_shot_fidelity` by name and calls
it once per outcome path (169,396 times at N=193); that binding, like
`outcome_probability` and `pass_probability`, is a per-path helper inside
the enumeration and is deliberately left unwrapped.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

#: Functions that one layer calls in the next, by module.
SPAN_POINTS = {
    "cli": ("main", "build_parser", "run_validation_checks"),
    "compare": ("crossing_points", "sweep"),
    "entpur": ("expected_fidelity_dp", "enumerate_paths", "mc_simulate", "step_oracle"),
    "qubitpur": ("average_fidelity", "outcome_distribution", "single_qubit_fidelity",
                 "spin_projector_oracle", "reduced_state_quadrature_oracle"),
    "estimate": ("estimation_fidelity",),
    "channel": ("teleport_oracle", "teleport_outcome_probabilities", "output_state"),
    "qmath": ("tensor", "apply_unitary", "partial_trace", "measure_projective"),
}

LAYERS = tuple(SPAN_POINTS)

_EXACT_EVALUATORS = ("entpur.expected_fidelity_dp", "qubitpur.average_fidelity")


class SpanRecorder:
    """Collects spans and the work counters read off returned results."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self.counters = dict.fromkeys(("entpur.paths", "entpur.mc_samples", "qubitpur.blocks",
                                       "cli.validate.checks", "cli.validate.passed"), 0)
        self._seen: dict[str, tuple[set, set]] = {name: (set(), set()) for name in _EXACT_EVALUATORS}
        self.repeats = {name: [0, 0, 0] for name in _EXACT_EVALUATORS}  # calls, same args, same n

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "entpur.expected_fidelity_dp":
            self.counters["entpur.paths"] += result.path_count
        elif name == "entpur.mc_simulate":
            self.counters["entpur.mc_samples"] += result.samples
        elif name == "qubitpur.outcome_distribution":
            self.counters["qubitpur.blocks"] += len(result.probs)
        elif name == "cli.run_validation_checks":
            self.counters["cli.validate.checks"] += len(result)
            self.counters["cli.validate.passed"] += sum(c["passed"] for c in result)
        if name in self.repeats and len(args) >= 2:
            same_args, same_n = self._seen[name]
            tally = self.repeats[name]
            tally[0] += 1
            tally[1] += (args[0], args[1]) in same_args
            tally[2] += args[0] in same_n
            same_args.add((args[0], args[1]))
            same_n.add(args[0])

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def install(recorder: SpanRecorder, package) -> list[tuple[object, str, object]]:
    """Wrap every span point of `package`; returns what `uninstall` needs."""
    undo = []
    for layer, attrs in SPAN_POINTS.items():
        module = getattr(package, layer)
        for attr in attrs:
            original = getattr(module, attr)
            undo.append((module, attr, original))
            setattr(module, attr, recorder.wrap(f"{layer}.{attr}", original))
    handlers = package.cli._HANDLERS
    for command, handler in list(handlers.items()):
        undo.append((package.cli, handler.__name__, handler))
        undo.append((handlers, command, handler))
        traced = recorder.wrap(f"cli.{handler.__name__}", handler)
        setattr(package.cli, handler.__name__, traced)
        handlers[command] = traced
    return undo


def uninstall(undo) -> None:
    for target, key, original in reversed(undo):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add up to the part of its interval they cover.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def _under(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Spans with a marked ancestor; parents always precede their children."""
    below = np.zeros(parent.shape, dtype=bool)
    has_parent = parent >= 0
    safe = np.where(has_parent, parent, 0)
    while True:
        step = has_parent & (marked[safe] | below[safe])
        if np.array_equal(step, below):
            return below
        below = step


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and the self time of every span name and layer.

    Returns (metrics, self_seconds). A ratio whose base is zero is reported
    as 0.0.
    """
    names = recorder.names
    index = {name: i for i, name in enumerate(names)}
    name_id = np.frombuffer(recorder.name_id, np.int32)
    parent = np.frombuffer(recorder.parent, np.int32)
    own = self_times(parent, np.frombuffer(recorder.start), np.frombuffer(recorder.end))
    count = np.bincount(name_id, minlength=len(names))
    own_by_name = np.bincount(name_id, weights=own, minlength=len(names))

    def calls(name):
        return int(count[index[name]]) if name in index else 0

    def self_s(name):
        return float(own_by_name[index[name]]) if name in index else 0.0

    self_seconds = {name: self_s(name) for name in names}
    for layer in LAYERS:
        self_seconds[layer] = sum(v for k, v in self_seconds.items() if k.startswith(layer + "."))

    def span_ids(*wanted):
        return np.isin(name_id, [index[n] for n in wanted if n in index])

    evaluators = span_ids(*_EXACT_EVALUATORS)
    under_compare = _under(parent, span_ids("compare.crossing_points", "compare.sweep"))
    under_crossing = _under(parent, span_ids("compare.crossing_points"))
    ops = calls("cli.main")
    dp_calls = calls("entpur.expected_fidelity_dp")
    crossings = calls("compare.crossing_points")
    ent_tally, qubit_tally = (recorder.repeats[n] for n in _EXACT_EVALUATORS)

    metrics = {
        "cli.ops": ops,
        "cli.self_s": self_seconds["cli"],
        "cli.build_parser_s": self_s("cli.build_parser"),  # it has no child spans
        "compare.crossing_points.calls": crossings,
        "compare.sweep.calls": calls("compare.sweep"),
        "compare.self_s": self_seconds["compare"],
        "compare.exact_evals": int(np.count_nonzero(evaluators & under_compare)),
        "compare.exact_evals_per_crossing":
            _ratio(np.count_nonzero(evaluators & under_crossing), crossings),
        "entpur.expected_fidelity_dp.calls": dp_calls,
        "entpur.paths": recorder.counters["entpur.paths"],
        "entpur.paths_per_eval": _ratio(recorder.counters["entpur.paths"], dp_calls),
        "entpur.repeat_args_frac": _ratio(ent_tally[1], ent_tally[0]),
        "entpur.repeat_n_frac": _ratio(ent_tally[2], ent_tally[0]),
        "qubitpur.repeat_args_frac": _ratio(qubit_tally[1], qubit_tally[0]),
        "qubitpur.average_fidelity.calls": calls("qubitpur.average_fidelity"),
        "qubitpur.single_qubit_fidelity.calls": calls("qubitpur.single_qubit_fidelity"),
        "qubitpur.blocks": recorder.counters["qubitpur.blocks"],
        "estimate.estimation_fidelity.calls": calls("estimate.estimation_fidelity"),
        "entpur.mc_samples": recorder.counters["entpur.mc_samples"],
        "channel.teleport_oracle.calls": calls("channel.teleport_oracle"),
        "cli.validate.checks_passed_frac":
            _ratio(recorder.counters["cli.validate.passed"], recorder.counters["cli.validate.checks"]),
    }
    for name in ("entpur.expected_fidelity_dp", "entpur.enumerate_paths",
                 "qubitpur.average_fidelity", "qubitpur.outcome_distribution",
                 "qubitpur.single_qubit_fidelity", "estimate.estimation_fidelity",
                 "entpur.mc_simulate", "entpur.step_oracle", "channel.teleport_oracle",
                 "qubitpur.spin_projector_oracle", "qubitpur.reduced_state_quadrature_oracle"):
        metrics[f"{name}.self_s"] = self_s(name)
    for name in SPAN_POINTS["qmath"]:
        metrics[f"qmath.{name}.calls"] = calls(f"qmath.{name}")
        metrics[f"qmath.{name}.self_s"] = self_s(f"qmath.{name}")
    return metrics, self_seconds
