"""In-memory spans around the calls that cross divergeflow's module
boundaries, and the per-layer metrics computed from them.

Wrappers go on the names the *calling* module imported -- ``ctm.junction_fluxes``,
``harness.solve``, ``harness.solve_fluxes``, ``harness.brute_force_fluxes``,
``waves.link_waves`` and ``ctm.run`` as the harness reaches them, the
experiment functions as ``cli`` imported them -- plus the
``FundamentalDiagram`` methods.  Calls a module makes to its own functions
(riemann's entropy probes through ``junction_fluxes``, for instance) therefore
stay inside the caller's span.  Spans nest by call stack; each records its
name, parent, start and end, and optionally a label taken from the arguments
and a note taken from the result.  Nothing is written until the caller asks.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import percentiles

# (layer, function, unit) of every per-call timing the metrics report.
CALL_TIMINGS = (
    ("fundamental_diagram", "demand", "us"),
    ("fundamental_diagram", "supply", "us"),
    ("fundamental_diagram", "density_from_state", "us"),
    ("fundamental_diagram", "construct", "ms"),
    ("riemann", "junction_fluxes", "us"),
    ("riemann", "solve", "us"),
    ("riemann", "solve_fluxes", "us"),
    ("waves", "link_waves", "us"),
)
ORACLE_RULES = ("daganzo_fifo", "lebacque", "supply_proportional", "priority_based", "partial_evacuation")
EXPERIMENTS = ("riemann_verify", "convergence_study", "flux_map", "property_suite")
LEAF_MODULES = ("fundamental_diagram", "riemann", "waves", "oracle", "ctm")
# The self times of all spans must cover the traced wall time up to this
# share of it; the rest is time outside every cli.main span.
CONSISTENCY_TOL = 0.01

_SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}


class Tracer:
    """Records one span per wrapped call.  A span is the list
    ``[name, label, parent, start_ns, end_ns]``; ``parent`` is the index of
    the enclosing span, or -1."""

    def __init__(self):
        self.spans = []
        self.notes = {}
        self._stack = []

    def wrap(self, name, fn, label=None, note=None):
        """A function that calls ``fn``, records a span around the call and
        returns exactly what ``fn`` returns.  ``label(*args, **kwargs)`` names
        a sub-series; ``note(args, result)`` is kept per span, both computed
        outside the timed interval."""
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, label(*args, **kwargs) if label else None, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(index)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if note is not None:
                notes[index] = note(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace each ``(owner, attribute, span name, options)`` target by
        its traced wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, options in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, **options))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def _oracle_rule(model, *args, **kwargs):
    return model.kind.value


def _oracle_unique(args, result):
    return result.unique


def _ctm_size(args, trajectory):
    config = args[0]
    return (config.cells_per_link, config.time_steps, trajectory.conservation_drift())


def divergeflow_targets():
    """The cross-module call sites of divergeflow that get spans."""
    from divergeflow import cli, ctm, harness, waves
    from divergeflow.fundamental_diagram import FundamentalDiagram

    fd = FundamentalDiagram
    targets = [
        (fd, "demand", "fundamental_diagram.demand", {}),
        (fd, "supply", "fundamental_diagram.supply", {}),
        (fd, "density_from_state", "fundamental_diagram.density_from_state", {}),
        (fd, "__post_init__", "fundamental_diagram.construct", {}),
        (ctm, "junction_fluxes", "riemann.junction_fluxes", {}),
        (harness, "solve", "riemann.solve", {}),
        (harness, "solve_fluxes", "riemann.solve_fluxes", {}),
        (harness, "brute_force_fluxes", "oracle.brute_force_fluxes", {"label": _oracle_rule, "note": _oracle_unique}),
        (harness.waves, "link_waves", "waves.link_waves", {}),
        (harness.ctm, "run", "ctm.run", {"note": _ctm_size}),
        (harness.ctm, "solution_difference", "ctm.solution_difference", {}),
    ]
    targets += [(cli, name, f"harness.{name}", {}) for name in EXPERIMENTS]
    return targets


def self_times(spans):
    """Per span, its duration minus the durations of its direct children."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own


def _module(name):
    return name.split(".", 1)[0]


def layer_metrics(tracer, wall_s, baseline_s, bytes_written):
    """Every per-layer metric of one traced experiment as ``{name: (value,
    unit)}``; layers the experiment never reached read 0.  ``wall_s`` is the
    traced experiment's wall time, ``baseline_s`` the same experiment's
    untraced wall time and ``bytes_written`` the size of its outputs.  Also
    returns the consistency problems (an empty list when the spans account
    for the wall time)."""
    spans = tracer.spans
    own = self_times(spans)
    durations = {}
    for s in spans:
        key = s[0] if s[1] is None else f"{s[0]}.{s[1]}"
        durations.setdefault(key, []).append(s[4] - s[3])

    metrics = {}

    def timing(prefix, calls_name, samples_ns, unit):
        stats = percentiles.summary([d * _SCALE[unit] for d in samples_ns])
        metrics[f"{prefix}.p50"] = (stats["p50"], unit)
        metrics[f"{prefix}.tail"] = (stats["tail"], unit)
        metrics[f"{prefix}.tail_pct"] = (stats["tail_pct"], "%")
        metrics[calls_name] = (stats["n"], "count")

    for layer, fn, unit in CALL_TIMINGS:
        timing(f"{layer}.{fn}_{unit}", f"{layer}.{fn}.calls", durations.get(f"{layer}.{fn}", []), unit)

    oracle_calls = 0
    for rule in ORACLE_RULES:
        samples = durations.get(f"oracle.brute_force_fluxes.{rule}", [])
        oracle_calls += len(samples)
        timing(f"oracle.brute_force_fluxes_ms.{rule}", f"oracle.brute_force_fluxes.{rule}.calls", samples, "ms")
    unique = sum(1 for i, s in enumerate(spans) if s[0] == "oracle.brute_force_fluxes" and tracer.notes.get(i))
    metrics["oracle.brute_force_fluxes.calls"] = (oracle_calls, "count")
    metrics["oracle.unique_ratio"] = (unique / oracle_calls if oracle_calls else 0.0, "ratio")

    runs = [(i, tracer.notes[i]) for i, s in enumerate(spans) if s[0] == "ctm.run" and i in tracer.notes]
    run_s = sum((spans[i][4] - spans[i][3]) * 1e-9 for i, _ in runs)
    steps = sum(n for _, (_, n, _) in runs)
    updates = sum(3 * m * n for _, (m, n, _) in runs)
    metrics["ctm.run_s"] = (run_s, "s")
    metrics["ctm.run.calls"] = (len(runs), "count")
    metrics["ctm.us_per_step"] = (run_s * 1e6 / steps if steps else 0.0, "us")
    metrics["ctm.cell_updates_per_s"] = (updates / run_s if run_s else 0.0, "1/s")
    metrics["ctm.conservation_drift_max"] = (max((d for _, (_, _, d) in runs), default=0.0), "ratio")

    self_by_name = {}
    for s, t in zip(spans, own):
        self_by_name[s[0]] = self_by_name.get(s[0], 0) + t
    for name in EXPERIMENTS:
        metrics[f"harness.{name}_self_s"] = (self_by_name.get(f"harness.{name}", 0) * 1e-9, "s")
    metrics["cli.self_s"] = (self_by_name.get("cli.main", 0) * 1e-9, "s")
    metrics["cli.bytes_written"] = (bytes_written, "B")

    # A module's share counts the time under its outermost spans, nested
    # calls into other modules included; its self time excludes them.
    for module in LEAF_MODULES:
        inclusive = sum(
            s[4] - s[3]
            for s in spans
            if _module(s[0]) == module and (s[2] < 0 or _module(spans[s[2]][0]) != module)
        )
        self_ns = sum(t for s, t in zip(spans, own) if _module(s[0]) == module)
        metrics[f"{module}.self_s"] = (self_ns * 1e-9, "s")
        metrics[f"{module}.share"] = (inclusive * 1e-9 / wall_s if wall_s else 0.0, "ratio")

    accounted_s = sum(own) * 1e-9
    untraced_s = wall_s - accounted_s
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.overhead_s"] = (wall_s - baseline_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.spans"] = (len(spans), "count")

    problems = []
    if any(s[4] < s[3] for s in spans) or any(t < 0 for t in own):
        problems.append("trace: a span ends before it starts or its children outlast it")
    if not 0.0 <= untraced_s <= CONSISTENCY_TOL * wall_s:
        problems.append(
            f"trace: self times add up to {accounted_s:.6f} s of {wall_s:.6f} s traced wall time"
        )
    return metrics, problems
