"""Per-layer metrics: which package functions get spans, and how the spans of
a traced run become the ``per_layer`` metrics of BENCHMARK.json.

The layers are the package's modules.  Each metric is a total over the traced
calls of the run divided by their number, so it reads "per workload call"
(units ``s/call``, ``count/call``, ``bytes/call``); a layer the workload does
not reach reads 0.
"""

from __future__ import annotations

import ch_apparatus.lhv_feasibility as lhv_feasibility
from tracing import Tracer, busy_and_wall, resolve_parents, summarize


def _trials(tracer, args, kwargs, result) -> int:
    return len(result.r1)


def _arcs(tracer, args, kwargs, result) -> int:
    return len(result)


def _bytes(tracer, args, kwargs, result) -> int:
    return len(result.encode("utf-8"))


def _workers(tracer, args, kwargs, result) -> int:
    return int(kwargs.get("workers", args[1] if len(args) > 1 else 1))


def _lp_verdict(tracer, args, kwargs, result) -> int:
    tracer.note_verdict(args[0] if args else kwargs["table"], 0, result.feasible)
    return 0


def _battery_verdict(tracer, args, kwargs, result) -> int:
    tracer.note_verdict(args[0] if args else kwargs["table"], 1, result.passes)
    return 0


# Functions that get a span, by "module.function", with the size each records.
TARGETS = {
    "apparatus.run_trial": None,
    "apparatus.run_trials": _trials,
    "circle_geometry.partition_circle": _arcs,
    "exact_engine.event_probabilities": None,
    "exact_engine.conditional_table": None,
    "exact_engine.grid_oracle": None,
    "monte_carlo.phi_samples": None,
    "monte_carlo.run_sequence": None,
    "monte_carlo.run_campaign": _workers,
    "inequality_analysis.analyze": None,
    "inequality_analysis.fixed_lambda_check": None,
    "inequality_analysis.crossing_probability_set": None,
    "lhv_feasibility.feasible_joint": _lp_verdict,
    "lhv_feasibility.ch_battery": _battery_verdict,
    "simplex.solve_lp": None,
    "cli.cmd_demo": None,
    "cli.cmd_exact": None,
    "cli.run_checks": None,
    "cli.render_report": _bytes,
}

# metric name -> (span name, summary field, unit)
_SPAN_METRICS = {
    "monte_carlo.phi_samples.self_s": ("monte_carlo.phi_samples", "self_s", "s/call"),
    "apparatus.run_trials.self_s": ("apparatus.run_trials", "self_s", "s/call"),
    "apparatus.run_trials.trials": ("apparatus.run_trials", "size", "count/call"),
    "monte_carlo.run_sequence.self_s": ("monte_carlo.run_sequence", "self_s", "s/call"),
    "monte_carlo.chunks": ("monte_carlo.phi_samples", "calls", "count/call"),
    "apparatus.run_trial.calls": ("apparatus.run_trial", "calls", "count/call"),
    "apparatus.run_trial.self_s": ("apparatus.run_trial", "self_s", "s/call"),
    "exact_engine.event_probabilities.calls": ("exact_engine.event_probabilities", "calls", "count/call"),
    "exact_engine.event_probabilities.self_s": ("exact_engine.event_probabilities", "self_s", "s/call"),
    "circle_geometry.arcs": ("circle_geometry.partition_circle", "size", "count/call"),
    "simplex.solve_lp.calls": ("simplex.solve_lp", "calls", "count/call"),
    "simplex.solve_lp.self_s": ("simplex.solve_lp", "self_s", "s/call"),
    "lhv_feasibility.feasible_joint.self_s": ("lhv_feasibility.feasible_joint", "self_s", "s/call"),
    "lhv_feasibility.ch_battery.self_s": ("lhv_feasibility.ch_battery", "self_s", "s/call"),
    "inequality_analysis.fixed_lambda_check.calls": ("inequality_analysis.fixed_lambda_check", "calls", "count/call"),
    "inequality_analysis.fixed_lambda_check.self_s": ("inequality_analysis.fixed_lambda_check", "self_s", "s/call"),
    "exact_engine.grid_oracle.self_s": ("exact_engine.grid_oracle", "self_s", "s/call"),
    "inequality_analysis.crossing_probability_set.self_s": (
        "inequality_analysis.crossing_probability_set",
        "self_s",
        "s/call",
    ),
    "inequality_analysis.analyze.self_s": ("inequality_analysis.analyze", "self_s", "s/call"),
    "cli.render_report.self_s": ("cli.render_report", "self_s", "s/call"),
    "cli.report_bytes": ("cli.render_report", "size", "bytes/call"),
}

# Names of every per-layer metric, in BENCHMARK.json order.
METRIC_NAMES = (
    *_SPAN_METRICS,
    "monte_carlo.w2.busy_over_wall",
    "lhv_feasibility.verdict_agreement",
    "lhv_feasibility.verdicts_compared",
    "trace.overhead_share",
    "trace.calls",
)


# Raw spans kept for the sidecar; the rest are summarised and dropped, so a
# long traced run stays small in memory.
KEEP_SPANS = 100_000


class LayerTrace:
    """A tracer over TARGETS plus the running per-layer totals of a run."""

    def __init__(self):
        self.tracer = Tracer("ch_apparatus", TARGETS)
        self.summary: dict[str, dict[str, float]] = {}
        self.kept: list[tuple] = []
        self.dropped = 0
        self.compared = self.agreed = 0
        self.w2_busy = self.w2_wall = 0.0

    def end_call(self) -> None:
        """Fold the spans and verdicts of the call just traced into the totals."""
        spans = self.tracer.take_spans()
        parent = resolve_parents(spans, self.tracer.owner)
        for name, row in summarize(spans, parent).items():
            total = self.summary.setdefault(name, dict.fromkeys(row, 0))
            for field, value in row.items():
                total[field] += value
        busy, wall = busy_and_wall(spans, parent, "monte_carlo.run_campaign", "apparatus.run_trials", 2)
        self.w2_busy += busy
        self.w2_wall += wall
        compared, agreed = self.tracer.take_verdict_agreement(_no_signaling)
        self.compared += compared
        self.agreed += agreed
        room = KEEP_SPANS - len(self.kept)
        self.kept.extend(spans[:room])
        self.dropped += max(0, len(spans) - room)

    def metrics(self, calls: int, overhead_share: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.

        ``calls`` is the number of traced workload calls; ``overhead_share``
        is (median traced call - median untraced call) / median untraced call.
        """
        metrics = {}
        for name, (span, field, unit) in _SPAN_METRICS.items():
            metrics[name] = (self.summary.get(span, {}).get(field, 0) / calls, unit)
        # with no table judged by both routes there is no disagreement to report
        agreement = self.agreed / self.compared if self.compared else 1.0
        metrics["lhv_feasibility.verdict_agreement"] = (agreement, "ratio")
        metrics["lhv_feasibility.verdicts_compared"] = (self.compared / calls, "count/call")
        w2 = self.w2_busy / (2 * self.w2_wall) if self.w2_wall > 0 else 0.0
        metrics["monte_carlo.w2.busy_over_wall"] = (w2, "ratio")
        metrics["trace.overhead_share"] = (overhead_share, "ratio")
        metrics["trace.calls"] = (calls, "count")
        return {name: metrics[name] for name in METRIC_NAMES}


def _no_signaling(table) -> bool:
    return lhv_feasibility.no_signaling_deviation(table) <= lhv_feasibility.NORM_TOL
