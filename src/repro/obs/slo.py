"""Service-level objectives over the telemetry the platform already emits.

An :class:`SLObjective` declares, over existing metric series, what
fraction of events must be *good*; the :class:`SLOEngine` evaluates every
objective against an :class:`~repro.obs.telemetry.InMemoryTelemetry`
registry on the simulated clock and produces a deterministic
:class:`SLOReport` with error-budget and burn-rate accounting:

* ``ratio`` — good events are ``1 - bad/total`` over two counters
  (dead-lettered per published, denied per decided, dropped per link
  attempt);
* ``level`` — a point-in-time invariant: every matching gauge must sit
  at or below ``threshold`` (drained queues).

Breaches are emitted onto the service bus as first-class notifications —
:data:`SLO_ALERT_TOPIC` messages whose canonical-JSON body names only
the objective, the metric, thresholds and attainment.  Nothing about any
assisted person can appear in an alert because nothing about any person
exists in the metric layer the objectives read (the
:class:`~repro.obs.guard.PrivacyGuard` saw to that on ingest).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import canonical_json
from repro.exceptions import ConfigurationError
from repro.obs.metrics import matches
from repro.obs.recorder import EVENT_SLO_ALERT

#: Default multi-window burn-rate horizons (simulated seconds).
DEFAULT_SHORT_WINDOW = 5.0
DEFAULT_LONG_WINDOW = 60.0

#: Objective kinds.
KIND_RATIO = "ratio"
KIND_LEVEL = "level"

#: The bus topic SLO breach alerts are published under.
SLO_ALERT_TOPIC = "platform.slo.alerts"

#: Counter of alerts emitted, labelled by objective.
SLO_ALERTS = "slo.alerts_total"
#: Counter of engine evaluations.
SLO_EVALUATIONS = "slo.evaluations_total"

_EPSILON = 1e-12


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective over already-recorded metric series."""

    name: str
    kind: str
    metric: str
    #: Required good fraction in [0, 1] (e.g. 0.95 = "95% of requests").
    target: float
    #: ``level`` only: the max good gauge value.
    threshold: float = 0.0
    #: Label filter on ``metric`` series ({} matches every series).
    labels: tuple[tuple[str, str], ...] = ()
    #: ``ratio`` only: the bad-event counter (+ its label filter).
    bad_metric: str = ""
    bad_labels: tuple[tuple[str, str], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in (KIND_RATIO, KIND_LEVEL):
            raise ConfigurationError(
                f"unknown SLO kind {self.kind!r}; "
                f"use {KIND_RATIO!r} or {KIND_LEVEL!r}"
            )
        if not 0.0 <= self.target <= 1.0:
            raise ConfigurationError("SLO target must be within [0, 1]")
        if self.kind == KIND_RATIO and not self.bad_metric:
            raise ConfigurationError("a ratio objective needs bad_metric")


@dataclass(frozen=True)
class SLOStatus:
    """One objective's evaluated state."""

    objective: SLObjective
    attainment: float
    #: Events (counter increments, or gauge series) the evaluation saw.
    observed: float
    breached: bool
    #: Allowed bad fraction (1 - target).
    error_budget: float
    #: Bad fraction actually spent, as a multiple of the budget (>1 = blown).
    burn_rate: float
    #: Windowed rows (``("short", {...}), ("long", {...})``) when the
    #: engine evaluates against a time-series store; empty otherwise.
    windows: tuple[tuple[str, dict], ...] = ()

    def to_payload(self) -> dict:
        """The JSON row of this status (reports and alert bodies)."""
        row = {
            "name": self.objective.name,
            "kind": self.objective.kind,
            "metric": self.objective.metric,
            "target": self.objective.target,
            "threshold": self.objective.threshold,
            "attainment": round(self.attainment, 9),
            "observed": self.observed,
            "breached": self.breached,
            "error_budget": round(self.error_budget, 9),
            "burn_rate": round(self.burn_rate, 9),
        }
        if self.windows:
            row["windows"] = {name: dict(data) for name, data in self.windows}
        return row


@dataclass(frozen=True)
class SLOReport:
    """Deterministic outcome of one engine evaluation."""

    evaluated_at: float
    statuses: tuple[SLOStatus, ...]

    def breaches(self) -> tuple[SLOStatus, ...]:
        """The objectives currently out of budget."""
        return tuple(status for status in self.statuses if status.breached)

    def to_payload(self) -> dict:
        """The ``slo`` section of a BENCH_obs summary (and ``--slo-out``)."""
        return {
            "evaluated_at": self.evaluated_at,
            "objectives": [status.to_payload() for status in self.statuses],
            "breaches": len(self.breaches()),
        }

    def to_text(self) -> str:
        """Console rendering."""
        lines = [
            f"SLO REPORT (simulated t={self.evaluated_at:.3f}s, "
            f"{len(self.statuses)} objectives, {len(self.breaches())} breached)",
            f"  {'objective':<26} {'kind':<8} {'target':>7} {'attain':>7} "
            f"{'burn':>6}  state",
        ]
        for status in self.statuses:
            state = "BREACH" if status.breached else "ok"
            lines.append(
                f"  {status.objective.name:<26} {status.objective.kind:<8} "
                f"{status.objective.target:>7.3f} {status.attainment:>7.3f} "
                f"{status.burn_rate:>6.2f}  {state}"
            )
        return "\n".join(lines)


def default_objectives() -> tuple[SLObjective, ...]:
    """The platform's stock objectives, all over metrics it already emits.

    The counter/gauge names referencing other subsystems are spelled out
    as literals on purpose: the SLO layer reads metric series by name, it
    must not import the bus or the federation to do so.
    """
    return (
        SLObjective(
            name="bus-deadletter-ratio",
            kind=KIND_RATIO,
            metric="bus.published_total",
            bad_metric="bus.deadletter_total",
            target=0.999,
            description="≤ 0.1% of published notifications dead-lettered",
        ),
        SLObjective(
            name="pdp-deny-rate",
            kind=KIND_RATIO,
            metric="xacml.pdp.evaluations_total",
            bad_metric="xacml.pdp.evaluations_total",
            bad_labels=(("decision", "deny"),),
            target=0.5,
            description="most PDP evaluations resolve to permit",
        ),
        SLObjective(
            name="link-delivery",
            kind=KIND_RATIO,
            metric="federation.link.attempts_total",
            bad_metric="federation.link.drops_total",
            target=0.999,
            description="≤ 0.1% of federation link attempts dropped",
        ),
        SLObjective(
            name="node-queues-drained",
            kind=KIND_LEVEL,
            metric="federation.node.queue_depth",
            target=1.0,
            threshold=0.0,
            description="every node's bus queue drains to zero",
        ),
        SLObjective(
            name="tenant-starvation",
            kind=KIND_LEVEL,
            metric="sched.tenant.starvation_seconds",
            target=1.0,
            threshold=2.0,
            description="no tenant's scheduled work waits over 2 simulated s",
        ),
    )


def _burn_rate(objective: SLObjective, attainment: float, observed: float) -> float:
    """Bad fraction spent as a multiple of the budget (sentinel on zero)."""
    error_budget = 1.0 - objective.target
    bad_fraction = 1.0 - attainment
    if error_budget > _EPSILON:
        return bad_fraction / error_budget
    return 0.0 if bad_fraction <= _EPSILON else float(observed)


def _window_point(store, objective: SLObjective, window: float,
                  at: float | None = None) -> dict:
    """Attainment and burn of one objective over one window of ``store``.

    ``at`` picks *which* window is read — the live trailing one during
    evaluation (None), or the sample-anchored historical one ending at
    ``at`` when reconstructing a burn trajectory for an incident bundle.
    """
    if objective.kind == KIND_RATIO:
        total = store.delta(objective.metric, window, objective.labels, at=at)
        bad = store.delta(objective.bad_metric, window, objective.bad_labels,
                          at=at)
        attainment, observed = (
            (1.0, 0.0) if total <= 0.0 else (max(0.0, 1.0 - bad / total), total)
        )
    else:
        worst = store.gauge_worst(objective.metric, window, objective.labels,
                                  at=at)
        attainment, observed = (
            (1.0, 0.0) if worst is None else
            (1.0 if worst <= objective.threshold + _EPSILON else 0.0, 1.0)
        )
    return {
        "attainment": round(attainment, 9),
        "observed": observed,
        "burn_rate": round(_burn_rate(objective, attainment, observed), 9),
    }


def windowed_burn_series(store, objective: SLObjective,
                         window: float) -> list[dict]:
    """The burn-rate trajectory of one objective, one point per tick.

    Every point is computed purely from retained time-series samples
    (the ``at=`` anchor of :meth:`~repro.obs.timeseries.TimeSeriesStore.delta`
    and friends), so the series an incident bundle captures is the same no
    matter when it is asked for — the minutes *before* the trigger, not
    the state at export time.
    """
    return [{"at": at, **_window_point(store, objective, window, at)}
            for at in store.tick_times()]


class SLOEngine:
    """Evaluates objectives against one telemetry backend.

    A reader, not a controller collaborator: build ``SLOEngine(telemetry)``
    where the report is wanted.
    """

    def __init__(self, telemetry, objectives=None, timeseries=None,
                 recorder=None, short_window: float = DEFAULT_SHORT_WINDOW,
                 long_window: float = DEFAULT_LONG_WINDOW) -> None:
        if telemetry is None:
            raise ConfigurationError(
                "the SLO engine reads metric series; hand it a telemetry "
                "backend (RuntimeConfig(telemetry='inmemory'))"
            )
        if short_window <= 0 or long_window < short_window:
            raise ConfigurationError(
                "SLO windows need 0 < short_window <= long_window"
            )
        self.telemetry = telemetry
        self.clock = telemetry.clock
        self.objectives = tuple(objectives if objectives is not None
                                else default_objectives())
        #: Optional time-series store: when attached, every status also
        #: carries short/long-window attainment + burn instead of only
        #: the lifetime ratio.
        self.timeseries = timeseries
        self.short_window = short_window
        self.long_window = long_window
        self._recorder = recorder
        self._alert_topic_declared = False

    # -- evaluation ----------------------------------------------------------

    def evaluate(self) -> SLOReport:
        """Evaluate every objective now (simulated clock)."""
        self.telemetry.count(SLO_EVALUATIONS)
        statuses = tuple(self._evaluate_one(o) for o in self.objectives)
        return SLOReport(evaluated_at=self.clock.now(), statuses=statuses)

    def _evaluate_one(self, objective: SLObjective) -> SLOStatus:
        if objective.kind == KIND_RATIO:
            attainment, observed = self._ratio_attainment(objective)
        else:
            attainment, observed = self._level_attainment(objective)
        return SLOStatus(
            objective=objective,
            attainment=attainment,
            observed=observed,
            breached=attainment < objective.target - _EPSILON,
            error_budget=1.0 - objective.target,
            # Zero budget: any bad event is an infinite burn; _burn_rate
            # reports a deterministic sentinel instead of dividing by zero.
            burn_rate=_burn_rate(objective, attainment, observed),
            windows=self._windows(objective),
        )

    def _windows(self, objective: SLObjective) -> tuple[tuple[str, dict], ...]:
        """Short/long trailing-window rows, when a store is attached."""
        if self.timeseries is None:
            return ()
        return tuple(
            (name, {"window": window,
                    **_window_point(self.timeseries, objective, window)})
            for name, window in (("short", self.short_window),
                                 ("long", self.long_window))
        )

    def _ratio_attainment(self, objective: SLObjective) -> tuple[float, float]:
        total = self._counter_total(objective.metric, objective.labels)
        bad = self._counter_total(objective.bad_metric, objective.bad_labels)
        if total <= 0.0:
            return 1.0, 0.0
        return max(0.0, 1.0 - bad / total), total

    def _level_attainment(self, objective: SLObjective) -> tuple[float, float]:
        series = [
            gauge.value
            for labels, gauge in self.telemetry.metrics.gauge_series(
                objective.metric)
            if matches(labels, objective.labels)
        ]
        if not series:
            return 1.0, 0.0
        worst = max(series)
        return (1.0 if worst <= objective.threshold + _EPSILON else 0.0,
                float(len(series)))

    def _counter_total(self, name: str,
                       wanted: tuple[tuple[str, str], ...]) -> float:
        return sum(
            counter.value
            for labels, counter in self.telemetry.metrics.counter_series(name)
            if matches(labels, wanted)
        )

    # -- alerting ------------------------------------------------------------

    def alert(self, bus, report: SLOReport | None = None) -> int:
        """Publish one bus notification per breached objective.

        The alert body is the breach's canonical-JSON status row — metric
        names, thresholds and attainment only — making SLO violations
        first-class platform events any operator service can subscribe to
        without ever widening the privacy surface.
        """
        report = report if report is not None else self.evaluate()
        if not self._alert_topic_declared:
            bus.declare_topic(SLO_ALERT_TOPIC)
            self._alert_topic_declared = True
        for status in report.breaches():
            bus.publish(
                SLO_ALERT_TOPIC,
                sender="slo-engine",
                body=canonical_json({
                    "alert": "slo-breach",
                    "evaluated_at": report.evaluated_at,
                    **status.to_payload(),
                }),
            )
            self.telemetry.count(SLO_ALERTS, objective=status.objective.name)
            if self._recorder is not None:
                self._recorder.record(
                    EVENT_SLO_ALERT,
                    objective=status.objective.name,
                    metric=status.objective.metric,
                    attainment=round(status.attainment, 9),
                    burn_rate=round(status.burn_rate, 9),
                )
        return len(report.breaches())
