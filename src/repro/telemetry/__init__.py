"""FlyMon reproduction telemetry: metrics, events, tracing, exporters.

One process-wide :class:`Telemetry` singleton (``TELEMETRY``) bundles the
metrics registry, the control-plane event log, and the datapath tracer.
Telemetry is **disabled by default**; instrumented hot paths guard all work
behind a single ``TELEMETRY.enabled`` attribute check so the disabled cost
is one branch.  The singleton instance is never replaced -- modules may
safely cache the reference at import time.

Typical use::

    from repro import telemetry

    telemetry.enable(sample_interval=64)
    ...  # deploy tasks, process traffic
    telemetry.TELEMETRY.events.of_type(telemetry.EV_TASK_ADD)
    print(telemetry.to_prometheus(telemetry.TELEMETRY.registry))
    telemetry.disable()
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.events import (  # noqa: F401  (re-exported taxonomy)
    EV_CHECKPOINT,
    EV_EPOCH_SEAL,
    EV_FAULT_INJECTED,
    EV_INGEST_SHED,
    EV_KEY_GRANT,
    EV_KEY_RELEASE,
    EV_MEM_ALLOC,
    EV_MEM_FREE,
    EV_MEM_SPLIT,
    EV_PLACEMENT_DECISION,
    EV_RESTORE,
    EV_RULES_INSTALL,
    EV_RULES_REMOVE,
    EV_SEALER_RESTARTED,
    EV_TASK_ADD,
    EV_TASK_FILTER_UPDATE,
    EV_TASK_REMOVE,
    EV_TASK_RESIZE,
    EV_TASK_SPLIT,
    EV_TXN_ROLLBACK,
    EV_WAL_DEGRADED,
    EV_WAL_REATTACHED,
    EV_WAL_SEGMENT_ROLL,
    EV_WATCHER_ACTION,
    EV_WATCHER_FIRED,
    EVENT_TYPES,
    Event,
    EventLog,
)
from repro.telemetry.export import (  # noqa: F401
    RESOURCE_GAUGE,
    build_snapshot,
    load_artifact,
    summarize,
    to_prometheus,
    update_resource_gauges,
    write_artifact,
)
from repro.telemetry.metrics import (  # noqa: F401
    DEFAULT_MS_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import (  # noqa: F401
    FlightRecorder,
    PhaseNode,
    SpanRecord,
    aggregate_spans,
    format_phase_tree,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.tracing import DEFAULT_SAMPLE_INTERVAL, Tracer  # noqa: F401


class Telemetry:
    """The bundle hot paths consult: ``enabled`` flag + registry/log/tracer.

    The flight :attr:`recorder` (phase spans, see
    :mod:`repro.telemetry.spans`) has its *own* enable flag, independent of
    the metrics/events ``enabled`` bit: span sites are coarse enough to run
    with metrics off, and vice versa.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.events = EventLog()
        self.tracer = Tracer(self.registry)
        self.recorder = FlightRecorder()

    def enable(self, sample_interval: Optional[int] = None) -> "Telemetry":
        if sample_interval is not None:
            self.tracer.set_sample_interval(sample_interval)
        self.enabled = True
        return self

    def disable(self) -> "Telemetry":
        self.enabled = False
        return self

    def reset(self) -> "Telemetry":
        """Zero metrics, clear events and spans; enabled state is unchanged.

        Metric instances are reset in place, so handles cached by
        instrumented modules (CMUs, pipelines) remain registered.
        """
        self.registry.reset()
        self.events.clear()
        self.recorder.clear()
        return self


#: The process-wide instance every instrumented module consults.
TELEMETRY = Telemetry()

#: The process-wide flight recorder (``TELEMETRY.recorder``); instrumented
#: modules cache this reference at import time -- it is never replaced.
RECORDER = TELEMETRY.recorder


def get_telemetry() -> Telemetry:
    return TELEMETRY


def enable(sample_interval: Optional[int] = None) -> Telemetry:
    return TELEMETRY.enable(sample_interval=sample_interval)


def disable() -> Telemetry:
    return TELEMETRY.disable()


def reset() -> Telemetry:
    return TELEMETRY.reset()


def enable_recorder(capacity: Optional[int] = None) -> FlightRecorder:
    """Turn the flight recorder on (independent of metrics/events)."""
    return RECORDER.enable(capacity=capacity)


def disable_recorder() -> FlightRecorder:
    return RECORDER.disable()
