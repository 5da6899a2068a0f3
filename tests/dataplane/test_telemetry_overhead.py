"""Regression guard: telemetry must be near-free when disabled.

``Pipeline.process`` is the simulator's hot path; its only concession to
telemetry is a single ``TELEMETRY.enabled`` check per packet.  This test
measures that check against the exact uninstrumented loop body and fails if
the overhead reaches 5% -- catching any accidental always-on instrumentation
(allocation, dict lookups, sampling) sneaking into the disabled path.
"""

from time import perf_counter

from repro import telemetry
from repro.dataplane.pipeline import Pipeline

PACKETS = 15_000
REPEATS = 7

#: Recorder-off budget for the flight recorder on a full batched trace run
#: (ISSUE: spans must cost <1% when the recorder is disabled).
RECORDER_BUDGET = 0.01


def _build_pipeline() -> Pipeline:
    pipeline = Pipeline()
    for stage in pipeline.stages:
        stage.add_hook(lambda fields: None)
    return pipeline


def _time_once(fn, fields, packets=PACKETS) -> float:
    start = perf_counter()
    for _ in range(packets):
        fn(fields)
    return perf_counter() - start


def test_disabled_overhead_under_five_percent():
    pipeline = _build_pipeline()
    fields = {"src_ip": 0x0A000001, "dst_ip": 0x14000002, "src_port": 80}

    def uninstrumented(packet_fields, pipeline=pipeline):
        # Replicates Pipeline.process exactly as it was before telemetry.
        for stage in pipeline.stages:
            stage.process(packet_fields)

    telemetry.disable()
    # Warm-up both paths (bytecode caches, branch history).
    for _ in range(2_000):
        uninstrumented(fields)
        pipeline.process(fields)

    # Interleave the two sides repeat by repeat (A B A B ...) and compare
    # best-of each: this box flips between two speed states ~12 % apart, and
    # measuring one side after the other can put a flip on one side only.
    baseline = instrumented = float("inf")
    for _ in range(REPEATS):
        baseline = min(baseline, _time_once(uninstrumented, fields))
        instrumented = min(instrumented, _time_once(pipeline.process, fields))
    overhead = instrumented / baseline - 1.0
    assert overhead < 0.05, (
        f"telemetry-disabled Pipeline.process overhead {overhead:.2%} "
        f"(baseline {baseline * 1e6:.0f}us, instrumented {instrumented * 1e6:.0f}us "
        f"per {PACKETS} packets)"
    )


def test_recorder_off_overhead_under_one_percent():
    """The flight recorder must be invisible on the Fig. 14a batched path.

    Instrumented sites are coarse (per trace run / epoch), so the
    disabled cost is ``spans_per_run`` attribute checks.  Rather than trying
    to resolve a sub-0.1% wall-time delta out of scheduler noise, measure
    both factors directly: count how many recorder calls one batched trace
    replay makes (by running it once with the recorder on), micro-benchmark
    the disabled ``span()`` fast path, and require their product to stay
    under 1% of the measured run wall time.
    """
    import itertools

    import repro.core.task as task_mod
    from repro.core.controller import FlyMonController
    from repro.core.task import AttributeSpec, MeasurementTask
    from repro.traffic import zipf_trace
    from repro.traffic.flows import KEY_SRC_IP

    task_mod._task_ids = itertools.count(1)
    controller = FlyMonController(num_groups=3, place_on_pipeline=False)
    controller.add_task(
        MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=2048,
            depth=3,
            algorithm="cms",
        )
    )
    trace = zipf_trace(num_flows=500, num_packets=20_000, seed=14)

    recorder = telemetry.RECORDER
    telemetry.disable_recorder()
    controller.process_trace(trace, batch_size=2048)  # warm-up
    wall = float("inf")
    for _ in range(3):
        start = perf_counter()
        controller.process_trace(trace, batch_size=2048)
        wall = min(wall, perf_counter() - start)

    # One run's worth of span calls, observed with the recorder on.
    recorder.clear()
    telemetry.enable_recorder()
    try:
        controller.process_trace(trace, batch_size=2048)
        spans_per_run = len(recorder.spans)
    finally:
        telemetry.disable_recorder()
        recorder.clear()
    assert spans_per_run >= 1  # the batched path is instrumented...
    assert spans_per_run <= 16, (
        f"{spans_per_run} spans for one batched run -- recorder sites must "
        "stay coarse (per run, never per packet/batch)"
    )

    # Disabled fast path: one attribute check returning the shared NULL_SPAN.
    calls = 200_000
    start = perf_counter()
    for _ in range(calls):
        recorder.span("probe")
    per_call = (perf_counter() - start) / calls

    overhead = spans_per_run * per_call / wall
    assert overhead < RECORDER_BUDGET, (
        f"recorder-off overhead {overhead:.4%} of the batched run "
        f"({spans_per_run} spans x {per_call * 1e9:.0f}ns vs "
        f"{wall * 1e3:.1f}ms wall)"
    )


def test_enabled_telemetry_counts_and_samples():
    """Sanity: the traced path actually records what the disabled path skips."""
    pipeline = _build_pipeline()
    fields = {"src_ip": 1}
    telemetry.reset()
    telemetry.enable(sample_interval=8)
    try:
        for _ in range(64):
            pipeline.process(fields)
        registry = telemetry.TELEMETRY.registry
        assert registry.value("flymon_pipeline_packets_total") == 64
        assert registry.value("flymon_stage_packets_total", stage="0") == 64
        spans = registry.get("flymon_pipeline_process_seconds")
        assert spans is not None and spans.count == 64 // 8
    finally:
        telemetry.disable()
        telemetry.reset()
