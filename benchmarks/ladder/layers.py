"""Per-layer metrics of a traced run.

Span-derived numbers come from one traced repetition -- the one whose timed
region took the median wall -- so that the budget rows add up exactly:
every layer's *self* ns/packet plus ``harness.unattributed`` equals that
repetition's ``1e9 / ingest_pps``.  Timings the harness takes itself (each
reconfiguration operation, each query) are pooled over all repetitions.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from .spans import ROOT, LayerTotals
from .stats import tail

#: Rows of the ns/packet budget table, outermost caller last.
BUDGET_LAYERS = (
    "traffic",
    "hashing",
    "tables",
    "register",
    "cmu",
    "cmu_group",
    "controller.datapath",
    "service.ingest",
    "service.seal",
    "wal.capture",
    "wal.append",
    "fabric.ingest",
    "fabric.rotate",
    "fabric_merge",
)
UNATTRIBUTED = "harness.unattributed"


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def budget(rep) -> Dict[str, float]:
    """Self ns/packet of every layer of one traced repetition, plus the
    root's own (unattributed) share; the values sum to root / packets."""
    rows = {layer: rep.layers.get(layer, LayerTotals()).self_ns / rep.packets for layer in BUDGET_LAYERS}
    rows[UNATTRIBUTED] = rep.layers[ROOT].self_ns / rep.packets
    return rows


def layer_metrics(ctx, reps, e2e: Dict[str, Dict[str, object]], cli_startup: List[float]) -> Dict[str, object]:
    spec = ctx.spec
    plain = [rep for rep in reps if not rep.traced]
    traced = sorted((rep for rep in reps if rep.traced), key=lambda rep: rep.region_s)
    rep = traced[len(traced) // 2]
    packets = rep.packets
    layer = lambda name: rep.layers.get(name, LayerTotals())  # noqa: E731
    root = rep.layers[ROOT]
    rows = budget(rep)
    out: Dict[str, Dict[str, object]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": float(value), "unit": unit}

    def per_call_ms(name: str, calls: int = 0) -> float:
        totals = layer(name)
        calls = calls or totals.calls
        return totals.total_ns / calls / 1e6 if calls else 0.0

    put("traffic.self_ns_per_packet", rows["traffic"], "ns/packet")
    put("traffic.batches", layer("traffic").rows, "count")
    for name in ("hashing", "tables", "register"):
        put(f"{name}.self_ns_per_packet", rows[name], "ns/packet")
        put(f"{name}.calls", layer(name).calls, "count")
        put(f"{name}.rows", layer(name).rows, "count")
    register = layer("register")
    put("register.rows_per_call", register.rows / register.calls if register.calls else 0.0, "rows")
    put("cmu.self_ns_per_packet", rows["cmu"], "ns/packet")
    put("cmu.calls", layer("cmu").calls, "count")
    put("cmu_group.self_ns_per_packet", rows["cmu_group"], "ns/packet")
    put("controller.datapath_self_ns_per_packet", rows["controller.datapath"], "ns/packet")

    for op in ("add_task", "resize_task", "update_filter", "remove_task"):
        put(f"controller.{op}_ms_p50", _median([v for r in reps for v in r.op_ms[op]]), "ms")
    cycles = [v for r in reps for v in r.cycle_ms]
    put("controller.reconfig_ms_p99", tail(cycles)["value"], "ms")
    put("controller.reconfig_ops", sum(len(v) for v in rep.op_ms.values()), "count")
    put("controller.reconfig_failed", sum(r.failures.get("reconfig_ops", 0) for r in reps), "count")
    put("controller.rules_installed", rep.rules_installed, "count")

    reports = rep.shard_reports
    for phase in ("plan", "sync", "dispatch", "merge"):
        put(f"shard.{phase}_ms_per_window", _mean([r.timing.get(f"{phase}_ms", 0.0) for r in reports]), "ms")
    for phase in ("transport", "compute"):
        # A window waits for its slowest shard.
        slowest = [max((float(s[f"{phase}_ms"]) for s in r.shard_timings), default=0.0) for r in reports]
        put(f"shard.{phase}_ms_per_window", _mean(slowest), "ms")
    put("shard.cold_start_ms", rep.cold_start_ms if spec.workers > 1 else 0.0, "ms")
    put("shard.windows", len(reports), "count")
    put("shard.retries", sum(r.retries for r in reports), "count")
    put("shard.fallbacks", sum(1 for r in reports if r.fallback), "count")

    put("service.ingest_self_ns_per_packet", rows["service.ingest"], "ns/packet")
    put("service.seal_ns_per_packet", rows["service.seal"], "ns/packet")
    put("service.seals", len(rep.seal_ms), "count")
    put("service.seal_ms_p99", tail([v for r in reps for v in r.seal_ms])["value"], "ms")
    put("service.dropped_packets", sum(r.failures.get("dropped_packets", 0) for r in reps), "count")

    for kind in ("frequency", "cardinality", "heavy_hitters", "existence"):
        put(f"queries.{kind}_us_p50", _median([v for r in traced for v in r.query_us[kind]]), "us")
    put("queries.first_touch_us_p50", _median([v for r in traced for v in r.first_touch_us]), "us")
    put("queries.round_ms_p99", tail([v for r in reps for v in r.round_ms])["value"], "ms")
    put("queries.count", sum(len(v) for v in rep.query_us.values()), "count")
    put("queries.failed", sum(r.failures.get("query_rounds", 0) for r in reps), "count")

    put("wal.capture_ms_per_seal", per_call_ms("wal.capture"), "ms")
    put("wal.append_ms_per_seal", per_call_ms("wal.append"), "ms")
    put("wal.ns_per_packet", (layer("wal.capture").total_ns + layer("wal.append").total_ns) / packets, "ns/packet")
    put("wal.records", rep.wal.get("written", 0), "count")
    put("wal.rolls", rep.wal.get("rolls", 0), "count")
    put("wal.bytes_total", rep.wal.get("bytes", 0), "bytes")
    put("wal.lost_seals", sum(r.failures.get("wal_lost_seals", 0) for r in reps), "count")
    recover_s = _median([v for r in reps for v in r.recover_s])
    put("wal.recover_records_per_s", rep.wal.get("records", 0) / recover_s if recover_s else 0.0, "1/s")
    put("checkpoint.write_ms", _median([r.checkpoint_ms for r in reps]), "ms")
    put("checkpoint.bytes", rep.checkpoint_bytes, "bytes")

    barriers = layer("fabric.rotate").calls
    is_fabric = spec.kind == "fabric"
    put("fabric.dispatch_self_ns_per_packet", rows["fabric.ingest"], "ns/packet")
    put("fabric.member_ingest_ns_per_packet", layer("service.ingest").total_ns / packets if is_fabric else 0.0, "ns/packet")
    put("fabric.barrier_self_ms_per_epoch", layer("fabric.rotate").self_ns / barriers / 1e6 if barriers else 0.0, "ms")
    put("fabric.member_seal_ms_per_epoch", per_call_ms("service.seal", barriers) if is_fabric else 0.0, "ms")
    put("fabric_merge.ms_per_epoch", per_call_ms("fabric_merge"), "ms")
    put("fabric_merge.calls", layer("fabric_merge").calls, "count")
    put("fabric.degraded_members", sum(r.failures.get("degraded_members", 0) for r in reps), "count")
    plain_wall = _median([r.region_s for r in plain])
    put("fabric.vs_solo_ratio", plain_wall / float(ctx.reference["wall_s"]) if is_fabric else 0.0, "ratio")

    is_cli = spec.kind == "cli"
    put("cli.startup_s", _median(cli_startup), "s")
    put("cli.overhead_s", plain_wall - float(ctx.reference["wall_s"]) if is_cli else 0.0, "s")

    put("harness.unattributed_pct", 100.0 * root.self_ns / root.total_ns, "%")
    if is_cli:
        # Only the in-process equivalent is wrapped; compare like with like.
        traced_wall, plain_wall = _median([r.reference_s for r in traced]), float(ctx.reference["wall_s"])
    else:
        traced_wall = _median([r.region_s for r in traced])
    put("harness.trace_overhead_pct", 100.0 * (traced_wall / plain_wall - 1.0), "%")
    put("harness.reps", len(plain), "count")
    for metric, entry in e2e.items():
        put(f"harness.iqr_pct.{metric}", 100.0 * float(entry["iqr_share"]), "%")

    return {
        "metrics": out,
        "budget_ns_per_packet": rows,
        "budget_total_ns_per_packet": root.total_ns / packets,
        "traced_reps": len(traced),
    }
