"""The ladder's workload table and its trace synthesis.

Every trace is made here, from ``--seed``, with the benchmark's own numpy
code; the program under test only ever receives the finished columns.
Nothing in this file imports ``repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

#: Column order of a packet trace.  The adapter asserts this equals the
#: program's own ``PACKET_FIELDS`` before anything runs.
FIELDS = (
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
    "timestamp",
    "pkt_bytes",
    "queue_length",
    "queue_delay",
)

#: Packets per manual seal in the untimed durability tail that workloads
#: without a WAL in their timed region run (attach a WAL, seal a few small
#: epochs, recover).
TAIL_CHUNK = 8_192
TAIL_SEALS = 6
#: Flows sampled for the CMS never-underestimates check.
SAMPLED_FLOWS = 200


@dataclass(frozen=True)
class Workload:
    """One rung: inputs, deployment and which phase sits in the timed region.

    ``kind`` picks the system driven: a ``MeasurementService`` ("service"),
    a ``FabricService`` ("fabric") or the ``repro serve`` subprocess ("cli").
    ``packets`` is the timed ingest region of one repetition.
    """

    name: str
    why: str
    kind: str
    packets: int
    flows: int
    zipf: float
    tasks: str
    epoch_packets: int
    chunk: int
    workers: int = 1
    wal_in_region: bool = False
    #: one reconfiguration cycle between consecutive chunks of the region
    reconfig_in_region: bool = False
    #: query rounds after each sealed epoch of the region (0 = tail only)
    query_rounds_per_epoch: int = 0
    #: reconfiguration cycles / query rounds run after the region instead
    tail_reconfig_cycles: int = 24
    tail_query_rounds: int = 32
    switches: int = 0
    #: timed ``recover_service`` calls per repetition (it only reads).  A
    #: fixed count, not a time budget: what a repetition allocates must not
    #: depend on how fast the machine happens to be.
    recovers_per_rep: int = 4
    #: leading packets replayed through the scalar and the batched datapath
    #: for the register-equality check (the scalar path costs ~30 us/packet
    #: per deployed task row set)
    prefix_check_packets: int = 20_000

    @property
    def tenant_block(self) -> Optional[int]:
        """The /3 source block the first task of each role filters on, for
        deployments whose tasks are filtered (ground truth is narrowed to it)."""
        return 0 if self.tasks == "tenants24" else None

    @property
    def total_packets(self) -> int:
        """Trace length: warm-up prefix chunk + region + durability tail."""
        return self.chunk + self.packets + TAIL_CHUNK * TAIL_SEALS

    def quick(self) -> "Workload":
        """The 50k-packet scale the tests run; numbers are not comparable."""
        return dataclasses.replace(
            self,
            packets=50_000,
            flows=min(self.flows, 5_000),
            epoch_packets=min(self.epoch_packets, 10_000),
            chunk=min(self.chunk, 8_192),
            query_rounds_per_epoch=min(self.query_rounds_per_epoch, 3),
            tail_reconfig_cycles=4,
            tail_query_rounds=9,
            prefix_check_packets=4_000,
            recovers_per_rep=2,
        )


_SHARED_HH = dict(
    packets=1_000_000,
    flows=100_000,
    zipf=1.1,
    tasks="hh_card",
    epoch_packets=100_000,
    chunk=32_768,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady_hh",
            why="Zipf trace, CMS heavy hitter + HLL, 100k-packet epochs, no WAL: "
            "hash/classify/register chain kernel do nearly all the work",
            kind="service",
            **_SHARED_HH,
        ),
        Workload(
            name="sharded_steady",
            why="steady_hh's trace and tasks on workers=2 persistent pool: same "
            "datapath work plus plan/sync/transport/merge; sealed cells must match",
            kind="service",
            workers=2,
            **_SHARED_HH,
        ),
        Workload(
            name="fast_rotate_wal",
            why="4k-packet epochs with a segmented fsync'd WAL, then recovery: "
            "seal + WAL append dominate and recovery reads what append wrote",
            kind="service",
            packets=500_000,
            flows=100_000,
            zipf=1.1,
            tasks="hh_card",
            epoch_packets=4_000,
            chunk=32_768,
            wal_in_region=True,
        ),
        Workload(
            name="multi_tenant_reconfig",
            why="uniform flows over 24 filtered tasks (cms/hll/sumax/bloom), 8k "
            "chunks, a reconfiguration cycle between chunks: classify, per-call "
            "overhead and controller mutation dominate",
            kind="service",
            packets=600_000,
            flows=200_000,
            zipf=0.0,
            tasks="tenants24",
            epoch_packets=50_000,
            chunk=8_192,
            reconfig_in_region=True,
            tail_reconfig_cycles=0,
            prefix_check_packets=8_192,
            recovers_per_rep=2,  # 0.5 s each: 24 tasks, 365 operations to replay
        ),
        Workload(
            name="query_mix",
            why="cms+hll+bloom with query rounds after every sealed epoch: reads "
            "beside writes, so work deferred from seal to first query shows",
            kind="service",
            packets=700_000,
            flows=100_000,
            zipf=1.1,
            tasks="hh_card_bloom",
            epoch_packets=50_000,
            chunk=32_768,
            query_rounds_per_epoch=30,
            tail_query_rounds=0,
        ),
        Workload(
            name="fabric_4sw",
            why="4 edge switches + core, 20k-packet barriers, checked against a "
            "solo union switch: dispatch/barrier/law-merge are the delta to solo",
            kind="fabric",
            packets=600_000,
            flows=100_000,
            zipf=1.1,
            tasks="hh_card",
            epoch_packets=20_000,
            chunk=20_000,
            switches=4,
        ),
        Workload(
            name="cli_serve",
            why="python -m repro serve as a subprocess over a saved .npz with WAL "
            "and checkpoint: the only rung that crosses cli.py",
            kind="cli",
            packets=500_000,
            flows=100_000,
            zipf=1.1,
            tasks="cli_hh_card",
            epoch_packets=40_000,
            chunk=32_768,
        ),
    )
}


def synthesize(spec: Workload, seed: int) -> Dict[str, np.ndarray]:
    """A seeded trace of ``spec.total_packets`` packets as int64 columns.

    Flow popularity is Zipf(``spec.zipf``) over ``spec.flows`` five-tuples
    (0 = uniform).  Source addresses are uniform over the 32-bit space, so
    the /3 tenant filters and the fabric's source blocks all see traffic.
    Timestamps are strictly increasing.
    """
    n = spec.total_packets
    rng = np.random.default_rng(seed)
    if spec.zipf > 0:
        weights = np.arange(1, spec.flows + 1, dtype=np.float64) ** -spec.zipf
        cdf = np.cumsum(weights / weights.sum())
        flow_of = np.searchsorted(cdf, rng.random(n), side="right")
        np.minimum(flow_of, spec.flows - 1, out=flow_of)
        # Rank and identity are independent: shuffle which tuple is popular.
        flow_of = rng.permutation(spec.flows)[flow_of]
    else:
        flow_of = rng.integers(0, spec.flows, size=n)
    src = rng.integers(0, 1 << 32, size=spec.flows, dtype=np.int64)
    dst = rng.integers(0, 1 << 32, size=spec.flows, dtype=np.int64)
    sport = rng.integers(1024, 1 << 16, size=spec.flows, dtype=np.int64)
    dport = rng.integers(1, 1024, size=spec.flows, dtype=np.int64)
    zeros = np.zeros(n, dtype=np.int64)
    return {
        "src_ip": src[flow_of],
        "dst_ip": dst[flow_of],
        "src_port": sport[flow_of],
        "dst_port": dport[flow_of],
        "protocol": np.full(n, 6, dtype=np.int64),
        "timestamp": np.cumsum(rng.integers(1, 4, size=n, dtype=np.int64)),
        "pkt_bytes": rng.integers(64, 1500, size=n, dtype=np.int64),
        "queue_length": zeros,
        "queue_delay": zeros.copy(),
    }


def trace_sha256(cols: Dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in FIELDS:
        digest.update(np.ascontiguousarray(cols[name]).tobytes())
    return digest.hexdigest()
