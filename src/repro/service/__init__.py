"""Continuous measurement service: streaming epochs, queries, watchers.

The modules here turn the one-shot controller into a long-running runtime
(the ROADMAP's "serves heavy traffic continuously" north star, StreaMon's
stream-monitoring abstraction):

* :mod:`repro.service.engine` -- :class:`MeasurementService` ingests packet
  chunks indefinitely, rotates measurement epochs on packet-count,
  packet-time, or wall-clock boundaries, and seals each epoch into an
  immutable :class:`SealedEpoch` -- one array per deployed row, holding
  that row's register partition -- before resetting, so any number of
  threads query sealed state while the next epoch ingests;
* :mod:`repro.service.queries` -- typed queries (heavy hitters, frequency
  point lookup, cardinality, entropy, existence, inter-arrival) resolved
  against a sealed epoch or the live window;
* :mod:`repro.service.watchers` -- threshold rules evaluated at each seal
  that emit telemetry and can trigger transactional reconfiguration
  (ChameleMon-style attention shifting on the rollback machinery);
* :mod:`repro.service.checkpoint` -- JSON service artifacts (controller
  checkpoint + sealed epochs) that ``repro query`` resolves offline;
* :mod:`repro.service.wal` -- a crash-consistent write-ahead log: control
  mutations and epoch seals appended as records, replayable into a
  checkpoint-format artifact after a crash (``repro recover``);
* :mod:`repro.service.epoch_codec` -- the binary, checksummed frame those
  records are: a sealed epoch is encoded once, in native-width cells, and
  moved verbatim from then on;
* :mod:`repro.service.runner` -- :class:`ServiceRunner`, the chunk loop
  the CLI drives a service (or a fabric) with: each sealed epoch once,
  SIGTERM, WAL halt, tail seal.
"""

from repro.service.engine import (
    MeasurementService,
    SealedEpoch,
    SealedRowView,
    StaleEpochError,
)
from repro.service.queries import (
    CardinalityQuery,
    EntropyQuery,
    ExistenceQuery,
    FrequencyQuery,
    HeavyHitterQuery,
    InterArrivalQuery,
    Query,
    UnsupportedQueryError,
    resolve,
)
from repro.service.watchers import (
    ActionNoop,
    TaskRef,
    Watcher,
    WatcherEvent,
    cardinality_metric,
    fill_factor_metric,
    heavy_hitter_count_metric,
    resize_action,
)
from repro.service.checkpoint import load_service_state, service_checkpoint
from repro.service.wal import (
    ServiceWal,
    WalError,
    WalWriteError,
    iter_wal_records,
    recover_service,
    recover_service_artifact,
    wal_segments,
)

__all__ = [
    "ActionNoop",
    "CardinalityQuery",
    "EntropyQuery",
    "ExistenceQuery",
    "FrequencyQuery",
    "HeavyHitterQuery",
    "InterArrivalQuery",
    "MeasurementService",
    "Query",
    "SealedEpoch",
    "SealedRowView",
    "ServiceWal",
    "StaleEpochError",
    "TaskRef",
    "UnsupportedQueryError",
    "WalError",
    "WalWriteError",
    "Watcher",
    "WatcherEvent",
    "cardinality_metric",
    "fill_factor_metric",
    "heavy_hitter_count_metric",
    "iter_wal_records",
    "load_service_state",
    "recover_service",
    "recover_service_artifact",
    "resize_action",
    "resolve",
    "service_checkpoint",
    "wal_segments",
]
