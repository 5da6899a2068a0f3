"""The frozen ladder's sharded names are a single-process shim.

``benchmarks/ladder/adapter.py`` still passes ``MeasurementService(workers=,
runtime=)``, reads ``service.last_shard_report``, calls
``controller.close_shard_pool()`` and wraps
``FlyMonController.process_trace_sharded``.  There is one datapath process:
those names must run it and nothing else.
"""

import importlib
import multiprocessing

import numpy as np
import pytest

from repro.core.controller import FlyMonController
from repro.service import MeasurementService
from repro.traffic import zipf_trace

from service_tasks import freq_task, hll_task


def _service(trace, **kwargs):
    controller = FlyMonController(num_groups=3)
    handles = [controller.add_task(freq_task()), controller.add_task(hll_task())]
    service = MeasurementService(controller, epoch_packets=700, **kwargs)
    sealed = service.ingest(trace)
    rows = [[r.tolist() for h in handles for r in s.read_rows(h)] for s in sealed]
    return controller, service, rows


def _cells(controller):
    return [cmu.register.snapshot_cells() for g in controller.groups for cmu in g.cmus]


def test_sharded_names_run_the_single_process_engine():
    trace = zipf_trace(num_flows=300, num_packets=5000, seed=27)

    _, _, single = _service(trace)
    controller, service, shimmed = _service(trace, workers=2, runtime="persistent")
    assert shimmed == single
    assert multiprocessing.active_children() == []
    assert service.last_shard_report is None
    controller.close_shard_pool()

    with pytest.raises(ValueError):
        MeasurementService(controller, workers=0)
    with pytest.raises(ValueError):
        MeasurementService(controller, runtime="threads")

    sharded = FlyMonController(num_groups=3)
    sharded.add_task(freq_task())
    batched = FlyMonController(num_groups=3)
    batched.add_task(freq_task())
    assert sharded.process_trace_sharded(trace, 2) is None
    batched.process_trace(trace, batch_size=8192)
    for got, want in zip(_cells(sharded), _cells(batched)):
        np.testing.assert_array_equal(got, want)

    with pytest.raises(ImportError):
        importlib.import_module("repro.dataplane.sharding")
