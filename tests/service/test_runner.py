"""ServiceRunner: the one chunk loop behind the service-driving commands.

Each sealed epoch is yielded exactly once, in index order -- chunk seals,
wall-clock seals and the tail alike -- for a MeasurementService and a
FabricService; SIGTERM stops at a chunk boundary and still seals the tail;
a WAL write failure halts without one.
"""

import signal
import time

import pytest

from repro.core.controller import FlyMonController
from repro.fabric import FabricService, FabricTopology
from repro.service import MeasurementService, WalWriteError
from repro.service.runner import ServiceRunner
from repro.traffic import zipf_trace
from service_tasks import freq_task

TRACE = zipf_trace(num_flows=300, num_packets=5_000, seed=5)


def _service(**kwargs):
    service = MeasurementService(FlyMonController(num_groups=3), **kwargs)
    service.controller.add_task(freq_task())
    return service


def _run(runner):
    epochs = list(runner)
    indices = [s.index for s in epochs]
    assert indices == list(range(len(epochs)))
    return epochs


class TestEpochs:
    def test_every_epoch_once_with_the_tail(self):
        runner = ServiceRunner(_service(epoch_packets=700), TRACE, chunk=1000)
        epochs = _run(runner)
        assert runner.outcome == "done" and runner.error is None
        assert runner.done == len(TRACE)
        assert sum(s.packets for s in epochs) == len(TRACE)
        assert epochs[-1].packets == len(TRACE) % 700  # the ragged tail

    def test_epochs_the_ring_evicted_are_still_yielded(self):
        service = _service(epoch_packets=100, retain=2)
        epochs = _run(ServiceRunner(service, TRACE, chunk=2000))
        assert len(epochs) == -(-len(TRACE) // 100)
        assert len(service.epochs) == 2

    def test_wall_clock_seals_are_yielded(self):
        service = _service(epoch_wall_ms=1.0, retain=10_000)
        # every chunk waits long enough for the sealer to tick
        runner = ServiceRunner(
            service, TRACE, chunk=250, on_chunk=lambda: time.sleep(0.003)
        )
        epochs = _run(runner)
        assert len(epochs) > 1
        assert sum(s.packets for s in epochs) == len(TRACE)
        assert service._wall_thread is None  # stopped with the run

    def test_fabric_service(self):
        fabric = FabricService(FabricTopology.preset(2), epoch_packets=1_500)
        fabric.deploy(freq_task())
        runner = ServiceRunner(fabric, TRACE, chunk=1_000)
        epochs = _run(runner)
        assert runner.outcome == "done"
        assert [s.packets for s in epochs] == [1_500] * 3 + [len(TRACE) - 4_500]


class TestStopping:
    def test_sigterm_stops_at_a_chunk_boundary_and_seals_the_tail(self):
        before = signal.getsignal(signal.SIGTERM)
        service = _service(epoch_packets=10_000)

        def on_chunk():
            if runner.done == 1_000:
                signal.raise_signal(signal.SIGTERM)

        runner = ServiceRunner(service, TRACE, chunk=500, on_chunk=on_chunk)
        epochs = _run(runner)
        assert runner.outcome == "terminated"
        assert runner.done == 1_000
        assert [s.packets for s in epochs] == [1_000]  # the tail
        assert signal.getsignal(signal.SIGTERM) is before

    def test_wal_failure_halts_without_a_tail(self):
        service = _service(epoch_packets=700)
        ingest = service.ingest
        calls = []

        def failing_ingest(piece):
            calls.append(len(piece))
            if len(calls) == 3:
                raise WalWriteError("disk full")
            return ingest(piece)

        service.ingest = failing_ingest
        runner = ServiceRunner(service, TRACE, chunk=1000)
        epochs = _run(runner)
        assert runner.outcome == "halted"
        assert str(runner.error) == "disk full"
        assert runner.done == 2_000
        assert [s.packets for s in epochs] == [700, 700]
        assert service.stats()["epoch_fill"] == 600  # not sealed

    def test_other_errors_propagate_and_seal_nothing(self):
        service = _service(epoch_packets=700)

        def on_chunk():
            raise RuntimeError("consumer failed")

        runner = ServiceRunner(service, TRACE, chunk=1000, on_chunk=on_chunk)
        with pytest.raises(RuntimeError):
            list(runner)
        assert runner.outcome is None
        assert service.stats()["epoch"] == 1
