"""WAL segmentation and compaction: bounded size, O(retain) recovery.

The tentpole guarantee: an hours-scale stream (hundreds of epochs) through
a segmented WAL keeps the on-disk footprint bounded by the roll threshold
(old segments are compacted into the new base and pruned) and recovery
reads only the newest intact segment -- cost proportional to ``retain``,
not to stream length.  A torn base (the mid-roll crash signature) falls
back exactly one segment.  The attach guard and the streaming record
reader (both PR 9 satellite bugfixes) get regression coverage here too.
"""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.service import (
    CardinalityQuery,
    MeasurementService,
    ServiceWal,
    WalError,
    iter_wal_records,
    recover_service_artifact,
    service_checkpoint,
    wal_segments,
)
from repro.service.epoch_codec import (
    KIND_BASE,
    KIND_SEAL,
    encode_frame,
    pack_tasks,
)
from repro.service.wal import read_wal_records
from repro.traffic import zipf_trace

from service_tasks import freq_task, hll_task
from wal_frames import comparable, frame_spans, truncate_to


def _strip_timing(artifact):
    epochs = []
    for entry in artifact["epochs"]:
        entry = dict(entry)
        entry.pop("seal_ms", None)
        epochs.append(entry)
    return epochs


def _dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


class TestSegmentedParity:
    def test_segmented_recovery_matches_checkpoint(self, controller, tmp_path):
        cms = controller.add_task(freq_task(threshold=80))
        hll = controller.add_task(hll_task())
        service = MeasurementService(controller, epoch_packets=2500, retain=8)
        service.register_series("cardinality", CardinalityQuery(hll))
        wal = ServiceWal(str(tmp_path / "seg"), segment_seals=3).attach(service)
        for seed in (70, 71, 72):
            service.ingest(zipf_trace(num_flows=400, num_packets=5000, seed=seed))
        wal.close()
        assert wal.rolls >= 1, "the roll threshold never tripped; vacuous"

        reference = service_checkpoint(service)
        recovered = recover_service_artifact(str(tmp_path / "seg"))
        assert _strip_timing(recovered) == _strip_timing(reference)
        assert recovered["rotation"] == reference["rotation"]
        assert recovered["stats"]["recovered_from_wal"] is True
        assert recovered["stats"]["wal_segments"] >= 1

    def test_roll_prunes_to_keep_segments(self, controller, tmp_path):
        controller.add_task(freq_task(memory=256, depth=1))
        service = MeasurementService(controller, epoch_packets=200, retain=4)
        wal = ServiceWal(str(tmp_path / "seg"), segment_seals=2).attach(service)
        service.ingest(zipf_trace(num_flows=50, num_packets=4000, seed=1))
        wal.close()
        segments = wal_segments(str(tmp_path / "seg"))
        assert len(segments) <= wal.keep_segments
        # The newest segment's base embeds the retained epochs (compaction).
        records = read_wal_records(segments[-1][1])
        assert records[0]["type"] == "base"
        assert len(records[0].get("epochs", [])) <= service.retain


class TestHoursScaleBounded:
    def test_long_stream_bounded_dir_and_o_retain_recovery(
        self, controller, tmp_path
    ):
        # >= 500 epochs with a small retain: the acceptance criterion.
        controller.add_task(freq_task(memory=256, depth=1, threshold=200))
        service = MeasurementService(controller, epoch_packets=40, retain=4)
        wal = ServiceWal(str(tmp_path / "seg"), segment_seals=8).attach(service)
        epochs_sealed = 0
        for seed in range(10):
            epochs_sealed += len(
                service.ingest(
                    zipf_trace(num_flows=60, num_packets=2200, seed=seed)
                )
            )
        wal.close()
        assert epochs_sealed >= 500
        assert wal.rolls >= 50

        # Bounded footprint: at most keep_segments segments exist, each no
        # bigger than one base (retain epochs) plus one roll window of
        # seals -- independent of the 500-epoch stream length.
        segments = wal_segments(str(tmp_path / "seg"))
        assert len(segments) <= wal.keep_segments
        record_counts = [len(read_wal_records(p)) for _, p in segments]
        # Per segment: 1 base + segment_seals seals + a roll's slack.
        assert max(record_counts) <= 1 + 8 + 2

        # O(retain) recovery: the replay touches one segment's records,
        # not the ~500 seal records the stream produced.
        recovered = recover_service_artifact(str(tmp_path / "seg"))
        assert recovered["stats"]["wal_records"] <= 1 + 8 + 2
        assert recovered["stats"]["epochs_recovered"] == service.retain
        reference = service_checkpoint(service)
        assert _strip_timing(recovered) == _strip_timing(reference)

    def test_segmented_dir_smaller_than_single_file(self, tmp_path):
        # Same stream, both layouts: the single file grows with the stream,
        # the directory stays bounded by the compaction threshold.
        from repro.core.controller import FlyMonController

        sizes = {}
        for mode in ("single", "segmented"):
            controller = FlyMonController(num_groups=3)
            controller.add_task(freq_task(memory=256, depth=1))
            service = MeasurementService(controller, epoch_packets=50, retain=4)
            if mode == "single":
                wal = ServiceWal(str(tmp_path / "flat.wal")).attach(service)
            else:
                wal = ServiceWal(
                    str(tmp_path / "seg"), segment_seals=8
                ).attach(service)
            for seed in range(4):
                service.ingest(
                    zipf_trace(num_flows=60, num_packets=2000, seed=seed)
                )
            wal.close()
            sizes[mode] = (
                os.path.getsize(tmp_path / "flat.wal")
                if mode == "single"
                else _dir_bytes(str(tmp_path / "seg"))
            )
        assert sizes["segmented"] * 4 < sizes["single"]


class TestTornBaseFallback:
    def _build(self, controller, tmp_path):
        controller.add_task(freq_task(memory=512, depth=2, threshold=80))
        service = MeasurementService(controller, epoch_packets=500, retain=4)
        wal = ServiceWal(str(tmp_path / "seg"), segment_seals=3).attach(service)
        service.ingest(zipf_trace(num_flows=100, num_packets=5000, seed=9))
        wal.close()
        segments = wal_segments(str(tmp_path / "seg"))
        assert len(segments) >= 2
        return service, segments

    def test_torn_newest_base_falls_back_one_segment(self, controller, tmp_path):
        service, segments = self._build(controller, tmp_path)
        intact = recover_service_artifact(str(tmp_path / "seg"))
        newest = segments[-1][1]
        base = frame_spans(newest)[0]
        truncate_to(newest, base.end // 2)  # the roll's torn base write
        fallback = recover_service_artifact(str(tmp_path / "seg"))
        assert fallback["stats"]["wal_segment"] == segments[-2][0]
        # The fallback segment holds everything up to the interrupted roll:
        # a strict prefix of the intact recovery's epochs.
        intact_by_index = {e["index"]: e for e in _strip_timing(intact)}
        recovered = _strip_timing(fallback)
        assert recovered, "fallback recovered nothing"
        for entry in recovered:
            assert entry == intact_by_index[entry["index"]]

    def test_empty_newest_segment_falls_back(self, controller, tmp_path):
        service, segments = self._build(controller, tmp_path)
        empty = os.path.join(
            os.path.dirname(segments[-1][1]),
            f"wal-{segments[-1][0] + 1:06d}.seg",
        )
        open(empty, "w").close()  # crash after create, before the base
        recovered = recover_service_artifact(str(tmp_path / "seg"))
        assert recovered["stats"]["wal_segment"] == segments[-1][0]

    def test_all_segments_baseless_raises(self, tmp_path):
        os.makedirs(tmp_path / "seg")
        open(tmp_path / "seg" / "wal-000001.seg", "w").close()
        with pytest.raises(WalError, match="intact base"):
            recover_service_artifact(str(tmp_path / "seg"))

    def test_json_lines_segments_are_refused_by_version(
        self, controller, tmp_path
    ):
        # A directory the JSON-lines release left behind: neither recovered
        # as if it were empty nor silently written next to.
        os.makedirs(tmp_path / "seg")
        (tmp_path / "seg" / "wal-000003.jsonl").write_text('{"type": "base"}\n')
        with pytest.raises(WalError, match="WAL version 2 .*before upgrading"):
            recover_service_artifact(str(tmp_path / "seg"))
        controller.add_task(freq_task())
        service = MeasurementService(controller, epoch_packets=1000)
        with pytest.raises(WalError, match="WAL version 2 "):
            ServiceWal(str(tmp_path / "seg"), resume=True).attach(service)
        assert service._wal is None
        assert os.listdir(tmp_path / "seg") == ["wal-000003.jsonl"]

    def test_empty_directory_raises(self, tmp_path):
        os.makedirs(tmp_path / "seg")
        with pytest.raises(WalError, match="empty WAL directory"):
            recover_service_artifact(str(tmp_path / "seg"))


class TestAttachGuard:
    """Satellite regression: attaching to a non-empty log must be refused
    (a second base mid-log makes recovery replay the wrong history)."""

    def _service(self, controller):
        controller.add_task(freq_task())
        return MeasurementService(controller, epoch_packets=1000, retain=4)

    def test_single_file_refused_without_resume(self, controller, tmp_path):
        path = tmp_path / "svc.wal"
        service = self._service(controller)
        wal = ServiceWal(str(path)).attach(service)
        service.ingest(zipf_trace(num_flows=50, num_packets=2000, seed=3))
        wal.close()
        with pytest.raises(WalError, match="already contains records"):
            ServiceWal(str(path)).attach(service)
        # The refused attach must leave the service re-attachable.
        assert service._wal is None

    def test_single_file_resume_rotates_aside(self, controller, tmp_path):
        path = tmp_path / "svc.wal"
        service = self._service(controller)
        wal = ServiceWal(str(path)).attach(service)
        service.ingest(zipf_trace(num_flows=50, num_packets=2000, seed=3))
        wal.close()
        first_log = path.read_bytes()

        wal2 = ServiceWal(str(path), resume=True).attach(service)
        service.ingest(zipf_trace(num_flows=50, num_packets=2000, seed=4))
        wal2.close()
        # Exactly one base per log: the old log moved to .prev whole.
        records = read_wal_records(str(path))
        assert sum(1 for r in records if r["type"] == "base") == 1
        assert Path(str(path) + ".prev").read_bytes() == first_log
        # And the resumed log recovers on its own (the resume base embeds
        # the epochs sealed before it).
        recovered = recover_service_artifact(str(path))
        reference = service_checkpoint(service)
        assert _strip_timing(recovered) == _strip_timing(reference)

    def test_single_file_attach_syncs_its_directory(
        self, controller, tmp_path, monkeypatch
    ):
        # Every record is fsync'd, but the file's *name* lives in the parent
        # directory: create and rename must be synced there too, or a power
        # loss leaves no log behind a run that never missed an fsync.
        from repro.service import wal as wal_module

        synced = []
        real = wal_module._fsync_dir

        def spy(directory):
            synced.append((directory, sorted(os.listdir(directory))))
            real(directory)

        monkeypatch.setattr(wal_module, "_fsync_dir", spy)
        path = tmp_path / "svc.wal"
        service = self._service(controller)
        wal = ServiceWal(str(path)).attach(service)
        assert synced == [(str(tmp_path), ["svc.wal"])]  # after the create
        service.ingest(zipf_trace(num_flows=50, num_packets=2000, seed=3))
        wal.close()

        del synced[:]
        wal2 = ServiceWal(str(path), resume=True).attach(service)
        assert synced == [
            (str(tmp_path), ["svc.wal.prev"]),  # after the rename
            (str(tmp_path), ["svc.wal", "svc.wal.prev"]),  # after the create
        ]
        wal2.close()

    def test_segment_dir_refused_without_resume(self, controller, tmp_path):
        path = tmp_path / "seg"
        service = self._service(controller)
        wal = ServiceWal(str(path), segment_seals=2).attach(service)
        service.ingest(zipf_trace(num_flows=50, num_packets=2000, seed=3))
        wal.close()
        with pytest.raises(WalError, match="already holds"):
            ServiceWal(str(path), segment_seals=2).attach(service)

    def test_segment_dir_resume_starts_next_segment(self, controller, tmp_path):
        path = tmp_path / "seg"
        service = self._service(controller)
        wal = ServiceWal(str(path), segment_seals=2).attach(service)
        service.ingest(zipf_trace(num_flows=50, num_packets=2000, seed=3))
        wal.close()
        last = wal_segments(str(path))[-1][0]
        wal2 = ServiceWal(str(path), segment_seals=2, resume=True).attach(
            service
        )
        assert wal_segments(str(path))[-1][0] == last + 1
        service.ingest(zipf_trace(num_flows=50, num_packets=2000, seed=4))
        wal2.close()
        recovered = recover_service_artifact(str(path))
        reference = service_checkpoint(service)
        assert _strip_timing(recovered) == _strip_timing(reference)


class TestStreamingReader:
    """Satellite regression: the record reader must stream, not slurp."""

    def _write_big_wal(self, path, records=400, payload_cells=2000):
        # Cells past 16 bits, so every row is stored four bytes a cell.
        filler = np.arange(payload_cells, dtype=np.int64) + (1 << 20)
        with open(path, "wb") as fh:
            fh.write(encode_frame(KIND_BASE, {"controller": {}}))
            for i in range(records):
                tasks, cells = pack_tasks([(0, [filler], [[]])])
                fh.write(
                    encode_frame(
                        KIND_SEAL, {"index": i, "tasks": tasks}, cells
                    )
                )
        return os.path.getsize(path)

    def test_iteration_memory_stays_far_below_file_size(self, tmp_path):
        path = str(tmp_path / "big.wal")
        size = self._write_big_wal(path)
        assert size > 2_000_000  # the regression needs a genuinely big log

        tracemalloc.start()
        count = 0
        for record in iter_wal_records(path):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 401
        # A slurping reader holds the whole file (plus parsed records); the
        # streaming reader's peak is one record's worth.
        assert peak < size / 4

    def test_streaming_reader_matches_list_reader(self, tmp_path):
        path = str(tmp_path / "small.wal")
        self._write_big_wal(path, records=5, payload_cells=10)
        streamed = comparable(iter_wal_records(path))
        assert streamed == comparable(read_wal_records(path))
        assert [r["type"] for r in streamed] == ["base"] + ["seal"] * 5
        assert streamed[3]["tasks"]["0"]["rows"] == [
            list(range(1 << 20, (1 << 20) + 10))
        ]

    def test_streaming_reader_tolerates_torn_tail_only(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        self._write_big_wal(path, records=3, payload_cells=4)
        data = Path(path).read_bytes()
        second, last = frame_spans(path)[1], frame_spans(path)[-1]
        with open(path, "ab") as fh:
            fh.write(data[last.start : last.end - 7])  # a frame cut short
        assert len(list(iter_wal_records(path))) == 4
        # ... but a cut-short frame followed by more records is corruption.
        cut = (second.start + second.end) // 2
        Path(path).write_bytes(data[:cut] + data[second.end :])
        with pytest.raises(WalError, match="mid-log"):
            list(iter_wal_records(path))
