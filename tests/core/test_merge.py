"""Unit tests for the op-only merge laws (repro.core.merge)."""

import itertools

import repro.core.task as task_mod
from repro.core.controller import FlyMonController
from repro.core.merge import (
    LAW_MAX,
    LAW_OR,
    LAW_REPLAY,
    LAW_SUM,
    is_chained,
    merge_law,
)
from repro.core.task import AttributeSpec, MeasurementTask
from repro.traffic.flows import KEY_DST_IP, KEY_SRC_IP


def _cms_task(**kwargs):
    kwargs.setdefault("key", KEY_SRC_IP)
    kwargs.setdefault("attribute", AttributeSpec.frequency())
    kwargs.setdefault("memory", 2048)
    kwargs.setdefault("depth", 3)
    kwargs.setdefault("algorithm", "cms")
    return MeasurementTask(**kwargs)


def _plans(task):
    """``(plan, cmu)`` of every row of ``task`` deployed on a fresh controller."""
    task_mod._task_ids = itertools.count(1)
    controller = FlyMonController(num_groups=3, place_on_pipeline=False)
    handle = controller.add_task(task)
    return [(row.cmu.task_plans()[handle.task_id], row.cmu) for row in handle.rows]


def _laws(task):
    return {
        merge_law(plan, cmu.bucket_bits, cmu.register.value_mask)
        for plan, cmu in _plans(task)
    }


class TestMergeLaws:
    def test_cms_is_sum(self):
        assert _laws(_cms_task()) == {LAW_SUM}

    def test_armed_cms_is_still_sum(self):
        """The law is op-only: an alarm threshold does not change how cells
        update, so what to do about digests is the caller's policy."""
        assert _laws(_cms_task(threshold=10)) == {LAW_SUM}

    def test_max_and_or_laws(self):
        sumax = MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.maximum("queue_length"),
            memory=256,
            depth=2,
            algorithm="sumax_max",
        )
        bloom = MeasurementTask(
            key=KEY_DST_IP,
            attribute=AttributeSpec.existence(),
            memory=1024,
            depth=2,
            algorithm="bloom",
        )
        assert _laws(sumax) == {LAW_MAX}
        assert _laws(bloom) == {LAW_OR}

    def test_narrow_buckets_replay(self):
        """A sum over buckets under 8 bits is not trusted to commute with
        wrap-around: the law falls back to replay."""
        for plan, _cmu in _plans(_cms_task()):
            assert merge_law(plan, 4, 0xF) == LAW_REPLAY


class TestChaining:
    def test_chained_rows_are_detected(self):
        """SuMax(sum) rows read upstream CMU exports; CMS rows do not."""
        sumax_sum = MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=1024,
            depth=2,
            algorithm="sumax_sum",
        )
        assert any(is_chained(plan.config) for plan, _ in _plans(sumax_sum))
        assert not any(is_chained(plan.config) for plan, _ in _plans(_cms_task()))
