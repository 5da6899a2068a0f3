"""Unit tests for the built-in algorithms' planning logic and registry."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.estimators import hll_estimate
from repro.core.algorithms import ALGORITHM_REGISTRY, default_algorithm_for
from repro.core.algorithms.base import fields_from_flow
from repro.core.algorithms.frequency import TOWER_LAYOUT
from repro.core.task import AttributeSpec, MeasurementTask
from repro.traffic.flows import KEY_DST_IP, KEY_SRC_IP, FlowKeyDef


class TestRegistry:
    def test_all_builtins_registered(self):
        expected = {
            "cms",
            "sumax_sum",
            "mrac",
            "tower",
            "counter_braids",
            "hll",
            "beaucoup",
            "linear_counting",
            "bloom",
            "sumax_max",
            "max_interarrival",
        }
        assert expected <= set(ALGORITHM_REGISTRY)

    def test_defaults_per_attribute(self):
        freq = MeasurementTask(key=KEY_SRC_IP, attribute=AttributeSpec.frequency(), memory=64)
        assert default_algorithm_for(freq) == "cms"
        dist = MeasurementTask(
            key=KEY_DST_IP, attribute=AttributeSpec.distinct(KEY_SRC_IP), memory=64
        )
        assert default_algorithm_for(dist) == "beaucoup"

    def test_explicit_algorithm_wins(self):
        task = MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=64,
            algorithm="tower",
        )
        assert default_algorithm_for(task) == "tower"

    def test_unknown_explicit_algorithm_rejected(self):
        task = MeasurementTask(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=64,
            algorithm="nope",
        )
        with pytest.raises(KeyError):
            default_algorithm_for(task)


class TestShapes:
    def make(self, name, **kwargs):
        defaults = dict(
            key=KEY_SRC_IP,
            attribute=AttributeSpec.frequency(),
            memory=1024,
            depth=3,
            algorithm=name,
        )
        defaults.update(kwargs)
        task = MeasurementTask(**defaults)
        return ALGORITHM_REGISTRY[name](task)

    def test_cms_shape(self):
        algo = self.make("cms")
        assert algo.num_rows() == 3 and algo.groups_needed() == 1
        assert algo.rows_layout() == [3]

    def test_sumax_sum_chains_groups(self):
        algo = self.make("sumax_sum")
        assert algo.groups_needed() == 3
        assert algo.rows_layout() == [1, 1, 1]

    def test_mrac_single_row(self):
        assert self.make("mrac").num_rows() == 1

    def test_tower_row_memory_multipliers(self):
        algo = self.make("tower")
        assert algo.row_memory(1024) == [1024 * m for _, m in TOWER_LAYOUT]

    def test_counter_braids_layers(self):
        algo = self.make("counter_braids")
        assert algo.rows_layout() == [1, 1]
        assert algo.row_memory(1024) == [1024, 256]

    def test_interarrival_chains(self):
        algo = self.make(
            "max_interarrival",
            attribute=AttributeSpec.maximum("packet_interval"),
            depth=2,
        )
        assert algo.num_rows() == 6
        assert algo.rows_layout() == [2, 2, 2]

    def test_beaucoup_requires_threshold(self):
        with pytest.raises(ValueError):
            self.make(
                "beaucoup",
                attribute=AttributeSpec.distinct(KEY_SRC_IP),
                key=KEY_DST_IP,
            )

    def test_beaucoup_needs_param_key(self):
        algo = self.make(
            "beaucoup",
            attribute=AttributeSpec.distinct(KEY_SRC_IP),
            key=KEY_DST_IP,
            threshold=100,
        )
        assert algo.needs_param_key()


class TestFieldsFromFlow:
    def test_full_field_round_trip(self):
        fields = fields_from_flow(KEY_SRC_IP, (0x0A000001,))
        assert fields == {"src_ip": 0x0A000001}

    def test_prefix_flows_land_in_high_bits(self):
        key = FlowKeyDef.of(("src_ip", 24))
        flow = key.extract({"src_ip": 0x0A0102FF})
        fields = fields_from_flow(key, flow)
        assert fields["src_ip"] == 0x0A010200
        # Extraction of the reconstruction gives back the same flow key.
        assert key.extract(fields) == flow

    def test_multi_field(self):
        key = FlowKeyDef.of("src_ip", "dst_port")
        fields = fields_from_flow(key, (5, 80))
        assert fields == {"src_ip": 5, "dst_port": 80}


def _hll_ranks_loop(stored, rho_bits):
    """``FlyMonHll.estimate``'s rank extraction as it was before it was
    vectorised: one Python iteration per bucket.  Kept as the reference."""
    mask = (1 << rho_bits) - 1
    ranks = np.zeros(len(stored), dtype=np.int64)
    for i, value in enumerate(stored):
        if value == 0:
            continue  # empty bucket
        min_hash = (~int(value)) & mask
        if min_hash == 0:
            ranks[i] = rho_bits + 1
        else:
            ranks[i] = rho_bits - min_hash.bit_length() + 1
    return ranks


class TestHllRanksVectorised:
    """The vectorised rank extraction is integer-exact: same ranks as the
    per-bucket loop, so ``hll_estimate`` returns the same float."""

    @staticmethod
    def _algo(stored):
        task = MeasurementTask(
            key=KEY_DST_IP,
            attribute=AttributeSpec.distinct(KEY_SRC_IP),
            memory=len(stored),
            depth=1,
            algorithm="hll",
        )
        algo = ALGORITHM_REGISTRY["hll"](task)
        algo.rows = [SimpleNamespace(read=lambda: stored.copy())]
        return algo

    @pytest.mark.parametrize(
        "stored",
        [
            np.random.default_rng(7).integers(0, 1 << 16, 4096, dtype=np.int64),
            np.random.default_rng(8).integers(0, 1 << 16, 64).astype(np.uint16),
            np.zeros(1024, dtype=np.int64),
            np.full(1024, 0xFFFF, dtype=np.int64),
            np.array([1 << bit for bit in range(16)], dtype=np.int64),
            np.array([0xFFFF ^ (1 << bit) for bit in range(16)], dtype=np.int64),
        ],
        ids=["random", "random-u16", "all-zero", "all-ones", "single-bit-set",
             "single-bit-clear"],
    )
    def test_matches_the_per_bucket_loop(self, stored):
        algo = self._algo(stored)
        expected = _hll_ranks_loop(stored, algo.rho_bits)
        assert algo.ranks().dtype == np.int64
        assert algo.ranks().tolist() == expected.tolist()
        assert algo.estimate() == hll_estimate(expected)
