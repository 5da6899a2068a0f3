"""Unit tests for the fault-injection registry (repro.faults)."""

import pytest

from repro.faults import (
    FAULT_SITES,
    FaultError,
    FaultInjector,
    FaultSpecError,
    SITE_ALLOC_EXHAUSTED,
    SITE_KEY_DENIED,
    SITE_RULE_APPLY,
    SITE_SHARD_CRASH,
    SITE_SHARD_TIMEOUT,
    parse_spec,
)


class TestParseSpec:
    def test_bare_site(self):
        arms, options = parse_spec("rule_apply")
        assert len(arms) == 1
        assert arms[0].site == SITE_RULE_APPLY
        assert arms[0].hit == 1
        assert arms[0].prob is None
        assert not options

    def test_hit_index_and_arg(self):
        arms, _ = parse_spec("shard_crash@2=kill")
        assert arms[0].site == SITE_SHARD_CRASH
        assert arms[0].hit == 2
        assert arms[0].arg == "kill"

    def test_probability(self):
        arms, _ = parse_spec("alloc_exhausted%0.25")
        assert arms[0].prob == 0.25

    def test_options_are_not_sites(self):
        arms, options = parse_spec("seed=2026,rounds=25")
        assert arms == []
        assert options == {"seed": "2026", "rounds": "25"}

    def test_mixed_spec(self):
        arms, options = parse_spec("seed=7,rule_apply@3,key_denied")
        assert {a.site for a in arms} == {SITE_RULE_APPLY, SITE_KEY_DENIED}
        assert options == {"seed": "7"}

    @pytest.mark.parametrize(
        "bad",
        ["no_such_site", "rule_apply@zero", "rule_apply@0", "rule_apply%2.0"],
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            parse_spec(bad)


class TestFaultInjector:
    def test_deterministic_arm_fires_once_at_hit(self):
        inj = FaultInjector()
        inj.arm(SITE_RULE_APPLY, hit=3)
        assert inj.trip(SITE_RULE_APPLY) is None
        assert inj.trip(SITE_RULE_APPLY) is None
        assert inj.trip(SITE_RULE_APPLY) is True
        # One-shot: the arm is consumed, later hits pass through.
        assert inj.trip(SITE_RULE_APPLY) is None
        assert inj.hit_count(SITE_RULE_APPLY) == 4
        assert len(inj.fired()) == 1

    def test_fire_entries_counts_each_entry(self):
        inj = FaultInjector()
        inj.fire_entries(SITE_RULE_APPLY, 5)
        assert inj.hit_count(SITE_RULE_APPLY) == 5
        # Armed: the 7th hit is the 2nd entry of the next 4-entry rule.
        inj.arm(SITE_RULE_APPLY, hit=7)
        with pytest.raises(FaultError):
            inj.fire_entries(SITE_RULE_APPLY, 4)
        assert inj.hit_count(SITE_RULE_APPLY) == 7
        assert [f["hit"] for f in inj.fired()] == [7]
        with pytest.raises(FaultSpecError):
            inj.fire_entries("bogus_site", 2)

    def test_trip_returns_arg(self):
        inj = FaultInjector()
        inj.arm(SITE_SHARD_TIMEOUT, hit=1, arg="0.2")
        assert inj.trip(SITE_SHARD_TIMEOUT) == "0.2"

    def test_fire_raises_fault_error_with_context(self):
        inj = FaultInjector()
        inj.arm(SITE_RULE_APPLY, hit=1)
        with pytest.raises(FaultError) as excinfo:
            inj.fire(SITE_RULE_APPLY, target="cmug0/cmu0")
        assert excinfo.value.site == SITE_RULE_APPLY
        assert excinfo.value.context["target"] == "cmug0/cmu0"

    def test_probabilistic_arm_is_seeded_and_persistent(self):
        a = FaultInjector(seed=11)
        b = FaultInjector(seed=11)
        for inj in (a, b):
            inj.arm(SITE_ALLOC_EXHAUSTED, prob=0.5)
        outcomes_a = [a.trip(SITE_ALLOC_EXHAUSTED) for _ in range(50)]
        outcomes_b = [b.trip(SITE_ALLOC_EXHAUSTED) for _ in range(50)]
        assert outcomes_a == outcomes_b
        fired = [o for o in outcomes_a if o]
        assert fired, "p=0.5 over 50 trials must fire at least once"
        # Probabilistic arms are NOT one-shot.
        assert len(a.arms(SITE_ALLOC_EXHAUSTED)) == 1

    def test_disarm_and_reset(self):
        inj = FaultInjector()
        inj.arm(SITE_RULE_APPLY)
        inj.arm(SITE_KEY_DENIED)
        inj.disarm(SITE_RULE_APPLY)
        assert not inj.arms(SITE_RULE_APPLY)
        assert inj.arms(SITE_KEY_DENIED)
        inj.trip(SITE_KEY_DENIED)
        inj.reset()
        assert not inj.armed
        assert inj.hit_count(SITE_KEY_DENIED) == 0
        assert inj.fired() == []

    def test_configure_from_spec_arms_and_reseeds(self):
        inj = FaultInjector()
        inj.configure("seed=99,rule_apply@2")
        assert inj.options["seed"] == "99"
        assert inj.arms(SITE_RULE_APPLY)[0].hit == 2

    def test_unknown_site_rejected(self):
        inj = FaultInjector()
        with pytest.raises(FaultSpecError):
            inj.arm("bogus_site")
        assert "bogus_site" not in FAULT_SITES
