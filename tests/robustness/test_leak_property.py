"""Property tests: forced failures never leak memory, keys, or rules.

Each round compares the whole controller -- every group's stores and
registers -- not only the groups the operation worked on.

The schedule (seed, rounds) comes from the ``FLYMON_FAULTS`` options when
the CI fault leg sets them, so the same suite scales from a quick local run
to the leg's longer randomized sweep.
"""

import random

from controller_state import controller_state, without_rule_count
from repro.core.controller import FlyMonController
from repro.core.task import AttributeSpec, MeasurementTask, TaskFilter
from repro.faults import (
    FAULTS,
    SITE_ALLOC_EXHAUSTED,
    SITE_KEY_DENIED,
    SITE_RULE_APPLY,
)
from repro.traffic.flows import KEY_SRC_IP

#: (site, highest meaningful hit index for one cms add_task).
SITES = (
    (SITE_RULE_APPLY, 8),
    (SITE_ALLOC_EXHAUSTED, 3),
    (SITE_KEY_DENIED, 1),
)


def freq_task(**kwargs):
    kwargs.setdefault("key", KEY_SRC_IP)
    kwargs.setdefault("attribute", AttributeSpec.frequency())
    kwargs.setdefault("memory", 4096)
    kwargs.setdefault("depth", 3)
    kwargs.setdefault("algorithm", "cms")
    return MeasurementTask(**kwargs)


def test_randomized_fault_rounds_never_leak(fault_schedule):
    seed, rounds = fault_schedule
    rng = random.Random(seed)
    controller = FlyMonController(num_groups=3)
    for i, algorithm in enumerate(("cms", "tower")):
        controller.add_task(
            freq_task(
                algorithm=algorithm,
                filter=TaskFilter.of(src_ip=((10 + i) << 24, 8)),
            )
        )
    baseline = controller_state(controller)
    aborted = survived = 0
    for n in range(rounds):
        site, max_hit = SITES[rng.randrange(len(SITES))]
        hit = rng.randint(1, max_hit)
        FAULTS.reset()
        FAULTS.arm(site, hit=hit)
        probe = freq_task(
            memory=2048,
            filter=TaskFilter.of(src_ip=((100 + (n % 100)) << 24, 8)),
        )
        try:
            handle = controller.add_task(probe)
        except Exception:
            aborted += 1
            assert FAULTS.fired(), f"round {n}: abort without injected fault"
        else:
            # The arm outlived the call (hit index above the call's hit
            # count); removing the probe must return to the same state.
            survived += 1
            FAULTS.disarm()
            controller.remove_task(handle)
        assert controller_state(controller) == baseline, f"round {n}: {site}@{hit}"
        report = controller.verify_integrity()
        assert report.ok, report.describe()
    assert aborted + survived == rounds
    assert aborted > 0, "the schedule never fired a fault; widen hit ranges"


def test_mixed_reconfig_failures_preserve_free_map(fault_schedule):
    """Failures across add/remove/filter/resize keep the free-bucket map and
    key availability equal to their pre-call snapshots."""
    seed, rounds = fault_schedule
    rng = random.Random(seed ^ 0x5EED)
    controller = FlyMonController(num_groups=3)
    handles = [
        controller.add_task(
            freq_task(filter=TaskFilter.of(src_ip=((10 + i) << 24, 8)))
        )
        for i in range(3)
    ]
    for n in range(max(5, rounds // 2)):
        before = controller_state(controller)
        site, max_hit = SITES[rng.randrange(len(SITES))]
        FAULTS.reset()
        FAULTS.arm(site, hit=rng.randint(1, max_hit))
        op = rng.randrange(2)
        try:
            if op == 0:
                controller.add_task(
                    freq_task(
                        memory=2048,
                        filter=TaskFilter.of(src_ip=((200 + n) % 250 << 24, 8)),
                    )
                )
            else:
                victim = handles[rng.randrange(len(handles))]
                controller.update_task_filter(
                    victim,
                    TaskFilter.of(src_ip=(victim.task.filter.prefixes[0][1][0], 9)),
                )
        except Exception:
            assert controller_state(controller) == before, f"round {n} leaked"
        else:
            # Survivable round: undo the mutation to restore the baseline.
            FAULTS.disarm()
            if op == 0:
                controller.remove_task(controller.tasks[-1])
            else:
                controller.update_task_filter(
                    victim,
                    TaskFilter(
                        tuple(
                            (name, (value, 8))
                            for name, (value, _plen) in victim.task.filter.prefixes
                        )
                    ),
                )
            after = controller_state(controller)
            assert without_rule_count(after) == without_rule_count(before), (
                f"round {n} undo drifted"
            )
        assert controller.verify_integrity().ok
