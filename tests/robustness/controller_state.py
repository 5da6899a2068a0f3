"""The whole controller's state, for the rollback and leak suites.

Operations snapshot only the stores of the groups they work on, so these
checks deliberately cover *every* group: a store an operation touched but
did not snapshot shows up here as a difference.
"""

import hashlib


def controller_state(controller):
    """Everything a failed (or undone) reconfiguration must leave as it was:
    group digests (hash masks, key pools, CMU task tables), each allocator's
    free lists and claims, the handle table, the runtime's deployments with
    their undo-log lengths, and every register's cells."""
    runtime = controller.runtime
    allocators = {}
    for key, allocator in controller._allocators.items():
        state = allocator.snapshot()
        free = {length: sorted(bases) for length, bases in state["free"].items() if bases}
        allocators[key] = (free, state["allocated"])
    return (
        controller.control_digest(),
        allocators,
        sorted(controller._handles),
        {name: runtime.deployment_rules(name) for name in runtime.deployments()},
        register_cells(controller),
    )


def register_cells(controller):
    """SHA-256 of every register's ``snapshot_cells()``, by (group, CMU)."""
    return {
        (group.group_id, cmu.index): hashlib.sha256(
            cmu.register.snapshot_cells().tobytes()
        ).hexdigest()
        for group in controller.groups
        for cmu in group.cmus
    }


def without_rule_count(state):
    """``state`` minus the runtime's monotonic installed-rule counter: an
    applied-then-undone mutation legitimately grows it."""
    digest, *rest = state
    return (digest[:3], *rest)
