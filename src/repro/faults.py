"""Deterministic fault injection for the control plane, WAL and fabric.

FlyMon's headline claim is *safe* on-the-fly reconfiguration: tasks can be
added, resized, and re-filtered on a live switch without corrupting
co-resident tasks.  Proving that under failure requires failures on demand.
This module provides a seedable registry of **named fault sites** that the
robustness tests (and ``repro verify``) arm to exercise every rollback path:

====================  =====================================================
site                  where it fires
====================  =====================================================
``rule_apply``        :meth:`repro.dataplane.runtime.StagedInstall.apply`,
                      once per rule entry before its rule (raises
                      mid-batch; a preparation run of N TCAM entries is
                      N hits)
``alloc_exhausted``   :meth:`repro.core.memory.BuddyAllocator.allocate`
                      (surfaces as ``OutOfMemoryError``)
``key_denied``        :meth:`repro.core.compression.CompressedKeyManager.
                      acquire` (surfaces as ``KeyExhaustedError``)
``wal_append``        :meth:`repro.service.wal.ServiceWal` record append,
                      before the write (``kill`` SIGKILLs the process,
                      ``torn`` writes half the frame then SIGKILLs)
``wal_fsync``         the WAL's per-append ``os.fsync`` (raises ``OSError``,
                      as a dying disk would)
``wal_roll``          WAL segment roll, before the new segment's compaction
                      base is written (``kill``/``torn`` as ``wal_append``)
``disk_full``         the WAL's record write (surfaces as ``OSError``
                      with ``ENOSPC``)
``member_seal``       a fabric member's seal at the barrier (the member is
                      marked degraded for that epoch)
====================  =====================================================

Arms come from code (``FAULTS.arm(...)``) or from the ``FLYMON_FAULTS``
environment variable, a comma/semicolon-separated spec:

* ``site`` -- fire on the site's first hit;
* ``site@N`` -- fire on the Nth hit (1-based), then disarm (one-shot);
* ``site@N=ARG`` -- same, carrying an argument (e.g. ``wal_append@3=kill``
  SIGKILLs the process at the third append);
* ``site%P`` -- fire each hit with probability ``P`` (persistent, drawn
  from the injector's seeded RNG);
* ``seed=N`` / ``name=value`` -- free-form options (``seed`` seeds the RNG;
  the robustness test schedules read ``seed``/``rounds``).

Deterministic arms are **one-shot**: once fired they disarm in that
process, so a retried operation succeeds on the next attempt.  Probabilistic arms persist.

Injection is off unless a site is armed; the per-hit cost is one dict
lookup on control-plane paths only (never in the per-packet datapath).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

SITE_RULE_APPLY = "rule_apply"
SITE_ALLOC_EXHAUSTED = "alloc_exhausted"
SITE_KEY_DENIED = "key_denied"
SITE_WAL_APPEND = "wal_append"
SITE_WAL_FSYNC = "wal_fsync"
SITE_WAL_ROLL = "wal_roll"
SITE_DISK_FULL = "disk_full"
SITE_MEMBER_SEAL = "member_seal"

FAULT_SITES = (
    SITE_RULE_APPLY,
    SITE_ALLOC_EXHAUSTED,
    SITE_KEY_DENIED,
    SITE_WAL_APPEND,
    SITE_WAL_FSYNC,
    SITE_WAL_ROLL,
    SITE_DISK_FULL,
    SITE_MEMBER_SEAL,
)

#: Environment variable holding the default injection spec.
ENV_VAR = "FLYMON_FAULTS"


class FaultError(RuntimeError):
    """An injected failure (never raised unless a site was armed)."""

    def __init__(self, site: str, context: Optional[dict] = None) -> None:
        self.site = site
        self.context = dict(context or {})
        detail = f" ({self.context})" if self.context else ""
        super().__init__(f"injected fault at site {site!r}{detail}")


class FaultSpecError(ValueError):
    """A malformed ``FLYMON_FAULTS`` spec or an unknown site name."""


@dataclass
class FaultArm:
    """One armed fault: deterministic (``hit``) or probabilistic (``prob``)."""

    site: str
    hit: int = 1
    prob: Optional[float] = None
    arg: Optional[str] = None

    def describe(self) -> str:
        shape = f"%{self.prob}" if self.prob is not None else f"@{self.hit}"
        suffix = f"={self.arg}" if self.arg is not None else ""
        return f"{self.site}{shape}{suffix}"


def parse_spec(
    spec: str,
) -> Tuple[List[FaultArm], Dict[str, str]]:
    """Parse a ``FLYMON_FAULTS`` spec into arms and free-form options."""
    arms: List[FaultArm] = []
    options: Dict[str, str] = {}
    for raw in spec.replace(";", ",").split(","):
        entry = raw.strip()
        if not entry:
            continue
        arg: Optional[str] = None
        if "=" in entry:
            entry, arg = entry.split("=", 1)
            entry = entry.strip()
            arg = arg.strip()
        prob: Optional[float] = None
        hit = 1
        if "%" in entry:
            name, prob_text = entry.split("%", 1)
            try:
                prob = float(prob_text)
            except ValueError as exc:
                raise FaultSpecError(f"bad probability in {raw!r}") from exc
            if not 0.0 < prob <= 1.0:
                raise FaultSpecError(f"probability out of (0, 1] in {raw!r}")
        elif "@" in entry:
            name, hit_text = entry.split("@", 1)
            try:
                hit = int(hit_text)
            except ValueError as exc:
                raise FaultSpecError(f"bad hit index in {raw!r}") from exc
            if hit < 1:
                raise FaultSpecError(f"hit index must be >= 1 in {raw!r}")
        else:
            name = entry
        name = name.strip()
        if name in FAULT_SITES:
            arms.append(FaultArm(site=name, hit=hit, prob=prob, arg=arg))
        elif arg is not None and "%" not in entry and "@" not in entry:
            options[name] = arg  # e.g. seed=2026, rounds=25
        else:
            raise FaultSpecError(
                f"unknown fault site {name!r} (known: {', '.join(FAULT_SITES)})"
            )
    return arms, options


class FaultInjector:
    """Counts hits per site and fires armed faults deterministically."""

    def __init__(self, spec: Optional[str] = None, seed: int = 0) -> None:
        self._arms: Dict[str, List[FaultArm]] = {}
        self._hits: Dict[str, int] = {site: 0 for site in FAULT_SITES}
        self._fired: List[dict] = []
        self.options: Dict[str, str] = {}
        self._seed = seed
        self._rng = random.Random(seed)
        if spec:
            self.configure(spec)

    # -- arming --------------------------------------------------------------

    def configure(self, spec: str) -> "FaultInjector":
        """Arm every entry of a ``FLYMON_FAULTS``-syntax spec."""
        arms, options = parse_spec(spec)
        self.options.update(options)
        if "seed" in options:
            try:
                self.reseed(int(options["seed"]))
            except ValueError as exc:
                raise FaultSpecError(f"bad seed {options['seed']!r}") from exc
        for arm in arms:
            self._arms.setdefault(arm.site, []).append(arm)
        return self

    def arm(
        self,
        site: str,
        hit: int = 1,
        prob: Optional[float] = None,
        arg: Optional[str] = None,
    ) -> FaultArm:
        """Arm one site programmatically (tests and ``repro verify``)."""
        self._check_site(site)
        armed = FaultArm(site=site, hit=hit, prob=prob, arg=arg)
        self._arms.setdefault(site, []).append(armed)
        return armed

    def disarm(self, site: Optional[str] = None) -> None:
        """Drop arms for one site (or all); hit counters keep counting."""
        if site is None:
            self._arms.clear()
        else:
            self._arms.pop(site, None)

    def reset(self) -> None:
        """Back to the pristine state: no arms, zero hits, reseeded RNG."""
        self._arms.clear()
        self._fired.clear()
        self.options.clear()
        self._hits = {site: 0 for site in FAULT_SITES}
        self._rng = random.Random(self._seed)

    def reseed(self, seed: int) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    # -- inspection ----------------------------------------------------------

    @property
    def armed(self) -> bool:
        return any(self._arms.values())

    def arms(self, site: Optional[str] = None) -> List[FaultArm]:
        if site is not None:
            return list(self._arms.get(site, ()))
        return [arm for arms in self._arms.values() for arm in arms]

    def hit_count(self, site: str) -> int:
        self._check_site(site)
        return self._hits[site]

    def fired(self) -> List[dict]:
        """Log of every injected fault: site, hit number, arm, context."""
        return list(self._fired)

    # -- firing --------------------------------------------------------------

    def trip(self, site: str, **context: object):
        """Count a hit; if an arm triggers, consume it and return its
        argument (``True`` when the arm carries none), else ``None``.

        Call sites that must surface a site-appropriate exception (allocator
        exhaustion, key denial) test ``trip()`` and raise their own type;
        everything else uses :meth:`fire`.
        """
        hits = self._hits
        if site not in hits:
            self._check_site(site)
        hits[site] += 1
        arms = self._arms.get(site)
        if not arms:
            return None
        n = hits[site]
        for arm in arms:
            if arm.prob is not None:
                if self._rng.random() >= arm.prob:
                    continue
            elif n != arm.hit:
                continue
            if arm.prob is None:
                arms.remove(arm)  # deterministic arms are one-shot
            self._record(arm, n, context)
            return arm.arg if arm.arg is not None else True
        return None

    def fire(self, site: str, **context: object) -> None:
        """:meth:`trip`, raising :class:`FaultError` when triggered."""
        if self.trip(site, **context) is not None:
            raise FaultError(site, context)

    def fire_entries(self, site: str, entries: int, **context: object) -> None:
        """:meth:`fire` once per entry of a rule standing for ``entries``
        physical entries; with nothing armed at ``site``, one counter add."""
        if self._arms.get(site):
            for _ in range(entries):
                self.fire(site, **context)
            return
        if site not in self._hits:
            self._check_site(site)
        self._hits[site] += entries

    def _record(self, arm: FaultArm, hit: int, context: dict) -> None:
        entry = {
            "site": arm.site,
            "hit": hit,
            "arm": arm.describe(),
            "context": {k: str(v) for k, v in context.items()},
        }
        self._fired.append(entry)
        from repro.telemetry import EV_FAULT_INJECTED, TELEMETRY

        if TELEMETRY.enabled:
            TELEMETRY.registry.counter(
                "flymon_faults_injected_total", site=arm.site
            ).inc()
            TELEMETRY.events.emit(EV_FAULT_INJECTED, **entry)

    def _check_site(self, site: str) -> None:
        if site not in FAULT_SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r} (known: {', '.join(FAULT_SITES)})"
            )


#: The process-wide injector; instrumented modules consult this instance.
#: Armed from ``FLYMON_FAULTS`` at import, so a subprocess inherits the
#: schedule through its environment.
FAULTS = FaultInjector(os.environ.get(ENV_VAR) or None)


def configure_from_env() -> FaultInjector:
    """Re-read ``FLYMON_FAULTS`` into the global injector (CLI entry)."""
    FAULTS.reset()
    spec = os.environ.get(ENV_VAR)
    if spec:
        FAULTS.configure(spec)
    return FAULTS
