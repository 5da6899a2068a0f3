"""RMT (Tofino-like) data-plane substrate.

The modules here model the hardware the paper prototypes on, at the level of
detail FlyMon's claims depend on:

* :mod:`repro.dataplane.resources` -- per-MAU-stage resource vectors and
  capacities (hash distribution units, SALUs, VLIW, TCAM, SRAM, logical table
  IDs, PHV bits).
* :mod:`repro.dataplane.phv` -- packet header vector layout and per-packet
  field containers.
* :mod:`repro.dataplane.hashing` -- CRC-style hash functions and dynamic hash
  units with runtime-configurable field masks (the ``tna_dyn_hashing``
  feature FlyMon's compression stage relies on).
* :mod:`repro.dataplane.tables` -- exact and ternary (TCAM) match-action
  tables, including the range-to-ternary expansion used to count TCAM entries.
* :mod:`repro.dataplane.register` -- SALU-backed stateful registers with a
  bounded set of pre-loaded register actions.
* :mod:`repro.dataplane.stage` / :mod:`repro.dataplane.pipeline` -- MAU stages
  and the 12-stage pipeline with resource admission control.
* :mod:`repro.dataplane.runtime` -- a P4Runtime-like rule-installation API
  with the millisecond-scale latency model measured in the paper.
* :mod:`repro.dataplane.switch` -- a Tofino switch model, including the
  ``switch.p4`` baseline footprint used by Figure 13a.
"""

from repro.dataplane.hashing import DynamicHashUnit, HashFunction
from repro.dataplane.phv import FieldSpec, Phv, PhvLayout
from repro.dataplane.pipeline import Pipeline
from repro.dataplane.register import Register, RegisterAction
from repro.dataplane.resources import STAGE_CAPACITY, ResourceVector
from repro.dataplane.runtime import RuntimeApi
from repro.dataplane.stage import MauStage
from repro.dataplane.switch import TofinoSwitch
from repro.dataplane.tables import ExactMatchTable, TableEntry, TernaryMatchTable

__all__ = [
    "DynamicHashUnit",
    "ExactMatchTable",
    "FieldSpec",
    "HashFunction",
    "MauStage",
    "Phv",
    "PhvLayout",
    "Pipeline",
    "Register",
    "RegisterAction",
    "ResourceVector",
    "RuntimeApi",
    "STAGE_CAPACITY",
    "TableEntry",
    "TernaryMatchTable",
    "TofinoSwitch",
]
