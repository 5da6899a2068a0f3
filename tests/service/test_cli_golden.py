"""Golden stdout and a parser snapshot for the commands that drive a service.

``serve``, ``query``, ``fabric serve``/``query``/``status``, ``top`` and
``profile`` each run in a fresh interpreter (task ids, which the fabric
placement lines print, come from a process-wide counter) and their stdout is
compared with the files under ``golden/``.  Wall-clock fields (and the
WAL's byte count, which they feed) are masked; everything else -- epoch
lines, series values, watcher outcomes, summaries -- must match byte for
byte.  The parser snapshot pins every subcommand's option strings,
defaults, types, choices and mutually exclusive groups.

After an intended change, rewrite the golden files with::

    PYTHONPATH=src python tests/service/test_cli_golden.py
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden"

_MS = re.compile(r"\s*\d+\.\d+ ms")
#: The WAL's size carries the JSON text of its seal records' timings.
_WAL_BYTES = re.compile(r"\d+ bytes \(encode")

#: name -> (argv, keep): ``keep`` selects the pinned part of stdout.  The
#: serve case's fill watcher resizes hh, which re-deploys it last: task 2.
CASES = {
    "serve": (
        [
            "serve", "--packets", "6000", "--flows", "400", "--seed", "9",
            "--epoch-size", "1000", "--tasks", "hh,card,entropy",
            "--threshold", "50", "--watch-fill", "0.05",
            "--watch-cardinality", "220", "--checkpoint", "ckpt.json",
            "--wal", "wal", "--wal-segment-seals", "3",
        ],
        None,
    ),
    "query_list": (["query", "--input", "ckpt.json", "--list"], None),
    "query_hh": (
        ["query", "--input", "ckpt.json", "--task", "2",
         "--query", "heavy-hitters", "--epoch", "3"],
        None,
    ),
    "query_frequency": (
        ["query", "--input", "ckpt.json", "--task", "2",
         "--query", "frequency", "--flow", "10.69.2.141"],
        None,
    ),
    "fabric_serve": (
        [
            "fabric", "serve", "--switches", "2", "--packets", "8000",
            "--flows", "400", "--epoch-size", "3000",
            "--tasks", "hh,card,entropy", "--status-out", "status.json",
        ],
        None,
    ),
    "fabric_query_cardinality": (
        [
            "fabric", "query", "--switches", "2", "--packets", "8000",
            "--flows", "400", "--epoch-size", "2000",
            "--query", "cardinality",
        ],
        None,
    ),
    "fabric_query_hh": (
        [
            "fabric", "query", "--switches", "3", "--packets", "6000",
            "--flows", "300", "--threshold", "40", "--query", "heavy-hitters",
            "--epoch", "1",
        ],
        None,
    ),
    "fabric_status": (["fabric", "status", "--switches", "2", "--json"], None),
    "top": (
        [
            "top", "--packets", "6000", "--flows", "300", "--seed", "4",
            "--epoch-size", "800", "--chunk", "1000", "--no-clear",
        ],
        # the closing summary, up to its datapath timing
        lambda out: out.strip().splitlines()[-1].split(";")[0] + "\n",
    ),
    "profile_stream": (
        [
            "profile", "--packets", "4000", "--flows", "300", "--seed", "3",
            "--epoch-size", "500", "--chunk", "1000",
        ],
        lambda out: out.splitlines()[0] + "\n",
    ),
    "profile_batch": (
        [
            "profile", "--workload", "batch", "--packets", "4000",
            "--flows", "300", "--seed", "3",
        ],
        lambda out: out.splitlines()[0] + "\n",
    ),
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("FLYMON_FAULTS", None)
    env.pop("FLYMON_BATCH_SIZE", None)
    return env


def _run(name: str, workdir: Path) -> str:
    argv, keep = CASES[name]
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=str(workdir), env=_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = keep(proc.stdout) if keep else proc.stdout
    return _WAL_BYTES.sub("<n> bytes (encode", _MS.sub(" <ms> ms", out))


def capture_all(workdir: Path) -> dict:
    """Every case's masked stdout; ``query_*`` read the ``serve`` checkpoint."""
    return {name: _run(name, workdir) for name in CASES}


def parser_snapshot(parser: argparse.ArgumentParser) -> dict:
    """Subcommand path -> its options and mutually exclusive groups."""
    out = {}

    def walk(p, path):
        options = []
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, path + [name])
            elif not isinstance(action, argparse._HelpAction):
                options.append({
                    "flags": list(action.option_strings) or [action.dest],
                    "dest": action.dest,
                    "action": type(action).__name__,
                    "type": getattr(action.type, "__name__", None),
                    "default": action.default,
                    "choices": list(action.choices) if action.choices else None,
                    "required": action.required,
                })
        groups = [
            sorted(a.option_strings[0] for a in group._group_actions)
            for group in p._mutually_exclusive_groups
            if len(group._group_actions) > 1
        ]
        out[" ".join(path) or "repro"] = {
            "options": sorted(options, key=lambda o: o["flags"]),
            "exclusive": sorted(groups),
        }

    walk(parser, [])
    return out


@pytest.fixture(scope="module")
def captured():
    with tempfile.TemporaryDirectory() as tmp:
        yield capture_all(Path(tmp))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(captured, name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert captured[name] == expected


def test_parser_snapshot():
    expected = json.loads((GOLDEN / "parser.json").read_text())
    assert parser_snapshot(build_parser()) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case, text in capture_all(Path(tmp)).items():
            (GOLDEN / f"{case}.txt").write_text(text)
    (GOLDEN / "parser.json").write_text(
        json.dumps(parser_snapshot(build_parser()), indent=1) + "\n"
    )
