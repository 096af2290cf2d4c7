"""The golden run table: CLI runs whose printed artifacts are pinned by
SHA-256 in ``runs.json`` beside this file.

    python tests/golden/runs.py [--tier TIER]
    python tests/golden/runs.py --write [--tier TIER]

The first form runs the rows (every row, or those of one tier) and
exits 1 if a digest moved; the second re-derives their digests and
rewrites the table, and refuses -- exit 1, nothing written -- when a
derived row breaks a declared relation.  Tier ``tier1`` holds
the small-scale rows that tier-1 pytest runs (``test_runs.py``); tier
``ci`` the default- and paper-scale rows of CI's first gate step.

A row has an ``id``, a ``tier`` and ``steps``.  A step is an ``argv``
after ``python -m repro``, an ``env`` added to the inherited one and the
``exit`` code it must end with (a SIGTERM'd step expects -15; a shell's
143 reads the same).  The steps of a row run one after another, each in
a fresh interpreter, all in one fresh temporary working directory with
``examples`` linked into it, so argv paths are relative and no message
prints a temporary path.  The hash seed is not pinned: a digest that
moves with it is a determinism bug.

The last step's surfaces are digested:

* ``stdout``;
* ``stderr`` less the wall-clock ``# stage-2 perf:`` line;
* ``trace``: the ``--trace-out`` lines outside the timing section;
* ``metrics``: the ``deterministic`` block of ``--metrics-out``;
* ``incremental``: the result-store counters of ``--metrics-out``
  (``timing.incremental``);
* ``checkpoint`` / ``store``: the file names and bytes under
  ``--checkpoint-dir`` / ``--result-store``.

A traced step must also end with ``run.end`` counting 0 unaccounted
queries.  A row's ``same_as`` maps a surface to the id of a row whose
digest of that surface must equal its own: a resumed run and the
uninterrupted one, a warm store and none.  A row's ``replays`` is the
number of UR groups its last step must replay from a store or a
checkpoint: every counter of it -- the ``# result store:`` or
``# resumed from checkpoint:`` stderr line, the trace's
``incremental.plan`` event, ``timing.incremental`` and
``store-stats.json`` -- must read that number, and a result store's
own counters no miss and nothing stored.  Both are checked
whenever a row runs, ``--write`` included, so neither can be
re-derived away.  A change that moves a row re-derives the table and
names each moved row and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parents[2]
TABLE = Path(__file__).with_name("runs.json")
TIERS = ("tier1", "ci")
#: a stderr line that carries wall-clock time
WALL_CLOCK_PREFIX = b"# stage-2 perf:"
#: a trace line of the timing section (wall-clock spans and counters)
TIMING_SECTION = '"section":"timing"'
#: the stderr line of a run with ``--result-store``
STORE_LINE = re.compile(
    rb"^# result store: (\d+) hits, (\d+) misses, \d+ invalidated, "
    rb"(\d+) stored$",
    re.M,
)
#: the stderr line of a ``--resume``
RESUME_LINE = re.compile(
    rb"^# resumed from checkpoint: (\d+) UR groups replayed$", re.M
)
#: surface -> the flag whose argument it reads
PATH_FLAGS = {
    "trace": "--trace-out",
    "metrics": "--metrics-out",
    "checkpoint": "--checkpoint-dir",
    "store": "--result-store",
}


class RowFailed(AssertionError):
    """A step ended with the wrong exit code, or a traced run lost a
    query without accounting for it."""


def load_table() -> List[dict]:
    return json.loads(TABLE.read_text())["rows"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flag(argv: List[str], flag: str) -> Optional[str]:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _tree_digest(directory: Path) -> str:
    files = sorted(path for path in directory.rglob("*") if path.is_file())
    return _sha256(
        "".join(
            f"{path.relative_to(directory).as_posix()}\0"
            f"{_sha256(path.read_bytes())}\n"
            for path in files
        ).encode()
    )


def _child_env(extra: Dict[str, str]) -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("URHUNTER_") and key != "PYTHONHASHSEED"
    }
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return {**env, **extra}


def _exit_code(returncode: int) -> int:
    """A signal death reads -N from a direct child, 128+N via a shell."""
    return 128 - returncode if returncode > 128 else returncode


def run_row(row: dict) -> Dict[str, str]:
    """Run ``row``'s steps and return its last step's digests."""
    with tempfile.TemporaryDirectory(prefix="golden-") as scratch:
        cwd = Path(scratch)
        (cwd / "examples").symlink_to(ROOT / "examples")
        for number, step in enumerate(row["steps"]):
            done = subprocess.run(
                [sys.executable, "-m", "repro", *step["argv"]],
                cwd=cwd,
                env=_child_env(step["env"]),
                capture_output=True,
                timeout=600,
            )
            if _exit_code(done.returncode) != step["exit"]:
                raise RowFailed(
                    f"{row['id']} step {number} exited {done.returncode}, "
                    f"not {step['exit']}:\n"
                    + done.stderr.decode(errors="replace")[-2000:]
                )
        argv = step["argv"]
        stderr = b"".join(
            line
            for line in done.stderr.splitlines(keepends=True)
            if not line.startswith(WALL_CLOCK_PREFIX)
        )
        digests = {
            "stdout": _sha256(done.stdout),
            "stderr": _sha256(stderr),
        }
        paths = {
            surface: cwd / path
            for surface, flag in PATH_FLAGS.items()
            if (path := _flag(argv, flag)) is not None
        }
        timing, incremental = [], None
        if "trace" in paths:
            lines = []
            for line in paths["trace"].read_text().splitlines():
                if TIMING_SECTION in line:
                    timing.append(json.loads(line))
                else:
                    lines.append(line)
            (end,) = [line for line in lines if '"event":"run.end"' in line]
            if json.loads(end)["unaccounted"] != 0:
                raise RowFailed(f"{row['id']}: {end}")
            digests["trace"] = _sha256("\n".join(lines).encode())
        if "metrics" in paths:
            document = json.loads(paths["metrics"].read_text())
            incremental = document["timing"].get("incremental")
            for surface, block in (
                ("metrics", document["deterministic"]),
                ("incremental", incremental),
            ):
                if block is not None:
                    digests[surface] = _sha256(
                        json.dumps(block, sort_keys=True).encode()
                    )
        for surface in ("checkpoint", "store"):
            if surface in paths:
                digests[surface] = _tree_digest(paths[surface])
        if "replays" in row:
            _check_replays(row, stderr, timing, incremental, paths)
        return digests


def _check_replays(
    row: dict,
    stderr: bytes,
    timing: List[dict],
    incremental: Optional[dict],
    paths: Dict[str, Path],
) -> None:
    """Every counter of the last step's replayed UR groups reads the
    row's ``replays`` (see the module docstring); a result store's
    counters read no miss and nothing stored."""
    counters = []  # (where, hits, misses, stored)
    if store := STORE_LINE.search(stderr):
        counters.append(("stderr result store", *map(int, store.groups())))
    if resumed := RESUME_LINE.search(stderr):
        counters.append(("stderr resume", int(resumed[1]), 0, 0))
    for event in timing:
        if event["event"] == "incremental.plan":
            counters.append(("trace incremental.plan", event["hits"], 0, 0))
    if "store" in paths:
        stats = json.loads((paths["store"] / "store-stats.json").read_text())
        counters.append(("store-stats.json", stats["hits"], 0, 0))
    if "store" in paths and "metrics" in paths:
        block = incremental or {}
        seen = map(block.get, ("hits", "misses", "stored"))
        counters.append(("timing.incremental", *seen))
    expected = (row["replays"], 0, 0)
    wrong = [where for where, *seen in counters if tuple(seen) != expected]
    if not counters or wrong:
        raise RowFailed(
            f"{row['id']}: replays {row['replays']} is not what "
            + (", ".join(wrong) or "any counter")
            + f" reads: {counters}"
        )


def broken_relations(rows: Iterable[dict]) -> List[str]:
    """Every ``same_as`` whose two digests differ, or that names a row
    or a surface the table does not have."""
    by_id = {row["id"]: row for row in rows}
    problems = []
    for row in by_id.values():
        for surface, other in row.get("same_as", {}).items():
            mine = row.get("digests", {}).get(surface)
            theirs = by_id.get(other, {}).get("digests", {}).get(surface)
            if mine is None or mine != theirs:
                problems.append(f"{row['id']}: {surface} != {other}")
        if row.get("replays", 1) < 1:
            problems.append(f"{row['id']}: replays {row['replays']} < 1")
    return problems


def dump(rows: List[dict]) -> str:
    """The table as JSON, one step or digest a line."""

    def row_text(row: dict) -> str:
        steps = ",\n".join(f"    {json.dumps(step)}" for step in row["steps"])
        digests = ",\n".join(
            f"    {json.dumps(surface)}: {json.dumps(digest)}"
            for surface, digest in row.get("digests", {}).items()
        )
        replays = (
            f'   "replays": {row["replays"]},\n' if "replays" in row else ""
        )
        return (
            f'  {{"id": {json.dumps(row["id"])}, '
            f'"tier": {json.dumps(row["tier"])},\n'
            f'   "same_as": {json.dumps(row.get("same_as", {}))},\n'
            f"{replays}"
            f'   "steps": [\n{steps}],\n'
            f'   "digests": {{\n{digests}}}}}'
        )

    return '{"rows": [\n' + ",\n".join(map(row_text, rows)) + "\n]}\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier", choices=TIERS)
    parser.add_argument(
        "--write", action="store_true", help="re-derive the digests"
    )
    args = parser.parse_args(argv)
    rows = load_table()
    chosen = [row for row in rows if args.tier in (None, row["tier"])]
    moved = []
    for row in chosen:
        try:
            digests = run_row(row)
        except RowFailed as failure:
            print(f"FAIL {failure}", flush=True)
            return 1
        recorded = row.get("digests", {})
        changed = sorted(
            surface
            for surface in {*digests, *recorded}
            if digests.get(surface) != recorded.get(surface)
        )
        print(
            f"{'moved' if changed else 'same '} {row['id']}"
            + (f": {', '.join(changed)}" if changed else ""),
            flush=True,
        )
        if changed:
            moved.append(row["id"])
        row["digests"] = digests
    if not args.write:
        return 1 if moved else 0
    problems = broken_relations(rows)
    for problem in problems:
        print(f"broken relation {problem}")
    if problems:
        return 1
    TABLE.write_text(dump(rows))
    print(f"wrote {TABLE.name}: {len(moved)} of {len(chosen)} rows moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
