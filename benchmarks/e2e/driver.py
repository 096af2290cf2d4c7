"""The benchmark driver: spawns repetitions, aggregates, prints, writes.

Closed loop, one client: every repetition is a fresh child process, one
at a time, single-threaded, so on a 2-core box the child has one core
and the driver and OS the other.  Children are reaped with ``os.wait4``
for per-child ``ru_maxrss``/CPU (``RUSAGE_CHILDREN`` is a running max).
A child's ``ru_maxrss`` starts at its parent's peak (the mark survives
``exec``), so this process stays small: spans are reduced in the child.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.e2e import metrics
from benchmarks.e2e.workloads import BY_NAME, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]
RESULTS = Path(__file__).resolve().parent / "BENCH_e2e.json"
#: scratch space inside the checkout (git-ignored); each driver process
#: works in, and on exit removes, its own subdirectory
SCRATCH = ROOT / ".bench_e2e" / str(os.getpid())
DEFAULT_SEED = 7
#: the builder contract's driver picks seeds; a seed whose paper-scale
#: world does not build (about one in eight) is replaced by seed + this
RESEED_STEP = 1000
#: set-up time samples a single-workload run reports the median of
SETUP_SAMPLES = 5
#: a repetition whose CPU/wall falls below this shared its core
NOISY_CPU_SHARE = 0.9

KNOWN_ISSUES = [
    "build_world(paper_scale_config(9)) dies on the _build_case_studies "
    "assertion (src/repro/scenario/world.py:805; reproduces with "
    "`python -m repro --seed 9 --scale paper run`), as do paper-scale "
    "seeds 18, 19, 37 and 39 — so ROADMAP's pinned seed 9 cannot be "
    "used. The fix belongs to a later issue.",
    "Seeds 7, 8, 10, 11 and 12 were verified to build at paper scale; "
    "seed 11 is the held-out seed for later performance claims.",
]


def remove_scratch() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.parent.rmdir()
    except OSError:
        pass  # absent, or another driver process is still using it


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    # str hashing is salted per process, and set/dict order leaks into
    # the compiled-answer cache's hit count on scan_lossy (55,737-55,739
    # over three salts); pinned so count-type metrics repeat exactly
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def run_rep(
    workload: str,
    seed: int,
    *,
    scale: Optional[str] = None,
    traced: bool = False,
    store: Optional[Path] = None,
    mutate: bool = False,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Spawn one child, reap it, and return its repetition record."""
    workdir = SCRATCH / f"rep-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    read_fd, write_fd = os.pipe()
    command = [
        sys.executable, "-m", "benchmarks.e2e.runner",
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--sample-fd", str(write_fd),
    ]  # fmt: skip
    if scale:
        command += ["--scale", scale]
    if traced:
        command.append("--traced")
    if store is not None:
        command += ["--store", str(store)]
    if mutate:
        command.append("--mutate")
    if setup_only:
        command.append("--setup-only")
    try:
        with open(workdir / "stdout", "wb") as out, open(
            workdir / "stderr", "wb"
        ) as err:
            t0_ns = time.perf_counter_ns()
            child = subprocess.Popen(
                command + ["--t0-ns", str(t0_ns)],
                cwd=ROOT,
                env=_child_env(),
                stdout=out,
                stderr=err,
                pass_fds=(write_fd,),
            )
            os.close(write_fd)
            _, status, usage = os.wait4(child.pid, 0)
            wall_ns = time.perf_counter_ns() - t0_ns
            child.returncode = os.waitstatus_to_exitcode(status)
        with os.fdopen(read_fd, encoding="utf-8") as side:
            line = side.readline()
        stdout = (workdir / "stdout").read_bytes()
        stderr = (workdir / "stderr").read_text(errors="replace")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sample = json.loads(line) if line.strip() else None
    record: Dict[str, Any] = {
        "exit": child.returncode,
        "wall_s": wall_ns / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "report_digest": hashlib.sha256(stdout).hexdigest(),
        "stdout": stdout.decode(errors="replace"),
        "sample": sample,
    }
    if sample is None:
        record["error"] = "no sample; stderr: " + stderr.strip()[-400:]
    else:
        record["error"] = sample["error"]
    record["noisy"] = record["cpu_s"] / record["wall_s"] < NOISY_CPU_SHARE
    floor_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if record["peak_rss_mb"] <= floor_mb:
        record["error"] = record["error"] or (
            f"peak_rss_mb {record['peak_rss_mb']:.0f} is the driver's own "
            f"floor ({floor_mb:.0f} MiB), not the child's"
        )
    return record


class WarmStore:
    """The populated result store ``rescan_warm`` re-scans against.

    Prepared once per seed, outside every timed region: one cold run
    fills it; each repetition then gets a private copy, because a warm
    run overwrites the slots it found stale."""

    def __init__(self, seed: int, scale: Optional[str]):
        self.path = SCRATCH / f"store-{seed}"
        self.record = run_rep(
            "rescan_warm", seed, scale=scale, store=self.path
        )
        self.populate_s = self.record["wall_s"]
        self._copies = 0

    def copy(self) -> Path:
        self._copies += 1
        target = self.path.with_name(f"{self.path.name}-copy{self._copies}")
        shutil.copytree(self.path, target)
        return target


def run_workload_rep(
    spec: Workload,
    seed: int,
    scale: Optional[str],
    warm: Optional[WarmStore],
    traced: bool = False,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """One repetition as the workload defines it; ``setup_only`` stops it
    once set-up is done, store copy and mutation included."""
    if warm is None:
        return run_rep(
            spec.name, seed, scale=scale, traced=traced, setup_only=setup_only
        )
    copy = warm.copy()
    try:
        return run_rep(
            spec.name, seed, scale=scale, traced=traced,
            store=copy, mutate=True, setup_only=setup_only,
        )  # fmt: skip
    finally:
        shutil.rmtree(copy, ignore_errors=True)


# -- aggregation -------------------------------------------------------------


def aggregate_workload(
    spec: Workload,
    reps: List[Dict[str, Any]],
    traced: Optional[Dict[str, Any]],
    populate_s: float = 0.0,
) -> Dict[str, Any]:
    """Everything the results file keeps for one workload."""
    good = [rep for rep in reps if not rep["error"]]
    errors = [rep["error"] for rep in reps if rep["error"]]
    digests = sorted({rep["report_digest"] for rep in good})
    if len(digests) > 1:
        errors.append(f"reports differ across repetitions: {digests}")
    failed = attempted = 0
    for rep in reps:
        rep_failed, rep_attempted = metrics.failed_queries(rep)
        if len(digests) > 1:
            rep_failed = rep_attempted
        failed += rep_failed
        attempted += rep_attempted
    result: Dict[str, Any] = {
        "why": spec.why,
        "scale": good[0]["sample"]["scale"] if good else spec.scale,
        "report_digest": digests[0] if len(digests) == 1 else None,
        "errors": errors,
        "failed": failed,
        "attempted": attempted,
        "noisy_reps": sum(1 for rep in reps if rep["noisy"]),
        "end_to_end": {},
        "per_layer": {},
        "layers": {},
    }
    samples = [metrics.end_to_end(rep) for rep in good]
    for name, unit, better, bound in metrics.END_TO_END:
        if not samples:
            break
        values = [sample[name] for sample in samples]
        if name == "failed_share":
            # one figure per workload: every repetition's ledger counts
            values = [failed / attempted]
        result["end_to_end"][name] = {
            "unit": unit,
            "better": better,
            "bound": bound,
            **metrics.summarize(values),
            "values": values,
        }
    if samples:
        virtual = {sample["virtual_s"] for sample in samples}
        if len(virtual) > 1:
            errors.append(f"virtual_s differs across repetitions: {virtual}")
    if traced is not None and not traced["error"]:
        wall = result["end_to_end"].get("run_wall_s", {}).get("median")
        values = metrics.per_layer(traced, wall, populate_s)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        result["per_layer"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        }
        result["layers"] = metrics.layer_table(traced)
        result["traced_wall_s"] = metrics.traced_wall_s(traced)
        if traced["report_digest"] not in digests:
            errors.append("traced run's report differs from untraced runs")
    elif traced is not None:
        errors.append(f"traced run failed: {traced['error']}")

    def raw(rep: Dict[str, Any]) -> Dict[str, Any]:
        return {key: value for key, value in rep.items() if key != "stdout"}

    result["reps"] = [raw(rep) for rep in reps]
    result["traced_rep"] = raw(traced) if traced is not None else None
    return result


def _format(value: float, unit: str) -> str:
    if unit in ("count", "B"):
        return f"{value:,.0f}"
    return f"{value:,.4f}"


def print_workload(name: str, result: Dict[str, Any]) -> None:
    print(f"\n== {name}  ({result['scale']} scale) ==")
    for error in result["errors"]:
        print(f"  ERROR: {error}")
    print(
        f"  report_digest {result['report_digest']}  "
        f"noisy reps {result['noisy_reps']}/{len(result['reps'])}"
    )
    print("  end-to-end (untraced; median [min q1 q3 max] n):")
    for metric, entry in result["end_to_end"].items():
        print(
            f"    {metric:<17} {entry['median']:>12.4f} {entry['unit']:<6} "
            f"[{entry['min']:.4f} {entry['q1']:.4f} {entry['q3']:.4f} "
            f"{entry['max']:.4f}] n={entry['n']}  bound {entry['bound']:.0%}"
        )
    if result["per_layer"]:
        print("  per-layer (one traced run):")
        for metric, entry in result["per_layer"].items():
            print(
                f"    {metric:<38} "
                f"{_format(entry['value'], entry['unit']):>16} {entry['unit']}"
            )
        wall = result["traced_wall_s"]
        total = sum(layer["self_s"] for layer in result["layers"].values())
        print(
            f"  self time by layer (sums to {total:.3f} s of "
            f"{wall:.3f} s traced wall):"
        )
        ranked = sorted(
            result["layers"].items(), key=lambda item: -item[1]["self_s"]
        )
        for layer, entry in ranked:
            print(
                f"    {layer:<26} {entry['self_s']:>9.3f} s "
                f"{entry['self_s'] / wall:>6.1%}  calls {entry['count']:,}"
            )


# -- the full set ------------------------------------------------------------


def _stamp(seed: int) -> Dict[str, Any]:
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()  # fmt: skip
        except (OSError, subprocess.CalledProcessError):
            return ""

    return {
        "git_rev": git("rev-parse", "--short", "HEAD") or "unknown",
        # the results file itself is rewritten by this command
        "dirty": bool(
            git("status", "--porcelain", "--", ".", f":!{RESULTS}")
        ),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "timestamp": time.time(),
    }


def run_full(seed: int, smoke: bool = False) -> Dict[str, Any]:
    """Untraced repetitions interleaved round-robin across workloads (a
    noisy minute is spread, not concentrated), then one traced run each."""
    scale = "small" if smoke else None
    reps_wanted = {
        spec.name: 2 if smoke else spec.reps for spec in WORKLOADS
    }
    warm = {
        spec.name: WarmStore(seed, scale) for spec in WORKLOADS if spec.warm
    }
    reps: Dict[str, List[Dict[str, Any]]] = {
        spec.name: [] for spec in WORKLOADS
    }
    for store in warm.values():
        if store.record["error"]:
            raise SystemExit(f"populate run failed: {store.record['error']}")
    for round_index in range(max(reps_wanted.values())):
        for spec in WORKLOADS:
            if round_index < reps_wanted[spec.name]:
                print(
                    f"# {spec.name} rep {round_index + 1}/"
                    f"{reps_wanted[spec.name]}",
                    file=sys.stderr,
                )
                reps[spec.name].append(
                    run_workload_rep(spec, seed, scale, warm.get(spec.name))
                )
    results: Dict[str, Any] = {}
    for spec in WORKLOADS:
        print(f"# {spec.name} traced", file=sys.stderr)
        store = warm.get(spec.name)
        traced = run_workload_rep(spec, seed, scale, store, traced=True)
        results[spec.name] = aggregate_workload(
            spec, reps[spec.name], traced,
            populate_s=store.populate_s if store else 0.0,
        )  # fmt: skip
    return {
        "schema": 1,
        "stamp": _stamp(seed),
        "smoke": smoke,
        "known_issues": KNOWN_ISSUES,
        "workloads": results,
    }


def main_full(args: argparse.Namespace) -> int:
    document = run_full(args.seed, smoke=args.smoke)
    stamp = document["stamp"]
    print(
        f"benchmarks.e2e  rev {stamp['git_rev']}"
        f"{'+dirty' if stamp['dirty'] else ''}  python {stamp['python']}  "
        f"nproc {stamp['nproc']}  seed {stamp['seed']}"
        f"{'  (smoke: small scale, 2 reps)' if args.smoke else ''}"
    )
    for name, result in document["workloads"].items():
        print_workload(name, result)
    out = Path(args.out) if args.out else RESULTS
    if args.smoke and not args.out:
        print("\n(smoke run: results file not written)")
    else:
        out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {out}")
    failed = [
        name
        for name, result in document["workloads"].items()
        if result["errors"]
    ]
    if failed:
        print(f"FAILED checks on: {', '.join(failed)}")
        return 1
    return 0


# -- one run, as BENCHMARK.json's command -------------------------------------


def _buildable_seed(
    spec: Workload, seed: int, scale: Optional[str]
) -> Tuple[int, Dict[str, Any]]:
    """The first of ``seed, seed + RESEED_STEP, ...`` whose world builds,
    with the set-up-only repetition that proved it.  The contract fixes
    the result line's keys and wants workloads on which nothing fails, so
    a seed passed over is named on stdout, with its exception text, on
    the lines before the result."""
    for attempt in range(8):
        candidate = seed + attempt * RESEED_STEP
        probe = run_rep(spec.name, candidate, scale=scale, setup_only=True)
        if not probe["error"]:
            print(f"seed: requested {seed}, measured {candidate}")
            return candidate, probe
        print(f"seed {candidate} is a failed run: {probe['error']}")
    raise SystemExit(f"no buildable world near seed {seed}")


def main_single(args: argparse.Namespace) -> int:
    """``--workload W --seed N --seconds S --trace 0|1``: measure one
    workload for about S seconds and print one JSON line last."""
    spec = BY_NAME[args.workload]
    scale = spec.single_scale
    seed, probe = _buildable_seed(spec, args.seed, scale)
    warm = WarmStore(seed, scale) if spec.warm else None
    if warm is not None and warm.record["error"]:
        raise SystemExit(f"populate run failed: {warm.record['error']}")
    # the probe ran without the store copy and the mutation a warm
    # repetition's set-up includes, so there it is not a set-up sample
    setups = [probe] if warm is None else []
    reps: List[Dict[str, Any]] = []
    measured = 0.0
    # a traced run wants one untraced repetition, as the overhead's base
    while measured < (0 if args.trace else args.seconds) or not reps:
        rep = run_workload_rep(spec, seed, scale, warm)
        reps.append(rep)
        measured += rep["wall_s"]
    traced = None
    if args.trace:
        traced = run_workload_rep(spec, seed, scale, warm, traced=True)
    else:
        while len(reps) + len(setups) < SETUP_SAMPLES:
            setups.append(
                run_workload_rep(spec, seed, scale, warm, setup_only=True)
            )
    result = aggregate_workload(
        spec, reps, traced, populate_s=warm.populate_s if warm else 0.0
    )
    for error in result["errors"]:
        print(f"ERROR: {error}", file=sys.stderr)
    if not result["end_to_end"] or (args.trace and not result["per_layer"]):
        return 1  # nothing measurable: no result line
    if args.trace:
        reported = result["per_layer"]
    else:
        good = [rep for rep in reps if not rep["error"]]
        per_100kq = 1e5 / good[0]["sample"]["counts"]["plan"]["units"]
        median = {
            name: entry["median"]
            for name, entry in result["end_to_end"].items()
        }
        good += [rep for rep in setups if not rep["error"]]
        values = {
            "setup_s": metrics.summarize(
                [metrics.setup_s(rep) for rep in good]
            )["median"],
            "rss_mb_per_100kq": median["peak_rss_mb"] * per_100kq,
            "virtual_s_per_100kq": median["virtual_s"] * per_100kq,
        }
        reported = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in metrics.CROSS_SEED
        }
    # give-ups on injected loss are the program's correct answer to the
    # generated input, so here only unaccounted queries and repetitions
    # that failed a check count as failed (failed_share keeps the rest)
    failed = sum(
        metrics.failed_queries(rep)[1]
        if rep["error"]
        else rep["sample"]["counts"]["unaccounted"]
        for rep in reps
    )
    if result["errors"]:
        failed = max(failed, 1)
    print(
        json.dumps(
            {
                "correct": not result["errors"],
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0


# -- compare -----------------------------------------------------------------


def _verdict(
    base: Dict[str, Any], new: Dict[str, Any], bound: float, better: str
) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric
    on one workload (choosing-metrics guide, section 6 step 5)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = base["median"], new["median"]
    if base_median == new_median:
        return "same"
    worse_by = sign * (new_median - base_median) / abs(base_median or 1.0)
    overlap = not (new["max"] < base["min"] or new["min"] > base["max"])
    if max(metrics.spread(base), metrics.spread(new)) > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound and not overlap:
        return "better"
    return "same"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Rows of the comparison and whether it passes."""
    rows = [
        f"base {base['stamp']['git_rev']} seed {base['stamp']['seed']}  ->  "
        f"new {new['stamp']['git_rev']} seed {new['stamp']['seed']}",
        f"{'workload':<13} {'metric':<17} {'base':>11} {'new':>11} "
        f"{'new/base':>9} {'bound':>6}  {'q1-q3 base':<21} "
        f"{'q1-q3 new':<21} verdict",
    ]
    passed = True
    # results files are written with sorted keys: restore declared order
    workloads = [spec.name for spec in WORKLOADS if spec.name in base["workloads"]]
    for name in workloads:
        base_result = base["workloads"][name]
        new_result = new["workloads"].get(name)
        if new_result is None:
            rows.append(f"{name:<13} missing from the new results")
            passed = False
            continue
        for metric, *_ in metrics.END_TO_END:
            old = base_result["end_to_end"].get(metric)
            cur = new_result["end_to_end"].get(metric)
            if old is None:
                continue
            if cur is None:
                rows.append(f"{name:<13} {metric:<17} missing")
                passed = False
                continue
            if metric == "failed_share":
                # any rise fails; compared exactly
                verdict = (
                    "worse" if cur["median"] > old["median"]
                    else "better" if cur["median"] < old["median"]
                    else "same"
                )  # fmt: skip
            else:
                verdict = _verdict(old, cur, old["bound"], old["better"])
            ratio = (
                cur["median"] / old["median"] if old["median"] else float("nan")
            )
            spreads = [
                f"{side['q1']:.4f}-{side['q3']:.4f}" for side in (old, cur)
            ]
            rows.append(
                f"{name:<13} {metric:<17} {old['median']:>11.4f} "
                f"{cur['median']:>11.4f} {ratio:>9.4f} {old['bound']:>6.0%}  "
                f"{spreads[0]:<21} {spreads[1]:<21} {verdict}"
            )
            if verdict == "worse":
                passed = False
        if base_result["report_digest"] != new_result["report_digest"]:
            rows.append(
                f"{name:<13} report_digest changed: "
                f"{base_result['report_digest']} -> "
                f"{new_result['report_digest']} (not pinned; shown so a "
                f"re-pinned golden report is visible)"
            )
        drift = sorted(
            metric
            for metric, entry in base_result["per_layer"].items()
            if entry["unit"] == metrics.EXACT_UNIT
            and metric in new_result["per_layer"]
            and new_result["per_layer"][metric]["value"] != entry["value"]
        )
        if drift:
            rows.append(f"{name:<13} counts differ: {', '.join(drift)}")
    return rows, passed


def main_compare(paths: List[str]) -> int:
    if len(paths) != 2:
        print("usage: python -m benchmarks.e2e compare A.json B.json")
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in paths)
    rows, passed = compare(base, new)
    print("\n".join(rows))
    return 0 if passed else 1


# -- entry -------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return main_compare(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="end-to-end + per-layer benchmark (see README.md)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale, 2 repetitions: a check of the harness itself",
    )
    parser.add_argument("--out", help=f"results file (default {RESULTS.name})")
    single = parser.add_argument_group("one run (BENCHMARK.json's command)")
    single.add_argument("--workload", choices=sorted(BY_NAME))
    single.add_argument("--seconds", type=float, default=8.0)
    single.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: no program to measure under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.workload:
            return main_single(args)
        return main_full(args)
    finally:
        remove_scratch()
