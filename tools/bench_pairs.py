"""Alternating benchmark pairs of two commits, recorded as ``BENCH_<name>.json``.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --name my_change \\
        --workload fit_2w --workload landscape_2w --pairs 10 --seconds 60 --seed 1201

Each side is the committed tree of its commit, unpacked with ``git archive``
into a fresh directory: no ``__pycache__``, no untracked files, nothing
registered in the repository's ``.git``. Every run is the side's own
``perfbench/run.py --workload W --seed S --seconds N --trace 0``, started
in that directory with ``PYTHONDONTWRITEBYTECODE=1``, so both sides compile
from source in every process. Pair i of a workload runs both sides on the
same seed, the parent first when i is even; seeds run on from ``--seed``,
one per pair, workload after workload.

The record holds, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's value per pair, its quartiles (the middle one is the median),
each pair's ratio (change over parent) and the ratios' quartiles, the pairs
the change wins and the ties, and the failed and attempted runs of each
side; besides the environment (``usable_cpus``, the CPUs a run may use,
bounds its worker pool where ``nproc`` does not), both commits and the
command. A drift of the
host's speed during a run widens each side's quartiles, but moves both runs
of a pair alike, so the ratios read the pairs without it. It is
written again after every pair, so an interrupted run keeps what it
measured. SIGTERM ends a record as Ctrl-C does: the running
``perfbench/run.py`` is killed and the unpacked trees are removed. It
records only: no gate, no bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(commit: str, into: Path) -> None:
    """The committed tree of ``commit``, and nothing else, under ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``side``; its last output line, parsed."""
    if any(side.rglob("__pycache__")):
        raise RuntimeError(f"{side} holds bytecode; both sides must compile from source")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=side, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("metrics"):  # the command never exited 0, or no run of it did
        raise RuntimeError(f"{workload} seed {seed} in {side} exited {proc.returncode} "
                           f"with no metrics: {proc.stderr.strip()[-500:]}")
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(metrics: list[dict], pairs: list[dict]) -> dict:
    """Per metric: each side's values and quartiles, each pair's ratio
    (change over parent) and their quartiles, the change's wins and the ties."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        parent = [round(p["parent"]["metrics"][name]["value"], 4) for p in pairs]
        change = [round(p["change"]["metrics"][name]["value"], 4) for p in pairs]
        sign = -1 if spec["better"] == "lower" else 1
        ratios = [round(c / p, 4) for p, c in zip(parent, change)]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "ratios": ratios,
            "ratio_quartiles": quartiles(ratios),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "ties": sum(c == p for p, c in zip(parent, change)),
        }
    return out


def environment() -> dict:
    import numpy

    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"nproc": os.cpu_count(), "usable_cpus": usable,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "load_average_at_start": [round(x, 2) for x in os.getloadavg()]}


def _exit(signum, frame):
    """Turn SIGTERM into SystemExit, so that ``subprocess.run`` kills its child
    and every ``finally`` runs."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--change", required=True, help="commit of the changed side")
    parser.add_argument("--name", required=True, help="the record is BENCH_<name>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, help="record path (default: the repository root)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = args.out or ROOT / f"BENCH_{args.name}.json"
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = {
        "name": args.name,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": f"{RUN}, from a git archive of each commit "
                   "(no __pycache__, PYTHONDONTWRITEBYTECODE=1)",
        "seconds": args.seconds,
        "env": environment(),
        "workloads": {},
    }
    signal.signal(signal.SIGTERM, _exit)
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        sides = {side: work / side for side in commits}
        for side, commit in commits.items():
            unpack(commit, sides[side])
        seeds = iter(range(args.seed, args.seed + args.pairs * len(args.workload)))
        for workload in args.workload:
            pairs: list[dict] = []
            used: list[int] = []
            for i, seed in zip(range(args.pairs), seeds):
                first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {side: run_once(sides[side], workload, seed, args.seconds)
                        for side in (first, second)}
                pairs.append(pair)
                used.append(seed)
                record["workloads"][workload] = {
                    "seeds": used,
                    "order": "pair i runs parent first when i is even",
                    "runs_failed": {side: [sum(p[side]["failed"] for p in pairs),
                                           sum(p[side]["attempted"] for p in pairs)]
                                    for side in commits},
                    "metrics": summary(metrics, pairs),
                }
                out.write_text(json.dumps(record, indent=1) + "\n")
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                    f"{m['name']} {pair['parent']['metrics'][m['name']]['value']:.4g} -> "
                    f"{pair['change']['metrics'][m['name']]['value']:.4g}" for m in metrics),
                    flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
