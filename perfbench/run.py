"""plantfit benchmark: one workload, run through the CLI in fresh processes.

    python3 perfbench/run.py --workload fit_2w --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The seed generates every input file (untimed). The workload's
``plantfit`` command then runs again and again in a fresh process until
``--seconds`` is spent, each run's outputs are checked, and a few extra
set-up probes (the same command, stopped at its first evaluation) bring the
set-up samples to ``SETUP_SAMPLES``. Times are CPU times (see
``end_to_end``). With ``--trace 1`` one untraced and one traced run give the
per-layer metrics instead. Human-readable lines come first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 120

# landscape grid: 0.5 and 15000 (the generator's eta and sigma) lie on it
ETA_GRID = (0.32, 0.68, 25)
SIGMA_GRID = (0.0, 60000.0, 25)


class CheckFailed(Exception):
    """An output of the program is wrong or missing."""


@dataclass
class Workload:
    name: str
    T: int
    command: str  # fit | landscape | simulate
    jobs: int | None
    config: dict = field(default_factory=dict)
    eta_grid: tuple = ETA_GRID
    sigma_grid: tuple = SIGMA_GRID

    def argv(self) -> list[str]:
        args = [self.command, "--config", "config.json", "--out", "out"]
        if self.jobs is not None:
            args += ["--jobs", str(self.jobs)]
        if self.command in ("simulate", "landscape"):
            g = _generator()
            args += ["--eta", repr(g.eta), "--sigma", repr(g.sigma),
                     "--phi", repr(g.phi), "--nu", repr(g.nu)]
        if self.command == "landscape":
            args += ["--axes", "eta,sigma",
                     "--grid1", "{}:{}:{}".format(*self.eta_grid),
                     "--grid2", "{}:{}:{}".format(*self.sigma_grid)]
        return args


# Each workload's reason is recorded in BENCHMARK.json. The fit's settings
# fix its evaluation count: DE never meets its zero target on noisy data, and
# compass contraction 0.8 never reaches the minimum step within 4 iterations,
# so only polls clipped at a bound vary (by a few per cent between seeds).
WORKLOADS = {w.name: w for w in (
    Workload("fit_2w", T=672, command="fit", jobs=1,
             config={"de": {"population": 32, "generations": 8},
                     "compass": {"contraction": 0.8, "max_iterations": 4}}),
    Workload("landscape_2w", T=672, command="landscape", jobs=2),
    Workload("simulate_1y", T=17520, command="simulate", jobs=None),
)}


def _generator():
    import inputs

    return inputs.GENERATOR


# -- running the program ---------------------------------------------------

def invoke(work: Path, wl: Workload, mode: str) -> dict:
    """Run the workload's command once in a fresh process; mode is 0, 1 or probe."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    record_path = work / "record.json"
    record_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "launch.py"), str(record_path), mode, "--", *wl.argv()]
    cpu_before = _tree_cpu()
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the command and its pool workers
        proc.communicate()
        stderr = f"timed out after {RUN_TIMEOUT_S} s"
    done = time.monotonic()
    cpu = _tree_cpu() - cpu_before
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):  # the command died before writing its record
        record = {}
    record.update(spawn=spawn, exit=done, cpu=cpu, returncode=proc.returncode,
                  stderr=stderr.strip()[-500:])
    return record


def _tree_cpu() -> float:
    """CPU seconds of every reaped descendant: the command and its pool workers."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def check_fit(out: Path, wl: Workload, data, state: dict) -> dict:
    import inputs

    result_bytes = (out / "fit_result.json").read_bytes()
    trace_bytes = (out / "trace.csv").read_bytes()
    result = json.loads(result_bytes)
    lines = trace_bytes.decode("utf-8").splitlines()
    rows = [line for line in lines[1:] if line.count(",") == 5]
    if len(rows) != len(lines) - 1 or len(rows) != result["evaluations"]:
        raise CheckFailed(f"trace.csv has {len(lines) - 1} rows "
                          f"for {result['evaluations']} evaluations")
    if not result["rms_mw"] <= inputs.NOISE_MW:
        raise CheckFailed(f"fit rms {result['rms_mw']:.3f} MW exceeds the "
                          f"injected noise {inputs.NOISE_MW} MW")
    digest = hashlib.sha256(result_bytes + b"\0" + trace_bytes).hexdigest()
    if state.setdefault("digest", digest) != digest:
        raise CheckFailed("fit_result.json or trace.csv differs from the first run")
    return {"candidates": result["evaluations"], "fit_rms_mw": result["rms_mw"]}


def check_landscape(out: Path, wl: Workload, data, state: dict) -> dict:
    import inputs

    with open(out / "landscape.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    n1, n2 = wl.eta_grid[2], wl.sigma_grid[2]
    if len(rows) != n1 * n2:
        raise CheckFailed(f"landscape.csv has {len(rows)} cells, expected {n1 * n2}")
    cells = [(float(eta), float(rms)) for eta, _, rms in rows]
    if not all(math.isfinite(rms) for _, rms in cells):
        raise CheckFailed("landscape has a non-finite cell")
    best = min(rms for _, rms in cells)
    if not best <= inputs.NOISE_MW or best == max(rms for _, rms in cells):
        raise CheckFailed(f"landscape minimum {best:.3f} MW is above the noise or flat")
    # the data make a plateau of equal minima; the one nearest the generator counts
    step = (wl.eta_grid[1] - wl.eta_grid[0]) / (n1 - 1)
    off = min(abs(eta - _generator().eta) for eta, rms in cells if rms == best)
    if off > step + 1e-12:
        raise CheckFailed(f"landscape minimum {off:.4f} in eta from the generator")
    return {"candidates": len(cells), "fit_rms_mw": best}


def check_simulate(out: Path, wl: Workload, data, state: dict) -> dict:
    import numpy as np
    from plantfit import Schedule, UcInstance, schedule_profit, validate_schedule

    with open(out / "schedule.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != wl.T:
        raise CheckFailed(f"schedule.csv has {len(rows)} rows, expected {wl.T}")
    schedule = Schedule(power=np.array([float(r["mw"]) for r in rows]),
                        committed=np.array([int(r["committed"]) for r in rows]),
                        started=np.array([int(r["started"]) for r in rows]), profit=0.0)
    instance = UcInstance(params=_generator(), dynamics=data.dynamics, market=data.market)
    violations = validate_schedule(schedule, instance)
    if violations:
        raise CheckFailed(f"simulated schedule violates {violations[0]}")
    result = json.loads((out / "simulate_result.json").read_text(encoding="utf-8"))
    profit = schedule_profit(schedule, instance)
    if abs(profit - result["profit_gbp"]) > 1e-6 * max(1.0, abs(profit)):
        raise CheckFailed(f"schedule profit {profit} differs from reported "
                          f"{result['profit_gbp']}")
    return {"candidates": 1, "fit_rms_mw": math.sqrt(result["sse_vs_observed_mw2"] / wl.T)}


CHECKS = {"fit": check_fit, "landscape": check_landscape, "simulate": check_simulate}


def checked(work: Path, wl: Workload, data, state: dict, result: dict) -> dict:
    """Attach the output check's verdict (and its figures) to a finished run."""
    try:
        if result["returncode"] != 0:
            raise CheckFailed(f"exit code {result['returncode']}: {result['stderr']}")
        if "first_eval" not in result:
            raise CheckFailed("the evaluation layer was never entered")
        result.update(CHECKS[wl.command](work / "out", wl, data, state))
        result["ok"] = True
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        result["ok"] = False
        result["error"] = f"{type(exc).__name__}: {exc}"
    return result


# -- metrics ---------------------------------------------------------------

def end_to_end(runs: list[dict], probes: list[dict]) -> tuple[dict, dict, dict]:
    """End-to-end metrics, the ungated wall and CPU figures, and the samples.

    Times are CPU seconds, which do not count the time a process waits for
    a CPU; on a shared host that wait moved the wall time of the same
    command by a third between runs (README.md).
    ``critical_s`` is the CPU time of the command's process tree less the
    pool workers' CPU time that ran in parallel with the busiest worker, so
    it is the wall time the command would take with a CPU always free for
    each of its processes, and lost parallelism shows in it. Times are
    medians over the runs; ``evals_per_s`` is all candidates over all
    critical-path time spent after set-up.
    """
    good = [r for r in runs if r["ok"]]
    if not good:
        return {}, {}, {}
    critical = [r["cpu"] - r.get("overlap_cpu", 0.0) for r in good]
    setups = [r["setup_cpu"] for r in good + probes if "setup_cpu" in r]
    scoring = [c - r["setup_cpu"] for c, r in zip(critical, good)]
    wall = [r["exit"] - r["spawn"] for r in good]
    metrics = {
        "critical_s": (statistics.median(critical), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "evals_per_s": (sum(r["candidates"] for r in good) / sum(scoring), "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in good), "MB"),
        "fit_rms_mw": (statistics.median(r["fit_rms_mw"] for r in good), "MW"),
    }
    ungated = {
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in good), "s"),
    }
    return metrics, ungated, {"critical_s": critical, "setup_s": setups, "wall_s": wall}


def _pct(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def per_layer(traced: dict, untraced: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced run's spans, and the counts they rest on."""
    spans = traced["spans"]
    children: dict[int, float] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)

    def pick(name):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    def dur(s):
        return s[2] - s[1]

    def self_time(i, s):
        return dur(s) - children.get(i, 0.0)

    loads = pick("ingest.load_series")
    graphs = pick("uc.graph_build")
    solves = [self_time(i, s) * 1e3 for i, s in pick("uc.solve_uc")]
    evals = [dur(s) * 1e3 for _, s in pick("objective.evaluate")]
    batches = pick("objective.scores")
    drivers = pick("search.de") + pick("search.compass")
    candidates = sum(s[4]["n"] for _, s in batches)
    infeasible = sum(s[4]["inf"] for _, s in batches)
    in_scores = sum(dur(s) for _, s in batches)
    jobs = traced.get("jobs", 1)
    # the evaluation layer's work ends with the last batch, or with the solve
    # a simulate makes; what follows is the CLI's verification and output
    work_end = max([s[2] for _, s in batches] or [s[2] for _, s in pick("uc.solve_uc")[:1]])

    def steps(name):
        return sum(s[4]["steps"] for _, s in pick(name))

    return {
        "ingest.load_s": (sum(dur(s) for _, s in loads), "s"),
        "ingest.load_calls": (len(loads), "count"),
        "ingest.rows_parsed": (sum(s[4]["rows"] for _, s in loads), "count"),
        "ingest.align_s": (sum(dur(s) for _, s in pick("ingest.align")), "s"),
        "uc.graph_build_s": (sum(self_time(i, s) for i, s in graphs), "s"),
        "uc.graph_alloc_mb": (traced.get("graph_alloc_mb", 0.0), "MB"),
        "uc.states_per_period": (graphs[0][1][4]["states"] if graphs else 0, "count"),
        "uc.solve_ms_p50": (_pct(solves, 50), "ms"),
        "uc.solve_ms_p99": (_pct(solves, 99), "ms"),
        "uc.solve_calls": (len(solves), "count"),
        "uc.validate_ms": (sum(dur(s) for _, s in pick("uc.validate_schedule")) * 1e3, "ms"),
        "objective.eval_ms_p50": (_pct(evals, 50), "ms"),
        "objective.eval_ms_p99": (_pct(evals, 99), "ms"),
        "objective.batch_ms_p50": (_pct([dur(s) * 1e3 for _, s in batches], 50), "ms"),
        "objective.batches": (len(batches), "count"),
        "objective.parallel_efficiency": (
            candidates * _pct(evals, 50) / 1e3 / (jobs * in_scores) if in_scores else 0.0,
            "ratio"),
        "objective.infeasible_ratio": (infeasible / candidates if candidates else 0.0, "ratio"),
        "search.de_s": (sum(dur(s) for _, s in pick("search.de")), "s"),
        "search.compass_s": (sum(dur(s) for _, s in pick("search.compass")), "s"),
        "search.driver_s": (sum(self_time(i, s) for i, s in drivers), "s"),
        "search.evaluations": (sum(s[4]["evaluations"] for _, s in drivers), "count"),
        "search.de_generations": (steps("search.de"), "count"),
        "search.compass_iterations": (steps("search.compass"), "count"),
        "cli.finish_s": (traced["main_end"] - work_end, "s"),
        "trace.overhead_s": ((traced["main_end"] - traced["spawn"])
                             - (untraced["main_end"] - untraced["spawn"]), "s"),
    }, {"candidates": candidates, "infeasible": infeasible, "evaluations": len(evals),
        "solves": len(solves)}


# -- driver ----------------------------------------------------------------

def environment(wl: Workload, seed: int, data) -> dict:
    import numpy as np
    from plantfit import PlantDynamics, SolverOptions, UcGraph

    day = slice(0, 48)
    sample = PlantDynamics(mel=data.dynamics.mel[day], sel=data.dynamics.sel[day],
                           ramp_up=data.dynamics.ramp_up, ramp_dn=data.dynamics.ramp_dn)
    graph = UcGraph(sample, data.market.dt, SolverOptions())
    return {
        "workload": wl.name, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "jobs": wl.jobs if wl.jobs is not None else 1, "T": wl.T,
        "rows": data.files, "states_per_period": max(len(l) for l in graph.levels),
    }


def prepare(work: Path, wl: Workload, seed: int):
    import inputs

    data = inputs.write_dataset(work, wl.T, seed)
    inputs.write_config(work, wl.T, seed, **wl.config)
    return data


def measure(work: Path, wl: Workload, data, seconds: float, trace: bool) -> tuple:
    state: dict = {}
    runs: list[dict] = []
    probes: list[dict] = []
    if trace:
        runs.append(checked(work, wl, data, state, invoke(work, wl, "0")))
        runs.append(checked(work, wl, data, state, invoke(work, wl, "1")))
        return runs, probes
    start = time.monotonic()
    while True:
        runs.append(checked(work, wl, data, state, invoke(work, wl, "0")))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(runs) > seconds:
            break
    while len(runs) + len(probes) < SETUP_SAMPLES:
        probes.append(invoke(work, wl, "probe"))
    return runs, probes


def report(wl: Workload, env: dict, runs: list[dict], metrics: dict, note: str,
           ungated: dict | None = None) -> None:
    failed = sum(1 for r in runs if not r["ok"])
    print(f"workload {wl.name}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit:<6}")
    for name, (value, unit) in (ungated or {}).items():
        print(f"  {name:<32} {value:>14.6g} {unit:<6} (not gated)")
    print(f"  {'error_rate':<32} {failed / len(runs):>14.6g} {'ratio':<6} "
          f"({failed} failed / {len(runs)} attempted)")
    if note:
        print(f"  {note}")
    for r in runs:
        if not r["ok"]:
            print(f"  failed run: {r['error']}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "plantfit" / "cli.py").is_file():
        print(f"error: no plantfit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        data = prepare(work, wl, seed)
        env = environment(wl, seed, data)
        runs, probes = measure(work, wl, data, seconds, trace)
        note, ungated = "", None
        if trace:
            untraced, traced = runs
            if untraced["ok"] and traced["ok"]:
                metrics, base = per_layer(traced, untraced)
                note = ("bases: {candidates} candidates ({infeasible} +inf), "
                        "{evaluations} evaluations and {solves} solves traced").format(**base)
            else:
                metrics = {}
        else:
            metrics, ungated, samples = end_to_end(runs, probes)
            rounded = {k: [round(x, 4) for x in v] for k, v in samples.items()}
            note = (f"{sum(r['ok'] for r in runs)} timed runs, {len(probes)} set-up probes; "
                    f"samples {json.dumps(rounded)}")
        report(wl, env, runs, metrics, note, ungated)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
