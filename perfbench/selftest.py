"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload shrunk to a short horizon, untraced and traced, and
checks that each metric ``BENCHMARK.json`` names is printed with its unit.
Then it truncates ``trace.csv`` after every fit run and checks that the runs
count as failed rather than as slow. Exits 0 when every check holds.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

TINY = {
    "fit_2w": dict(T=144, config={"de": {"population": 32, "generations": 8},
                                  "compass": {"contraction": 0.8, "max_iterations": 4}}),
    "landscape_2w": dict(T=144, eta_grid=(0.32, 0.68, 7), sigma_grid=(0.0, 60000.0, 5)),
    "simulate_1y": dict(T=480),
}


def tiny_run(name: str, trace: bool) -> tuple[dict, str]:
    wl = dataclasses.replace(run.WORKLOADS[name], **TINY[name])
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = run.run(wl, seed=1, seconds=0.1, trace=trace)
    if code != 0:
        raise SystemExit(f"{name}: the benchmark exited with {code}")
    return json.loads(text.getvalue().splitlines()[-1]), text.getvalue()


ORIGINAL_INVOKE = run.invoke


def truncating_invoke(work, wl, mode):
    record = ORIGINAL_INVOKE(work, wl, mode)
    trace = work / "out" / "trace.csv"
    if trace.exists():
        data = trace.read_bytes()
        trace.write_bytes(data[: len(data) // 2])
    return record


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for name in run.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, text = tiny_run(name, trace)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want or not result["correct"] or "error_rate" not in text:
                failures.append(f"{name} trace={int(trace)}: {result} / {text}")
            print(f"{name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")

    run.invoke = truncating_invoke
    try:
        result, text = tiny_run("fit_2w", False)
    finally:
        run.invoke = ORIGINAL_INVOKE
    if result["correct"] or result["failed"] != result["attempted"] or result["metrics"]:
        failures.append(f"truncated trace.csv was not counted as a failure: {result}")
    print(f"truncated trace.csv: {result['failed']}/{result['attempted']} failed")

    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
