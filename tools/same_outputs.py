"""Check that two commits write byte-identical outputs on the benchmark inputs.

    python3 tools/same_outputs.py --parent HEAD~1 --change HEAD --seed 1 2 3

Each side is the committed tree of its commit, unpacked as
``tools/bench_pairs.py`` does. For every seed, each workload's input files
are written once, by the change's ``perfbench/inputs.py``, and copied to
both sides. Each side then runs the ``plantfit`` command of every entry of
``WORKLOADS`` in the change's ``perfbench/run.py``, with that entry's own
arguments, plus ``fit_2w`` at ``--jobs 2`` and ``landscape_2w`` over an
eta grid of 0:1.2:25, whose cells at eta 0 and above 1 are invalid. Every
file a command writes is compared byte for byte with the other side's.
On each side, ``fit_2w --jobs 2`` must also write the same bytes as
``fit_2w``: results do not depend on the worker count, and this holds
even when a change alters the fit's outputs on purpose.

Every command and comparison is run and reported, one line each. Exits 0
when every command exits 0 on both sides and every output file is the
same; otherwise exits 1, and the lines name each command that failed and
each file that differs.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import git, unpack


def variants(workloads: dict) -> list:
    """(label, base workload name, workload) of every command to compare."""
    out = [(name, name, wl) for name, wl in workloads.items()]
    out.append(("fit_2w --jobs 2", "fit_2w", dataclasses.replace(workloads["fit_2w"], jobs=2)))
    out.append(("landscape_2w eta 0:1.2:25", "landscape_2w",
                dataclasses.replace(workloads["landscape_2w"], eta_grid=(0.0, 1.2, 25))))
    return out


# (label, label of the same side's command it must match byte for byte)
SAME_SIDE = [("fit_2w --jobs 2", "fit_2w")]


def differences(a: Path, b: Path) -> list[str]:
    """Each file, by relative path, that only one tree holds or whose bytes differ."""
    names = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*")
                    if p.is_file()})
    found = []
    for name in names:
        if not (a / name).is_file() or not (b / name).is_file():
            found.append(f"{name} is written by one side only")
        elif (a / name).read_bytes() != (b / name).read_bytes():
            found.append(f"{name} differs")
    return found


def run_command(root: Path, inputs: Path, wl, work: Path) -> Path | str:
    """Run one command of the sources under ``root`` on a copy of ``inputs``
    in ``work``: its output directory, or why it has none."""
    shutil.copytree(inputs, work)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "plantfit.cli", *wl.argv()], cwd=work,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return f"exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    if not any((work / "out").rglob("*")):
        return "wrote no output file"
    return work / "out"


def report(what: str, found: list[str]) -> bool:
    """Print one line for a command or comparison; whether it failed."""
    print(f"{what}: {', '.join(found) if found else 'same outputs'}", flush=True)
    return bool(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--change", required=True, help="commit of the changed side")
    parser.add_argument("--seed", type=int, nargs="+", required=True,
                        help="seeds of the benchmark inputs")
    args = parser.parse_args(argv)
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    print(f"parent {commits['parent']}, change {commits['change']}")
    tmp = Path(tempfile.mkdtemp(prefix="same_outputs_"))
    try:
        sides = {side: tmp / side for side in commits}
        for side, commit in commits.items():
            unpack(commit, sides[side])
        sys.dont_write_bytecode = True  # both trees stay as unpacked
        sys.path[:0] = [str(sides["change"] / "perfbench"), str(sides["change"] / "src")]
        import run  # the change's perfbench/run.py, and through it perfbench/inputs.py

        failures = 0
        for seed in args.seed:
            written: dict = {}  # base workload name -> its inputs
            outs: dict = {}  # (side, label) -> its output directory
            for i, (label, base, wl) in enumerate(variants(run.WORKLOADS)):
                if base not in written:
                    written[base] = tmp / f"inputs-{base}-{seed}"
                    run.prepare(written[base], run.WORKLOADS[base], seed)
                runs = {side: run_command(root, written[base], wl, tmp / f"{side}-{seed}-{i}")
                        for side, root in sides.items()}
                failed = [f"the {side} {out}" for side, out in runs.items() if isinstance(out, str)]
                if not failed:
                    outs.update(((side, label), out) for side, out in runs.items())
                failures += report(f"{label}, seed {seed}",
                                   failed or differences(runs["parent"], runs["change"]))
            for label, alike in SAME_SIDE:
                for side in sides:
                    if (side, label) in outs and (side, alike) in outs:
                        failures += report(f"{label} against {alike}, the {side}, seed {seed}",
                                           differences(outs[side, alike], outs[side, label]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
