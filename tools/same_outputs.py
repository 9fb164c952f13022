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

Exits 0 when every command exits 0 on both sides and every output file is
the same; otherwise exits 1 and names the first command or file that
differs.
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


def first_difference(a: Path, b: Path) -> str | None:
    """The first file, by relative path, that only one tree holds or whose bytes differ."""
    names = sorted({p.relative_to(root) for root in (a, b) for p in root.rglob("*")
                    if p.is_file()})
    for name in names:
        if not (a / name).is_file() or not (b / name).is_file():
            return f"{name} is written by one side only"
        if (a / name).read_bytes() != (b / name).read_bytes():
            return f"{name} differs"
    return None


def compare(sides: dict, inputs: Path, wl) -> str | None:
    """Run one command of each side's sources on the same inputs; the first
    difference."""
    outs = {}
    for side, root in sides.items():
        work = root.parent / f"{root.name}-work"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(inputs, work)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "plantfit.cli", *wl.argv()], cwd=work,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            return f"the {side} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        outs[side] = work / "out"
    if not any(outs["parent"].rglob("*")):
        return "the command wrote no output file"
    return first_difference(outs["parent"], outs["change"])


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

        for seed in args.seed:
            written: dict = {}  # base workload name -> its inputs
            for label, base, wl in variants(run.WORKLOADS):
                if base not in written:
                    written[base] = tmp / f"inputs-{base}-{seed}"
                    run.prepare(written[base], run.WORKLOADS[base], seed)
                difference = compare(sides, written[base], wl)
                if difference is not None:
                    print(f"{label}, seed {seed}: {difference}")
                    return 1
                print(f"{label}, seed {seed}: same outputs", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
