"""Check that the tests still kill each listed mutant of the program.

    python3 tools/mutants.py

``MUTANTS`` lists, per mutant, its name, the file it edits, the exact text it
replaces, which must occur once in that file, the text that replaces it, and
the ids of the tests that must fail on it. The list matches the code of the
commit it sits in, so HEAD's tree is unpacked once with ``git archive``, as
``tools/bench_pairs.py`` does, and every listed test is first run on it
unchanged: they must pass, so that a failure shows the mutant and nothing
else. Then each mutant in turn is written into its file, its own tests are
run, stopping at the first failure, and the file is put back.

Prints one line per mutant. Exits 0 when every mutant is killed; exits 1
naming each one that survives, whose text does not occur exactly once (a
change to the code must update the list), or whose tests could not run.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import git, unpack

UC, SEARCH, OBJECTIVE = "src/plantfit/uc.py", "src/plantfit/search.py", "src/plantfit/objective.py"
CLI = "src/plantfit/cli.py"

# (name, file, old text, new text, ids of the tests that must fail)
MUTANTS = [
    ("per-period sort without the committed count", UC,
     "order = np.lexsort(state[2::-1])", "order = np.lexsort(state[2::-2])",
     ["tests/test_uc.py::TestSolveUc::test_profit_ties_prefer_fewer_committed_periods"]),
    ("per-period sort without the energy", UC,
     "order = np.lexsort(state[2::-1])", "order = np.lexsort(state[1::-1])",
     ["tests/test_uc.py::TestSolveUc::test_profit_ties_prefer_less_energy"]),
    ("start-up cost left out of row 1's reward", UC,
     "rewards[:hi - lo, :, 1] -= sigma", "rewards[:hi - lo, :, 1] -= 0.0",
     ["tests/test_uc.py::TestOracle::test_randomized_equivalence"]),
    ("row 1's reward set to -sigma, dropping the NaN of an overflowed margin", UC,
     "rewards[:hi - lo, :, 1] -= sigma", "rewards[:hi - lo, :, 1] = -sigma",
     ["tests/test_uc.py::TestBatchedSweep::"
      "test_margin_overflowing_in_one_period_fails_the_candidate"]),
    ("sweep without its errstate", UC,
     '@np.errstate(over="ignore", invalid="ignore")', "",
     ["tests/test_uc.py::TestBatchedSweep::test_bad_candidate_fails_alone"]),
    ("unreachable period not refused", UC,
     "if not after[key].any():", "if False:",
     ["tests/test_objective.py::TestProgrammingErrorsPropagate::"
      "test_wholly_infeasible_first_population_ends_the_fit"]),
    ("strict ramp limits", UC,
     "ramp_ok = (delta <= up_step + _TOL) & (delta >= -(dn_step + _TOL))",
     "ramp_ok = (delta < up_step - _TOL) & (delta > -(dn_step - _TOL))",
     ["tests/test_uc.py::TestSolveUc::test_committed_start_below_sel_keeps_climbing"]),
    ("a climb below SEL may follow a committed period at 0 MW", UC,
     "entry_up = not committed[a - 1]", "entry_up = power[a - 1] <= _TOL",
     ["tests/test_uc.py::TestValidateSchedule::test_climb_from_committed_zero_flagged"]),
    ("DE keeps its member on a tie", SEARCH,
     "keep = trial_scores <= scores", "keep = trial_scores < scores",
     ["tests/test_search.py::TestDeSelection::test_ties_move_the_population"]),
    ("compass moves on a tie", SEARCH,
     "if value < fx:", "if value <= fx:",
     ["tests/test_search.py::TestCompassSearch::test_one_dimensional_quadratic"]),
    ("compass start scored in its own call", SEARCH,
     "bounds, cfg,\n                                 cfg.max_iterations)", "bounds, cfg, 0)",
     ["tests/test_objective.py::TestCandidateEvaluator::"
      "test_fit_sweeps_the_compass_start_with_its_polls"]),
    ("workers not capped at usable CPUs", OBJECTIVE,
     "self.jobs = min(jobs, _usable_cpus())", "self.jobs = jobs",
     ["tests/test_objective.py::TestCandidateEvaluator::test_workers_capped_at_usable_cpus"]),
    ("fit's final-solve check removed", SEARCH,
     "if final.sse != local.score:", "if False:",
     ["tests/test_objective.py::TestProgrammingErrorsPropagate::"
      "test_final_solve_off_the_search_score_raises"]),
    ("failed write keeps its temp file", CLI,
     "tmp.unlink()", "pass",
     ["tests/test_cli.py::TestSimulate::test_failed_rename_exits_1_and_leaves_no_temp_file"]),
    ("solve_uc's profit check removed", UC,
     "if abs(exact - dp_profit) > 1e-6 * (1.0 + abs(exact)):", "if False:",
     ["tests/test_uc.py::TestSolveUc::test_profit_off_the_dp_raises"]),
    ("simulate's feasibility check removed", CLI,
     "if violations:", "if False:",
     ["tests/test_cli.py::TestSimulate::"
      "test_infeasible_simulated_schedule_exits_3_with_one_line"]),
]


def run_tests(root: Path, tests: list[str]) -> int:
    """pytest's exit code for ``tests`` of the tree under ``root``, stopping
    at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def outcome(root: Path, file: str, old: str, new: str, tests: list[str]) -> str:
    """What one mutant's tests make of it: "killed", or why it is not."""
    path = root / file
    text = path.read_text()
    if text.count(old) != 1:
        return f"its text occurs {text.count(old)} times in {file}, not once"
    path.write_text(text.replace(old, new))
    try:
        code = run_tests(root, tests)
    finally:
        path.write_text(text)
    return {0: "SURVIVED", 1: "killed"}.get(code, f"its tests did not run: pytest exited {code}")


def main() -> int:
    commit = git("rev-parse", "HEAD")
    tmp = Path(tempfile.mkdtemp(prefix="mutants_"))
    try:
        root = tmp / "tree"
        unpack(commit, root)
        tests = sorted({test for *_, killers in MUTANTS for test in killers})
        code = run_tests(root, tests)
        if code != 0:
            print(f"the tests fail on {commit} itself (pytest exited {code}): {' '.join(tests)}")
            return 1
        print(f"{commit}: {len(tests)} tests pass unchanged", flush=True)
        failures = 0
        for name, *mutant in MUTANTS:
            found = outcome(root, *mutant)
            print(f"{name}: {found}", flush=True)
            failures += found != "killed"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
