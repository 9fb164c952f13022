"""Run one ``plantfit`` command in this process, as the console script would.

    python3 launch.py RECORD MODE -- plantfit-arguments...

``RECORD`` is a JSON file written when the command returns. It holds
``first_eval`` (when the evaluation layer was first entered:
``CandidateEvaluator.scores``, or ``solve_uc`` called from the CLI) and
``setup_cpu`` (this process's CPU seconds at that moment), the end of
``cli.main`` and the peak resident set of this process (its ``VmHWM``)
and of its reaped children. Times are ``time.monotonic()``, which is
system-wide, so the parent can subtract its own spawn time.

``overlap_cpu`` is the CPU time that worker processes spent in parallel with
the busiest worker: for each ``scores`` batch, the workers' CPU seconds
during it, minus the largest of them. The parent subtracts it from the CPU
time of the whole process tree to get the critical path's CPU time.

``MODE`` is 0 for a plain run, ``probe`` to stop at the first entry into
the evaluation layer (a set-up sample), or 1 for a traced run. A traced run
wraps the public callables of ``ingest``, ``uc``, ``objective``, ``search``
and ``cli`` where their callers look them up, and its record also holds
every span as ``[name, start, end, parent, extra]``. After the command, the
first state graph is rebuilt under ``tracemalloc`` for its allocation peak,
and when the candidates were scored in worker processes a fixed sample of
them is replayed serially so per-evaluation spans exist.
"""
from __future__ import annotations

import json
import math
import multiprocessing
import os
import resource
import sys
import time

REPLAY_STRIDE = 6  # replay every 6th candidate of a parallel batch
CLK_TCK = os.sysconf("SC_CLK_TCK")


class Tracer:
    """In-memory spans with parent links; written out when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, extra=None):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, None]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._open.pop()
            if extra is not None:
                span[4] = extra(result, args, kwargs)
            return result

        return traced


def _write(record: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def _self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _worker_cpu() -> dict[int, float]:
    """CPU seconds of each live worker process, from ``/proc/<pid>/stat``."""
    cpu = {}
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # exited since it was listed
            continue
        cpu[child.pid] = (int(fields[11]) + int(fields[12])) / CLK_TCK
    return cpu


def _install_stamp(record: dict, cli, objective, probe_path: str | None) -> None:
    """Stamp the first entry into the evaluation layer (a probe stops there),
    and add up each batch's worker CPU time beyond its busiest worker."""

    def stamped(fn):
        def call(*args, **kwargs):
            if "first_eval" not in record:
                record.update(first_eval=time.monotonic(), setup_cpu=_self_cpu())
            if probe_path is not None:
                _write(record, probe_path)
                os._exit(0)
            before = _worker_cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                used = [cpu - before.get(pid, 0.0) for pid, cpu in _worker_cpu().items()]
                if used:
                    record["overlap_cpu"] = record.get("overlap_cpu", 0.0) + sum(used) - max(used)

        return call

    objective.CandidateEvaluator.scores = stamped(objective.CandidateEvaluator.scores)
    cli.solve_uc = stamped(cli.solve_uc)


def _install_tracer(tracer: Tracer, cli, objective, search, uc) -> dict:
    """Wrap the layers' public callables; returns what the post-run steps need."""
    seen: dict = {}

    def graph_extra(graph, args, kwargs):
        if "args" not in seen:
            seen.update(args=args, kwargs=kwargs)
        return {"states": max(len(levels) for levels in graph.levels)}

    def scores_extra(scores, args, kwargs):
        vecs = args[1]
        if "batch" not in seen:
            seen["batch"] = (args[0], list(vecs))
        return {"n": len(scores), "inf": sum(1 for s in scores if s == math.inf)}

    def search_extra(result, args, kwargs):
        return {"evaluations": result.evaluations, "steps": len(result.history) - 1}

    def rows_extra(series, args, kwargs):
        return {"rows": len(series)}

    objective.CandidateEvaluator.scores = tracer.wrap(
        "objective.scores", objective.CandidateEvaluator.scores, scores_extra)
    cli.solve_uc = tracer.wrap("uc.solve_uc", cli.solve_uc)
    cli.load_series = tracer.wrap("ingest.load_series", cli.load_series, rows_extra)
    cli.align = tracer.wrap("ingest.align", cli.align)
    cli.validate_schedule = tracer.wrap("uc.validate_schedule", cli.validate_schedule)
    cli.fit = tracer.wrap("search.fit", cli.fit)
    cli.landscape_slice = tracer.wrap("objective.landscape_slice", cli.landscape_slice)
    search.differential_evolution = tracer.wrap(
        "search.de", search.differential_evolution, search_extra)
    search.compass_search = tracer.wrap("search.compass", search.compass_search, search_extra)
    search.evaluate_candidate = tracer.wrap("objective.evaluate", search.evaluate_candidate)
    objective.evaluate_candidate = tracer.wrap("objective.evaluate", objective.evaluate_candidate)
    objective.solve_uc = tracer.wrap("uc.solve_uc", objective.solve_uc)
    objective.UcGraph = tracer.wrap("uc.graph_build", objective.UcGraph, graph_extra)
    uc.UcGraph = tracer.wrap("uc.graph_build", uc.UcGraph, graph_extra)
    return seen


def _after_traced_run(record: dict, seen: dict, objective, domain, graph_class) -> None:
    if "batch" in seen:
        evaluator, vecs = seen["batch"]
        if evaluator.jobs > 1:  # the pool's evaluations were invisible here
            ctx, opts = evaluator.context, evaluator.opts
            for vec in vecs[::REPLAY_STRIDE]:
                objective.evaluate_candidate(domain.vector_to_params(vec, ctx.epsilon), ctx, opts)
        record["jobs"] = evaluator.jobs
    if "args" in seen:
        import tracemalloc

        tracemalloc.start()
        graph_class(*seen["args"], **seen["kwargs"])
        record["graph_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    record_path, mode, rest = argv[0], argv[1], argv[2:]
    traced = mode == "1"
    if rest[:1] == ["--"]:
        rest = rest[1:]
    from plantfit import cli, domain, objective, search, uc

    record: dict = {}
    graph_class = uc.UcGraph
    _install_stamp(record, cli, objective, record_path if mode == "probe" else None)
    if traced:
        tracer = Tracer()
        seen = _install_tracer(tracer, cli, objective, search, uc)
    code = cli.main(rest)
    record["main_end"] = time.monotonic()
    if traced:
        _after_traced_run(record, seen, objective, domain, graph_class)
        record["spans"] = tracer.spans
    # VmHWM, not RUSAGE_SELF: after exec, ru_maxrss still counts the
    # benchmark process this one was started from
    with open("/proc/self/status", encoding="ascii") as handle:
        own_kb = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    rss_kb = max(own_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record["peak_rss_mb"] = rss_kb / 1024.0
    _write(record, record_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
