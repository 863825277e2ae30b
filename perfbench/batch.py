"""The batch workload ``horn-first-sight``.

It drives the program through :func:`repro.serving.compile_omq` and
:func:`repro.serving.evaluate_batch` under the plan options ``repro serve``
applies by default.  A run computes the reference answers outside every
timed window, then repeats a cycle until the run's seconds are spent and
at least ``MIN_CYCLES`` ran:

1. *set-up*: from cleared caches, compile every distinct plan;
2. a *cold* pass of every query on every instance: the compiled plans,
   an empty answer cache;
3. *warm* passes: the same jobs again through the cache they filled.

Interleaving the three spreads each metric's samples over the whole run,
so a slow spell of the machine weighs on all of them alike.  Every pass
is checked: cold answers equal those of ``compile_omq``'s default
(ladder) plan, warm answers equal cold ones, and every warm job is a
cache hit.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro import serving
from repro.obs import Tracer
from repro.server.daemon import ReproServer
from repro.serving import AnswerCache, clear_caches

from . import inputs as inputs_mod
from .layers import TRACER_CHECKS, Recorder, install, layer_metrics
from .stats import BenchError, median, percentile

MIN_CYCLES = 3
WARM_REPEATS = 5
#: The traced run does one cycle, so its counts repeat exactly; the
#: untraced cycle before it is the base of ``trace.overhead_ratio``.
TRACED_CYCLES = 1


class HornWorkload:
    def __init__(self, seed: int):
        self.inputs = inputs_mod.horn_first_sight(seed)
        self.jobs = self.inputs.jobs
        self.onto = self.inputs.generated.ontology()
        self.options = dict(ReproServer().defaults)
        self.reference: list[tuple] = []

    # -- the program's entry points ------------------------------------------

    def setup(self) -> float:
        clear_caches()
        start = time.perf_counter()
        for query in self.inputs.queries:
            # through the package attribute, which the traced run wraps
            serving.compile_omq(self.onto, query, **self.options)
        return time.perf_counter() - start

    def evaluate(self, cache: AnswerCache | None, **options: Any):
        start = time.perf_counter()
        report = serving.evaluate_batch(self.onto, self.jobs,
                                        answer_cache=cache,
                                        **{**self.options, **options})
        return report, time.perf_counter() - start

    # -- checks --------------------------------------------------------------

    def compute_reference(self) -> None:
        report, _ = self.evaluate(None, fastpath="off")
        self.reference = _answers(report)

    def check(self, cold, warm) -> None:
        for job, want, c, w, result in zip(
                self.jobs, self.reference, _answers(cold), _answers(warm),
                warm.results):
            if c != want:
                raise BenchError(f"horn-first-sight: job {job.job_id} "
                                 f"answered {c}, the ladder plan {want}")
            if w != c:
                raise BenchError(f"horn-first-sight: job {job.job_id} warm "
                                 f"{w} != cold {c}")
            if not result.cache_hit:
                raise BenchError(f"horn-first-sight: job {job.job_id} missed "
                                 f"the cache on the warm pass")

    # -- the run -------------------------------------------------------------

    def measure(self, seconds: float, min_cycles: int) -> dict[str, Any]:
        """Cycles (see the module docstring) until *seconds* elapsed and
        *min_cycles* ran."""
        out: dict[str, Any] = {"setup_s": [], "cold_s": [], "warm_s": [],
                               "latencies": [], "failed": 0, "attempted": 0}
        start = time.perf_counter()
        while (len(out["setup_s"]) < min_cycles
               or time.perf_counter() - start < seconds):
            out["setup_s"].append(self.setup())
            cache = AnswerCache()
            cold, wall = self.evaluate(cache)
            out["cold_s"].append(wall)
            out["latencies"] += [r.elapsed for r in cold.results]
            out["failed"] += sum(1 for r in cold.results
                                 if r.status != "ok")
            for _ in range(WARM_REPEATS):
                warm, wall = self.evaluate(cache)
                self.check(cold, warm)
                out["warm_s"].append(wall)
            out["attempted"] += (1 + WARM_REPEATS) * len(self.jobs)
        return out


def _answers(report) -> list[tuple]:
    return [(r.status, r.verdict, r.answers) for r in report.results]


def run(seed: int, seconds: float, trace: bool,
        workdir: Path) -> dict[str, Any]:
    work = HornWorkload(seed)
    work.compute_reference()
    info = {"specs": work.inputs.specs, "plan_options": work.options}
    if trace:
        return _run_traced(work, workdir, info)
    got = work.measure(seconds, MIN_CYCLES)
    jobs = len(work.jobs)
    info.update(setup_runs_s=got["setup_s"], cycles=len(got["cold_s"]),
                latency_p90_s=percentile(got["latencies"], 90))
    return {
        "attempted": got["attempted"], "failed": got["failed"],
        "metrics": {
            "setup_s": median(got["setup_s"]),
            "cold_jobs_per_s": jobs * len(got["cold_s"]) / sum(got["cold_s"]),
            "warm_jobs_per_s": jobs * len(got["warm_s"]) / sum(got["warm_s"]),
            "latency_p50_s": percentile(got["latencies"], 50),
        },
        "info": info,
    }


def _run_traced(work: HornWorkload, workdir: Path,
                info: dict[str, Any]) -> dict[str, Any]:
    """The per-layer run: an untraced cycle for the overhead base, then
    the same cycle with the wrappers and the program's own tracer on."""
    base = work.measure(0, TRACED_CYCLES)
    rec = Recorder(workdir)
    install(rec)
    tracer = Tracer()
    try:
        with tracer.activate():
            got = work.measure(0, TRACED_CYCLES)
    finally:
        rec.uninstall()
    agg = rec.merged()
    spans = tracer.counts()
    for wrapped, program in TRACER_CHECKS:
        calls, want = agg["calls"].get(wrapped, 0), spans.get(program, 0)
        if calls != want:
            raise BenchError(f"trace validation: {calls} wrapped {wrapped} "
                             f"calls, {want} {program} spans")
    metrics = layer_metrics(agg)
    metrics["latency_p90_s"] = percentile(got["latencies"], 90)
    metrics["trace.overhead_ratio"] = sum(got["cold_s"]) / sum(base["cold_s"])
    setup_s = sum(got["setup_s"])
    # the share of set-up that rewriting and CDCL self time account for
    info["setup_share_rewriting_cdcl"] = (
        metrics["rewriting.self_s"] + metrics["cdcl.solve.self_s"]) / setup_s
    info.update(traced_setup_s=setup_s,
                tracer_spans={p: spans.get(p, 0) for _, p in TRACER_CHECKS})
    return {"attempted": got["attempted"], "failed": got["failed"],
            "metrics": metrics, "info": info}
