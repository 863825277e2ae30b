"""Per-layer timing for the traced benchmark runs.

A :class:`Recorder` wraps the public entry point of every layer the
benchmark reports on and records one span per call: its name and its
self time (the span's duration minus the time of the wrapped calls it
made).  Nothing inside ``src/`` changes; the wrappers replace the module
attributes and class methods from outside, in every ``repro`` module
that holds a reference to the same function object.

The wrappers are installed before the serving daemon forks its worker
pool, so the workers inherit them.  Each worker starts its own span list
after the fork and writes its aggregate to a JSON file when it exits;
:meth:`Recorder.merged` folds those files into the parent's numbers.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import pickle
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: (wrapped span name, repro.obs span name) pairs whose call counts must agree.
TRACER_CHECKS = (
    ("plan.compile", "plan.compile"),
    ("chase", "chase"),
    ("cdcl.solve", "cdcl.solve"),
    ("sat.find_model", "sat.search"),
    ("datalog.evaluate", "datalog.evaluate"),
)


class Recorder:
    """Spans and counters of one process, plus the dumps of its forked
    children."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple[str, float]] = []  # (name, self time)
        self.counts: Counter[str] = Counter()
        self.fastpath_plans: set[int] = set()
        self._local = threading.local()
        self._join_base = _join_candidates()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """*fn* recording a *name* span per call.  ``before(args, kwargs)``
        returns a state handed to ``after(state, args, kwargs, result)``,
        which runs only when *fn* returned."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            stack = rec._stack()
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                rec.spans.append((name, duration - child[0]))
            if after is not None:
                after(state, args, kwargs, result)
            return result

        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    # -- patching ------------------------------------------------------------

    def patch_function(self, module: Any, attr: str, name: str,
                       **hooks: Callable) -> None:
        """Replace ``module.attr`` in every loaded ``repro`` module that
        imported the same function object."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **hooks)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(self, cls: type, attr: str, name: str,
                     **hooks: Callable) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    def patch_counter(self, cls: type, attr: str,
                      after: Callable) -> None:
        """Count through ``after(self_obj)`` without opening a span, so
        the call's time stays in its caller's self time."""
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            result = original(obj, *args, **kwargs)
            after(obj)
            return result

        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- forked workers ------------------------------------------------------

    def _after_fork(self) -> None:
        self._reset()
        multiprocessing.util.Finalize(self, self._dump, exitpriority=100)

    def _dump(self) -> None:
        # pid plus clock: a later worker may reuse an exited one's pid
        path = (self.dump_dir
                / f"spans-{os.getpid()}-{time.monotonic_ns()}.json")
        path.write_text(json.dumps(self.aggregate()))

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict[str, Any]:
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for name, own in list(self.spans):
            calls[name] += 1
            self_s[name] += own
        counts = Counter(self.counts)
        counts["fastpath_plans"] += len(self.fastpath_plans)
        counts["join_candidates"] += _join_candidates() - self._join_base
        return {"calls": dict(calls), "self": dict(self_s),
                "counts": dict(counts)}

    def merged(self) -> dict[str, Any]:
        """This process's aggregate plus every child dump in *dump_dir*."""
        out = self.aggregate()
        for path in sorted(self.dump_dir.glob("spans-*.json")):
            child = json.loads(path.read_text())
            for key in ("calls", "self", "counts"):
                for name, value in child[key].items():
                    out[key][name] = out[key].get(name, 0) + value
        return out


def _join_candidates() -> int:
    engine = sys.modules.get("repro.datalog.engine")
    return engine.join_counter.candidates if engine is not None else 0


def install(rec: Recorder) -> None:
    """Wrap every layer's entry points (see the table in BENCHMARK.json)."""
    mod = importlib.import_module
    program_mod = mod("repro.analysis.program")
    rewriting = mod("repro.core.rewriting")
    datalog_engine = mod("repro.datalog.engine")
    cdcl, certain, chase, modelsearch, sat = (
        mod(f"repro.semantics.{name}")
        for name in ("cdcl", "certain", "chase", "modelsearch", "sat"))
    admission = mod("repro.server.admission")
    ReproServer = mod("repro.server.daemon").ReproServer
    batch, cache, plan = (mod(f"repro.serving.{name}")
                          for name in ("batch", "cache", "plan"))
    PoolSupervisor = mod("repro.resilience.pool").PoolSupervisor
    storage_base = mod("repro.storage.base")
    for name in ("directory", "sqlite", "sharded"):
        mod(f"repro.storage.{name}")

    def compiled(_state, _args, _kwargs, result):
        if result.plan_kind == "datalog-fastpath":
            rec.fastpath_plans.add(id(result))

    rec.patch_function(plan, "compile_omq", "plan.compile", after=compiled)

    def evaluated(_state, _args, _kwargs, result):
        if not result.cache_hit:
            rec.count("engine_jobs")

    rec.patch_method(plan.CompiledOMQ, "evaluate", "plan.evaluate",
                     after=evaluated)

    def built(_state, args, _kwargs, _result):
        obj = args[0]
        rec.count("rewriting_types",
                  len(obj.elem_types) + len(obj.pair_types))

    rec.patch_method(rewriting.TypeRewriting, "__init__", "rewriting.build",
                     after=built)
    rec.patch_method(rewriting.TypeRewriting, "to_datalog_program_with_meta",
                     "rewriting.emit")
    rec.patch_function(program_mod, "optimize_program", "program.optimize")
    rec.patch_function(program_mod, "analyze_program", "program.analyze")

    def solver_built(solver):
        rec.count("cdcl_solvers")
        rec.count("cdcl_clauses", len(solver.clauses))

    rec.patch_counter(cdcl.Solver, "__init__", solver_built)
    rec.patch_method(cdcl.Solver, "solve", "cdcl.solve")
    rec.patch_function(sat, "ground", "sat.ground")
    rec.patch_function(modelsearch, "find_model", "sat.find_model")

    for attr in ("certain_answers", "entails", "entails_outcome",
                 "consistency_outcome", "is_consistent"):
        rec.patch_method(certain.CertainEngine, attr, f"certain.{attr}")

    def chased(_state, _args, _kwargs, result):
        if result.fully_chased:
            rec.count("chase_complete")

    rec.patch_function(chase, "chase", "chase", after=chased)
    rec.patch_function(datalog_engine, "evaluate", "datalog.evaluate")

    def cache_got(_state, _args, _kwargs, result):
        if result is not None:
            rec.count("cache_hits")

    rec.patch_method(cache.AnswerCache, "get", "cache.get", after=cache_got)
    rec.patch_method(cache.AnswerCache, "put", "cache.put")

    def storage_errors(args, _kwargs):
        backend = args[0]
        return (getattr(backend, "read_errors", 0)
                + getattr(backend, "write_errors", 0))

    def storage_failed(before, args, _kwargs, _result):
        after = storage_errors(args, None)
        if after > before:
            rec.count("storage_failed", after - before)

    for cls in _subclasses(storage_base.StorageBackend):
        for attr in ("get", "put"):
            if attr in cls.__dict__:
                rec.patch_method(cls, attr, f"storage.{attr}",
                                 before=storage_errors, after=storage_failed)

    rec.patch_function(batch, "evaluate_batch", "batch.evaluate")

    def wave_payload(args, _kwargs):
        tasks = args[1]  # the batch runner passes a list
        rec.count("dispatched_jobs", len(tasks))
        rec.count("dispatch_bytes",
                  sum(len(pickle.dumps(payload)) for _key, payload in tasks))
        return tasks

    def wave_done(_tasks, _args, _kwargs, result):
        rec.count("pool_crashes",
                  sum(1 for _key, kind, _value in result if kind == "crash"))

    rec.patch_method(PoolSupervisor, "run_wave", "pool.wave",
                     before=wave_payload, after=wave_done)

    def admitted(_state, _args, _kwargs, decision):
        if not decision.accepted:
            rec.count("admission_shed")

    rec.patch_method(admission.AdmissionController, "admit",
                     "admission.admit", after=admitted)
    rec.patch_method(ReproServer, "handle_submit", "server.submit")
    rec.patch_function(admission, "classify_band", "classify")

    multiprocessing.util.register_after_fork(rec, Recorder._after_fork)


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def layer_metrics(agg: dict[str, Any]) -> dict[str, float]:
    """The per-layer metric table from one merged aggregate.
    ``certain.decisions_per_job`` is per job that reached the engine
    (answer-cache hits excluded)."""
    calls, own, counts = agg["calls"], agg["self"], agg["counts"]

    def c(name: str) -> int:
        return int(calls.get(name, 0))

    def s(*names: str) -> float:
        return float(sum(own.get(n, 0.0) for n in names))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    certain_spans = [n for n in own if n.startswith("certain.")]
    admits = c("admission.admit")
    return {
        "plan.compile.calls": c("plan.compile"),
        "plan.compile.self_s": s("plan.compile"),
        "plan.fastpath_yield": ratio(counts.get("fastpath_plans", 0),
                                     c("rewriting.build")),
        "rewriting.builds": c("rewriting.build"),
        "rewriting.self_s": s("rewriting.build", "rewriting.emit"),
        "rewriting.types": int(counts.get("rewriting_types", 0)),
        "program.optimize.self_s": s("program.optimize", "program.analyze"),
        "cdcl.solvers_built": int(counts.get("cdcl_solvers", 0)),
        "cdcl.clauses_loaded": int(counts.get("cdcl_clauses", 0)),
        "cdcl.solve.calls": c("cdcl.solve"),
        "cdcl.solve.self_s": s("cdcl.solve"),
        "sat.ground.calls": c("sat.ground"),
        "sat.ground.self_s": s("sat.ground"),
        "sat.find_model.calls": c("sat.find_model"),
        "sat.find_model.self_s": s("sat.find_model"),
        "certain.tuple_decisions": c("certain.entails_outcome"),
        "certain.decisions_per_job": ratio(c("certain.entails_outcome"),
                                           counts.get("engine_jobs", 0)),
        "certain.self_s": s(*certain_spans),
        "chase.calls": c("chase"),
        "chase.self_s": s("chase"),
        "chase.complete_ratio": ratio(counts.get("chase_complete", 0),
                                      c("chase")),
        "datalog.evaluate.calls": c("datalog.evaluate"),
        "datalog.evaluate.self_s": s("datalog.evaluate"),
        "datalog.join_candidates": int(counts.get("join_candidates", 0)),
        "cache.get.calls": c("cache.get"),
        "cache.hit_ratio": ratio(counts.get("cache_hits", 0), c("cache.get")),
        "cache.get.self_s": s("cache.get"),
        "cache.put.calls": c("cache.put"),
        "storage.get.calls": c("storage.get"),
        "storage.get.self_s": s("storage.get"),
        "storage.put.calls": c("storage.put"),
        "storage.put.self_s": s("storage.put"),
        "storage.failed_ops": int(counts.get("storage_failed", 0)),
        "batch.evaluate.self_s": s("batch.evaluate"),
        "batch.dispatch_bytes_per_job": ratio(
            counts.get("dispatch_bytes", 0),
            counts.get("dispatched_jobs", 0)),
        "pool.wave.self_s": s("pool.wave"),
        "pool.crashes": int(counts.get("pool_crashes", 0)),
        "admission.admit.calls": admits,
        "admission.shed_ratio": ratio(counts.get("admission_shed", 0),
                                      admits),
        "admission.self_s": s("admission.admit"),
        "server.submit.self_s": s("server.submit"),
        "classify.self_s": s("classify"),
    }
