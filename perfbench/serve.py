"""The ``serve-mixed`` workload: an open-loop client against a live daemon.

An in-process :class:`repro.server.daemon.ReproServer` with two workers and
a ``sqlite:`` durable tier serves two ontologies: Boolean queries on a Horn
one (PTIME band) and light instances of every shape on a disjunctive one
(hard band).  Every jobset holds one job that repeats an earlier job of
its ontology (answer cache and storage reads) and one fresh job
(evaluation and storage writes).

One client process uses two threads: the sender posts jobsets at fixed
offered rates, each level on its own schedule, and the poller collects
results.  A jobset's latency runs from the time it was *due* to be sent to
the time its result was received, so a late sender still shows.

Phases of one run:

1. set-up, repeated: construct and start a server, wait for ``/readyz``,
   run one warm-up jobset per ontology; all but the last are stopped;
2. a closed loop of larger jobsets, cold (fresh jobs) and then warm (the
   first of them again), for the served jobs/s.  It runs on the freshly
   set-up server, as does the untraced base of ``trace.overhead_ratio``;
3. the open-loop levels ``low``, ``mid``, ``high``, each drained before
   the next.

Every job's answer is checked against a serial in-process
:func:`repro.serving.evaluate_batch` of the same job under the daemon's
defaults, computed after the timed phases.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.server.daemon import ReproServer
from repro.serving import clear_caches, evaluate_batch, jobs_from_entries

from . import inputs as inputs_mod
from .layers import Recorder, install, layer_metrics
from .stats import BenchError, median, percentile

WORKERS = 2
SETUP_REPEATS = 3
#: Offered rates (jobsets/s); ``high`` sits near the two-worker capacity.
RATES = {"low": 6.0, "mid": 12.0, "high": 18.0}
#: Jobsets per level: at least ten samples beyond p90.
JOBSETS_PER_LEVEL = 100
#: p90 latency a level must meet to count toward capacity.
LATENCY_LIMIT_S = 1.0
#: A level's backlog grows when its last quarter averages this many more
#: outstanding jobsets than its first quarter.
BACKLOG_GROWTH = 2.0
WARMUP_JOBS = 4
#: The closed loop: cold jobsets of fresh jobs, then the first
#: WARM_JOBSETS of them again.  The warm phase stays within the
#: admission burst (100 jobs) that ``repro serve`` allows by default.
CLOSED_JOBSETS = 16
CLOSED_JOBSET_SIZE = 16
WARM_JOBSETS = 4
#: Pause before the warm phase and before the open loop: the default
#: admission bucket refills from empty in burst / rate = 2 s.
REFILL_S = 2.0
POLL_INTERVAL_S = 0.002

SERVE_ONLY_METRICS = tuple(
    f"{name}.{level}" for level in RATES
    for name in ("latency_p50_s", "latency_p90_s", "client.send_lag_p90_s",
                 "client.backlog_end")) + (
    "capacity_jobsets_per_s", "failed_share",
    "server.queue_wait_p50_s", "server.queue_wait_p90_s")


# -- the schedule ------------------------------------------------------------


@dataclass
class Plan:
    """Everything the client sends, as a pure function of the seed."""

    ontologies: dict[str, str]
    generated: dict[str, Any]
    warmup: dict[str, list[dict]]
    levels: dict[str, list[tuple[str, list[dict]]]]
    closed: list[tuple[str, list[dict]]]
    specs: list[dict[str, Any]] = field(default_factory=list)

    def all_jobs(self) -> dict[str, dict[str, dict]]:
        """Distinct jobs per ontology, by id."""
        out: dict[str, dict[str, dict]] = {k: {} for k in self.ontologies}
        for onto, jobs in self.warmup.items():
            for job in jobs:
                out[onto][job["id"]] = job
        for jobsets in [*self.levels.values(), self.closed]:
            for onto, jobs in jobsets:
                for job in jobs:
                    out[onto][job["id"]] = job
        return out


def make_plan(seed: int) -> Plan:
    generated = inputs_mod.serve_mixed(seed)
    rng = random.Random(seed)
    fresh = {"horn": iter(generated.horn.jobs), "hard": iter(generated.hard.jobs)}
    history: dict[str, list[dict]] = {"horn": [], "hard": []}

    def take(onto: str) -> dict:
        try:
            job = dict(next(fresh[onto]))
        except StopIteration:
            raise BenchError(f"serve-mixed: ran out of fresh {onto} jobs")
        job["id"] = f"{onto}-{len(history[onto]):04d}"
        history[onto].append(job)
        return job

    warmup = {onto: [take(onto) for _ in range(WARMUP_JOBS)]
              for onto in ("horn", "hard")}
    levels: dict[str, list[tuple[str, list[dict]]]] = {}
    for level in RATES:
        jobsets = []
        for _ in range(JOBSETS_PER_LEVEL):
            onto = "horn" if rng.random() < 0.5 else "hard"
            repeat = rng.choice(history[onto])
            jobsets.append((onto, [repeat, take(onto)]))
        levels[level] = jobsets
    closed = [(onto, [take(onto) for _ in range(CLOSED_JOBSET_SIZE)])
              for onto in ("horn", "hard") * (CLOSED_JOBSETS // 2)]
    return Plan(
        ontologies={"horn": generated.horn.ontology_text,
                    "hard": generated.hard.ontology_text},
        generated={"horn": generated.horn, "hard": generated.hard},
        warmup=warmup, levels=levels, closed=closed,
        specs=generated.specs)


# -- the client --------------------------------------------------------------


class Client:
    """JSON over one keep-alive HTTP connection (one per thread)."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str,
             body: dict | None = None) -> tuple[int, dict]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        return response.status, json.loads(payload) if payload else {}

    def close(self) -> None:
        self.conn.close()


@dataclass
class Sent:
    onto: str
    jobs: list[dict]
    due: float
    sent: float = 0.0
    received: float | None = None
    failed: str = ""
    result: dict | None = None


class Session:
    """One started server plus the client state of a run against it."""

    def __init__(self, plan: Plan, workdir: Path, tag: str):
        self.plan = plan
        cache = workdir / f"store-{tag}"
        cache.mkdir(parents=True)
        self.created = time.perf_counter()
        self.server = ReproServer(workers=WORKERS,
                                  cache_backend=f"sqlite:{cache / 'answers.db'}")
        self.sender: Client | None = None
        self.posts = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> float:
        """Set-up: start, wait for readiness, warm every ontology.
        Returns the seconds since the server's construction."""
        self.server.start()
        self.sender = Client(self.server.port)
        while self.sender.call("GET", "/readyz")[0] != 200:
            time.sleep(POLL_INTERVAL_S)
        for onto, jobs in self.plan.warmup.items():
            item = self.closed_jobset(onto, jobs)
            if _job_failures(item):
                raise BenchError(f"serve-mixed: warm-up {onto} jobset "
                                 f"failed: {item.failed or item.result}")
        return time.perf_counter() - self.created

    def stop(self) -> None:
        if self.sender is not None:
            self.sender.close()
        self.server.begin_drain()
        self.server.drain(timeout=120)
        self.server.stop()

    # -- sending -------------------------------------------------------------

    def post(self, onto: str, jobs: list[dict]) -> tuple[int, dict]:
        self.posts += 1
        body = {"ontology": self.plan.ontologies[onto],
                "jobs": [{"id": j["id"], "query": j["query"],
                          "facts": j["facts"]} for j in jobs]}
        try:
            return self.sender.call("POST", "/v1/jobsets", body)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.sender.close()
            self.sender = Client(self.server.port)
            return 0, {"error": f"{type(exc).__name__}: {exc}"}

    def closed_jobset(self, onto: str, jobs: list[dict]) -> Sent:
        """Send one jobset and wait for its result."""
        item = Sent(onto, jobs, due=time.perf_counter())
        item.sent = item.due
        status, body = self.post(onto, jobs)
        if status != 202:
            item.failed = f"HTTP {status}: {body.get('error', body)}"
            return item
        while True:
            status, body = self.sender.call(
                "GET", f"/v1/jobsets/{body['id']}/result")
            if status == 200:
                break
            time.sleep(POLL_INTERVAL_S)
        _finish(item, body, time.perf_counter())
        return item

    def open_loop(self, rate: float,
                  jobsets: list[tuple[str, list[dict]]]) -> tuple[list[Sent], list[int]]:
        """Send *jobsets* at *rate* per second from a fixed schedule while
        a second thread polls results; returns the records and the
        outstanding count seen at each send."""
        outstanding: dict[str, Sent] = {}
        lock = threading.Lock()
        done = threading.Event()
        poll_error: list[Exception] = []

        def poll() -> None:
            client = Client(self.server.port)
            try:
                while True:
                    with lock:
                        pending = list(outstanding.items())
                    if not pending and done.is_set():
                        return
                    for jobset_id, item in pending:
                        status, body = client.call(
                            "GET", f"/v1/jobsets/{jobset_id}/result")
                        if status == 200:
                            _finish(item, body, time.perf_counter())
                            with lock:
                                del outstanding[jobset_id]
                    time.sleep(POLL_INTERVAL_S)
            except Exception as exc:  # surfaced by the sender below
                poll_error.append(exc)
            finally:
                client.close()

        poller = threading.Thread(target=poll, name="perfbench-poller")
        poller.start()
        sent: list[Sent] = []
        backlog: list[int] = []
        origin = time.perf_counter() + 0.05
        try:
            for i, (onto, jobs) in enumerate(jobsets):
                item = Sent(onto, jobs, due=origin + i / rate)
                pause = item.due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                item.sent = time.perf_counter()
                status, body = self.post(onto, jobs)
                sent.append(item)
                with lock:
                    backlog.append(len(outstanding))
                    if status == 202:
                        outstanding[body["id"]] = item
                if status != 202:
                    item.failed = f"HTTP {status}: {body.get('error', body)}"
                if poll_error:
                    break
        finally:
            done.set()
            poller.join(timeout=150)
        if poll_error:
            raise BenchError(f"serve-mixed: poller failed: {poll_error[0]!r}")
        if poller.is_alive():
            raise BenchError("serve-mixed: jobsets still outstanding after "
                             "150 s")
        return sent, backlog


def _finish(item: Sent, body: dict, now: float) -> None:
    item.received = now
    if body.get("status") != "done" or "report" not in body:
        item.failed = f"jobset {body.get('status')}: {body.get('error', '')}"
        return
    item.result = body["report"]


# -- checks and metrics ------------------------------------------------------


def _job_failures(item: Sent) -> int:
    """Failed jobs of one jobset: all of them when the jobset failed."""
    if item.failed or item.result is None:
        return len(item.jobs)
    return sum(1 for job in item.result["jobs"] if job["status"] != "ok")


def check_answers(plan: Plan, items: list[Sent],
                  defaults: dict[str, Any]) -> None:
    """Every served job equals a serial in-process evaluate_batch of the
    same job under the daemon's defaults."""
    reference: dict[tuple[str, str], tuple] = {}
    for onto, jobs in plan.all_jobs().items():
        entries = list(jobs.values())
        report = evaluate_batch(plan.generated[onto].ontology(),
                                jobs_from_entries(entries),
                                workers=1, **defaults)
        for entry, result in zip(entries, report.results):
            reference[onto, entry["id"]] = (
                result.status, result.verdict,
                [list(a) for a in result.answers])
    for item in items:
        if item.result is None:
            continue
        for job in item.result["jobs"]:
            want = reference[item.onto, job["id"]]
            got = (job["status"], job["verdict"], job["answers"])
            if got != want:
                raise BenchError(f"serve-mixed: job {job['id']} served {got}, "
                                 f"serial evaluate_batch {want}")


def level_metrics(level: str, sent: list[Sent],
                  backlog: list[int]) -> tuple[dict[str, float], bool]:
    """The level's latency, send lag and backlog; and whether it meets
    the latency limit without a growing backlog."""
    done = [s.received - s.due for s in sent
            if not s.failed and s.received is not None]
    misses = sum(1 for s in sent if s.failed) + sum(
        1 for latency in done if latency > LATENCY_LIMIT_S)
    quarter = max(1, len(backlog) // 4)
    growing = (sum(backlog[-quarter:]) - sum(backlog[:quarter])) / quarter \
        > BACKLOG_GROWTH
    ok = misses <= 0.1 * len(sent) and not growing
    return {
        f"latency_p50_s.{level}": percentile(done, 50),
        f"latency_p90_s.{level}": percentile(done, 90),
        f"client.send_lag_p90_s.{level}": percentile(
            [s.sent - s.due for s in sent], 90),
        f"client.backlog_end.{level}": backlog[-1] if backlog else 0,
    }, ok


def _closed_phase(session: Session,
                  plan: Plan) -> tuple[list[Sent], list[float]]:
    """Cold, then warm, closed loop over the large jobsets; returns the
    records and the served jobs/s of each."""
    rates = []
    items: list[Sent] = []
    for jobsets in (plan.closed, plan.closed[:WARM_JOBSETS]):
        if rates:
            time.sleep(REFILL_S)
        start = time.perf_counter()
        items.extend(session.closed_jobset(onto, jobs)
                     for onto, jobs in jobsets)
        wall = time.perf_counter() - start
        rates.append(sum(len(jobs) for _, jobs in jobsets) / wall)
    return items, rates


def run(seed: int, seconds: float, trace: bool,
        workdir: Path) -> dict[str, Any]:
    """One serve-mixed run.  *seconds* does not stretch the levels: each
    level sends its fixed number of jobsets."""
    del seconds
    phases: dict[str, float] = {}
    last = [time.perf_counter()]

    def phase(name: str) -> None:
        now = time.perf_counter()
        phases[name] = now - last[0]
        last[0] = now

    plan = make_plan(seed)
    phase("inputs")
    untraced_rate = None
    rec = None
    if trace:
        # the untraced base of trace.overhead_ratio: the cold closed loop
        base = Session(plan, workdir, "untraced")
        try:
            base.start()
            untraced_rate = _closed_phase(base, plan)[1][0]
        finally:
            base.stop()
        rec = Recorder(workdir)
        install(rec)
        phase("untraced_base")

    setups = []
    sessions: list[Session] = []
    session = None
    try:
        for i in range(SETUP_REPEATS):
            clear_caches()
            session = Session(plan, workdir, f"setup{i}")
            sessions.append(session)
            setups.append(session.start())
            if i < SETUP_REPEATS - 1:
                session.stop()
                session = None
        phase("setup")
        closed, rates = _closed_phase(session, plan)
        time.sleep(REFILL_S)
        phase("closed")
        metrics: dict[str, float] = {}
        items: list[Sent] = []
        capacity = 0.0
        for level, rate in RATES.items():
            sent, backlog = session.open_loop(rate, plan.levels[level])
            items.extend(sent)
            values, ok = level_metrics(level, sent, backlog)
            metrics.update(values)
            if ok:
                capacity = max(capacity, rate)
            phase(level)
        defaults = dict(session.server.defaults)
        waits = [js.started - js.submitted for js in session.server.store.all()
                 if js.started is not None]
        posts = sum(s.posts for s in sessions)
    finally:
        if session is not None:
            session.stop()
        if rec is not None:
            rec.uninstall()
        phase("stop")

    check_answers(plan, items + closed, defaults)
    phase("check")
    attempted = sum(len(s.jobs) for s in items + closed)
    failed = sum(_job_failures(s) for s in items + closed)
    out = {
        "setup_s": median(setups),
        "cold_jobs_per_s": rates[0],
        "warm_jobs_per_s": rates[1],
        "latency_p50_s": metrics["latency_p50_s.low"],
    }
    info = {"phase_s": phases, "setup_runs_s": setups, "specs": plan.specs,
            "plan_options": defaults,
            "rates_jobsets_per_s": RATES, "jobsets_per_level": JOBSETS_PER_LEVEL,
            "latency_limit_s": LATENCY_LIMIT_S, "serve_levels": metrics,
            "capacity_jobsets_per_s": capacity,
            "failed_share": failed / attempted}
    if not trace:
        return {"attempted": attempted, "failed": failed, "metrics": out,
                "info": info}

    agg = rec.merged()
    layer = layer_metrics(agg)
    if layer["admission.admit.calls"] != posts:
        raise BenchError(f"trace validation: {layer['admission.admit.calls']} "
                         f"admissions for {posts} jobsets posted")
    layer.update(metrics)
    layer["capacity_jobsets_per_s"] = capacity
    layer["failed_share"] = failed / attempted
    layer["server.queue_wait_p50_s"] = percentile(waits, 50)
    layer["server.queue_wait_p90_s"] = percentile(waits, 90)
    layer["latency_p90_s"] = metrics["latency_p90_s.low"]
    layer["trace.overhead_ratio"] = untraced_rate / rates[0]
    return {"attempted": attempted, "failed": failed, "metrics": layer,
            "info": info}
