"""Seeded inputs of the two workloads, built with ``repro.chaos``.

Everything here is a pure function of the run seed.  The chaos generator
draws the ontology's shape from its seed (3 or 4 unary levels, and which
roles get an existential), and the per-job cost of the ladder differs by
up to 40x between those shapes: the 4-level Horn ontologies alone take
over a minute to compile.  Every workload therefore uses the same member
of each family, the 3-level ontology whose only existential is on
``R0``.  It is found by scanning the sub-seeds ``seed * 1000 + base + i``
with :func:`repro.chaos.generate_workload`, so it is still generated and
band-verified by the program; the run seed then draws the queries and
instances.  A band-verification failure raises and fails the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.chaos import GeneratedWorkload, WorkloadSpec, generate_workload
from repro.serving import Job, jobs_from_entries

#: Horn first sight: distinct queries kept per shape, drawn once from the
#: fixed QUERY_SEED, and the seeded instances each query runs over.
HORN_QUERIES_PER_SHAPE = 2
HORN_INSTANCES = 30
QUERY_SEED = 0
#: Serve: generated jobs per ontology (fresh jobs are drawn from these).
SERVE_JOBS = 600
#: Serve, hard band: the light instances.
SERVE_HARD_SIZE = 6
SERVE_HARD_DOMAIN = 4
INCONSISTENCY_RATE = 0.2

_SCAN = 200


def _pinned_profile(text: str) -> bool:
    """The 3-level ontology with a single existential, on R0."""
    return ("A3(" not in text and "exists y (R0(x,y))" in text
            and "exists y (R1(x,y))" not in text)


def pinned(seed: int, base: int, **spec: Any) -> GeneratedWorkload:
    """The workload of the first sub-seed whose ontology has the pinned
    profile (see the module docstring)."""
    for i in range(_SCAN):
        sub = seed * 1000 + base + i
        # The generator's first draw is the number of levels.  Skipping
        # 4-level sub-seeds before generating them saves their band
        # verification (up to 10 s each); the profile test below is what
        # decides, so a changed draw order only makes the scan longer.
        if random.Random(sub).randint(3, 4) != 3:
            continue
        probe = generate_workload(WorkloadSpec(seed=sub, family=spec["family"],
                                               jobs=1))
        if _pinned_profile(probe.ontology_text):
            return generate_workload(WorkloadSpec(seed=sub, **spec))
    raise RuntimeError(f"no {spec['family']} ontology of the pinned profile "
                       f"among {_SCAN} sub-seeds of seed {seed}")


@dataclass
class BatchInputs:
    generated: GeneratedWorkload
    jobs: list[Job]
    queries: list[str]
    specs: list[dict[str, Any]] = field(default_factory=list)


def horn_first_sight(seed: int) -> BatchInputs:
    """A few distinct queries of every shape, each over many seeded
    instances, all on one Horn (PTIME-band) ontology.

    The queries are the same for every seed: which queries a seed draws
    decides how many of them the fast path accepts, and that moves the
    cold pass by half.  The seed draws the instances."""
    per_shape: dict[str, list[str]] = {}
    for job in pinned(QUERY_SEED, 0, family="horn", jobs=80).jobs:
        kept = per_shape.setdefault(job["id"].rsplit("-", 1)[0], [])
        if job["query"] not in kept and len(kept) < HORN_QUERIES_PER_SHAPE:
            kept.append(job["query"])
    gen = pinned(seed, 0, family="horn", jobs=2 * HORN_INSTANCES)
    instances: list[list[str]] = []
    for job in gen.jobs:
        if job["facts"] not in instances and len(instances) < HORN_INSTANCES:
            instances.append(job["facts"])
    queries = [q for shape in gen.spec.shapes for q in per_shape[shape]]
    entries = [{"id": f"i{i:02d}-q{j:02d}", "query": q, "facts": facts}
               for i, facts in enumerate(instances)
               for j, q in enumerate(queries)]
    return BatchInputs(gen, jobs_from_entries(entries), queries,
                       [gen.spec.to_dict()])


@dataclass
class ServeInputs:
    horn: GeneratedWorkload
    hard: GeneratedWorkload

    @property
    def specs(self) -> list[dict[str, Any]]:
        return [self.horn.spec.to_dict(), self.hard.spec.to_dict()]


def serve_mixed(seed: int) -> ServeInputs:
    """Boolean queries on a Horn ontology and light instances of every
    shape on a disjunctive one."""
    horn = pinned(seed, 600, family="horn", shapes=("bool",),
                  jobs=SERVE_JOBS)
    hard = pinned(seed, 800, family="disjunctive", jobs=SERVE_JOBS,
                  instance_size=SERVE_HARD_SIZE,
                  domain_size=SERVE_HARD_DOMAIN,
                  inconsistency_rate=INCONSISTENCY_RATE)
    return ServeInputs(horn, hard)
