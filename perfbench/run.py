"""Run one workload of the repository's benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload horn-first-sight --seed 1 \\
        --seconds 20 --trace 0

Workloads, metrics and their units are declared in ``BENCHMARK.json``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps every layer's entry points and reports the
per-layer metrics instead.  Every run checks the program's answers and
exits 1 on a mismatch.  Human-readable lines come first; the last line
of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F,
     "metrics": {"name": {"value": V, "unit": U}, ...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("horn-first-sight", "serve-mixed")


def _provenance(specs) -> dict:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True)
        lines = top.stdout.split()
        commit = lines[1] if Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "generator_specs": specs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import batch, serve
    from perfbench.stats import BenchError

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = declared["per_layer" if args.trace else "end_to_end"]

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-",
                                    dir=ROOT / ".perfbench_work"))
    try:
        if args.workload == "serve-mixed":
            out = serve.run(args.seed, args.seconds, bool(args.trace),
                            workdir)
        else:
            out = batch.run(args.seed, args.seconds, bool(args.trace),
                            workdir)
            if args.trace:
                out["metrics"].update(
                    dict.fromkeys(serve.SERVE_ONLY_METRICS, 0))
        if not args.trace:
            out["metrics"]["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        missing = [m["name"] for m in table if m["name"] not in out["metrics"]]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = out.get("info", {})
    specs = info.pop("specs", None)
    print(json.dumps({"provenance": _provenance(specs), "info": info}))
    metrics = {}
    for m in table:
        value = float(out["metrics"][m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{args.workload:<20} {m['name']:<34} {value:>14.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
