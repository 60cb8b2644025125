"""Output-identity guardrail: the generation matrix against its committed record.

Usage (from the repository root)::

    python benchmarks/check_output_identity.py [--record]

It checks seeds 1 and 9001.  "The matrix" of a seed is the first 120 jobs
of perfbench's ``generate_jobs(seed)``, run in order on one
``load_catalogs()`` set, so later jobs meet the structure caches earlier
ones filled, as they do in the benchmark.  Per job,
``repr(Interface.fingerprint())``, ``repr(total_cost)`` and
``str(SearchStats.evaluations)`` go into one sha256 per seed.  The matrix
then runs a second time on the same, now warm, catalogs: every generation
of the replay revisits forests the first pass costed, so the catalogs'
forest-cost memo answers them, and it must reproduce the same record.  The
script exits 1 when a seed's hash, total evaluations or summed final cost
differs from ``benchmarks/baselines/OUTPUT_identity.json`` on either pass.

One hash per seed holds on every supported Python (3.10, 3.11, 3.12), and
CI checks it on each.  A change that moves outputs on purpose re-records
the file with ``--record``, checks the new record under every supported
Python, and lists each changed output in CHANGES.md; ``--record`` writes
the first pass and still checks the replay against it.  perfbench's
``workloads`` module is imported, never modified.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "baselines" / "OUTPUT_identity.json"
JOBS = 120
SEEDS = (1, 9001)


def matrix(seed: int, catalogs: dict) -> dict:
    """Hash, total evaluations and summed final cost of one seed's matrix on ``catalogs``."""
    from repro.pipeline import generate_interface
    from workloads import generate_jobs

    digest = hashlib.sha256()
    evaluations = 0
    summed_cost = 0.0
    for job in itertools.islice(generate_jobs(seed), JOBS):
        result = generate_interface(list(job.queries), catalogs[job.dataset], job.config)
        digest.update(repr(result.interface.fingerprint()).encode())
        digest.update(repr(result.total_cost).encode())
        digest.update(str(result.stats.evaluations).encode())
        evaluations += result.stats.evaluations
        summed_cost += result.total_cost
    return {"sha256": digest.hexdigest(), "evaluations": evaluations, "summed_cost": round(summed_cost, 2)}


def mismatches(measured: dict, recorded: dict | None) -> list[str]:
    """How ``measured`` differs from a seed's record (empty when it matches)."""
    if recorded is None:
        return ["no record for this seed"]
    return [
        f"{name} {measured[name]!r} != recorded {recorded[name]!r}"
        for name in ("sha256", "evaluations", "summed_cost")
        if measured[name] != recorded[name]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--record", action="store_true", help="write the measured values to the baseline")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    from workloads import load_catalogs

    python = "{}.{}".format(*sys.version_info[:2])
    recorded = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    failures = 0
    for seed in SEEDS:
        catalogs = load_catalogs()
        for run in ("first pass", "replay"):
            started = time.perf_counter()
            measured = matrix(seed, catalogs)
            elapsed = time.perf_counter() - started
            if args.record and run == "first pass":
                recorded[str(seed)] = measured
                verdict = "recorded"
            else:
                found = mismatches(measured, recorded.get(str(seed)))
                failures += bool(found)
                verdict = "; ".join(found) or "ok"
            print(f"seed {seed} {run} on Python {python}: {measured} in {elapsed:.1f} s: {verdict}")
    if args.record:
        BASELINE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
