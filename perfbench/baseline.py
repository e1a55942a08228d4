#!/usr/bin/env python3
"""Re-measure the ROADMAP baseline for mrr with the benchmark's harness.

    python3 perfbench/baseline.py

Proves corpus/mrr.txt at the command line's default seed 0: at certainty
1/10 with one job (traced, then untraced), at 1/10 with two jobs, and at
certainty 1 with two jobs (traced, then untraced).  Prints the machine, the
wall time of each proof and the split of traced time over the top-level
stages.  Takes about three minutes on two cores.
"""

import os
import platform
import sys
from collections import defaultdict
from fractions import Fraction

import run
import tracer as tracing
from workloads import Case

CONFIGS = (
    (Fraction(1, 10), 1, True),
    (Fraction(1, 10), 2, False),
    (Fraction(1), 2, True),
)


def stage_split(tr):
    """Seconds per span name over the spans directly under a proof."""
    proofs = {s[0] for s in tr.spans if s[1] == "proof"}
    split = defaultdict(float)
    for sid, name, start, end, parent, _, _ in tr.spans:
        if parent in proofs:
            split[name] += end - start
    return dict(split)


def main():
    cli = run.import_cli()
    print(f"machine: {platform.machine()}, {len(os.sched_getaffinity(0))} CPUs "
          f"usable, Python {platform.python_version()}, load average "
          f"{' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    ledger = run.Ledger(run.OUT / "records-baseline.jsonl")
    for certainty, jobs, traced in CONFIGS:
        case = Case("corpus/mrr.txt", certainty, 0, jobs, ())
        label = f"mrr certainty {certainty} jobs {jobs} seed 0"
        if traced:
            tr = tracing.Tracer()
            tr.install(tracing.STAGE_WRAPS +
                       ((tracing.RANK_WRAP,) if jobs == 1 else ()))
            try:
                wall, _, rows = run.run_unit(cli, [case], ledger, tr)
            finally:
                tr.uninstall()
            metrics = run.layer_metrics(tr, wall, wall)
            print(f"{label} traced: {wall:.2f} s")
            for name, seconds in sorted(stage_split(tr).items(),
                                        key=lambda kv: -kv[1]):
                print(f"  {name:28s} {seconds:8.3f} s")
            for name in ("gridproof.grid_points", "gridproof.grid_total",
                         "gridproof.ms_per_point", "gridproof.rank_s",
                         "gridproof.subst_s", "gridproof.cores_busy",
                         "gridproof.worker_rss_mb", "telescope.system_rows",
                         "telescope.system_cols", "telescope.system_terms"):
                print(f"  {name:28s} {metrics[name]:.6g}")
        wall, cpu, rows = run.run_unit(cli, [case], ledger)
        report = rows[0][1]
        print(f"{label} untraced: {wall:.2f} s wall, {cpu:.2f} s cpu, "
              f"{report.verdict}, J={report.order}, "
              f"{report.grid_tested}/{report.grid_total} points")
    ledger.save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
