#!/usr/bin/env python3
"""hyperproof benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Workloads (see workloads.py and README.md): symbolic, mrr-sampled,
mrr-rigorous.  The load is closed-loop: one client proves one identity after
another through the calls the command line makes (cli.load_identity,
cli.run_prove, cli.report_record, cli.record_line), starting units of work
until --seconds have passed; at least one unit always runs.

--trace 0 reports the end-to-end metrics: set-up time, wall and CPU time per
unit (medians over the units of the run) and peak RSS.  Times are scaled by
the speed of the host measured while they ran (hostspeed.py), so that they
read as on a host of speed 1.  --trace 1 runs one unit with stage spans
recorded (tracer.py), then the same unit untraced, and reports the per-layer
metrics, unscaled, and the tracing overhead.  Either way every
verdict is checked, and the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Spans, records and
generated identity files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

MAX_ORDER = 6
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60
# _rank_deficiency_test only starts worker processes above this many points.
PARALLEL_MIN_POINTS = 256

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.load_s": "s",
    "gridproof.normalize_s": "s",
    "gosper.antidifference_s": "s",
    "gosper.calls": "count",
    "telescope.assemble_s": "s",
    "telescope.assemble_calls": "count",
    "telescope.system_rows": "count",
    "telescope.system_cols": "count",
    "telescope.system_terms": "count",
    "telescope.creative_s": "s",
    "linalg.nullspace_s": "s",
    "linalg.nullspace_calls": "count",
    "telescope.verify_s": "s",
    "polys.gcd_s": "s",
    "gridproof.grid_s.J1": "s",
    "gridproof.grid_s.J2": "s",
    "gridproof.grid_points": "count",
    "gridproof.grid_total": "count",
    "gridproof.ms_per_point": "ms",
    "gridproof.witness_pos.J1": "count",
    "gridproof.rank_s": "s",
    "gridproof.subst_s": "s",
    "gridproof.cores_busy": "ratio",
    "gridproof.worker_rss_mb": "MB",
    "gridproof.leading_coeff_s": "s",
    "gridproof.initial_checks_s": "s",
    "trace.overhead_s": "s",
    "trace.stage_coverage": "ratio",
    "trace.spans": "count",
    "trace.missing": "count",
}
# Value of a per-layer metric whose stage could not be traced: the wrapped
# name is missing from the program, or the stage ran in worker processes.
NOT_MEASURED = -1


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    src = ROOT / "src"
    package = src / "hyperproof"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no hyperproof sources under {src}")
    sys.path.insert(0, str(src))
    import hyperproof
    from hyperproof import cli
    if Path(hyperproof.__file__).resolve().parent != package.resolve():
        raise BenchError(f"hyperproof imported from {hyperproof.__file__}, "
                         f"not from {package}")
    return cli


def measure_setup(paths):
    """Median over SETUP_PROBES fresh interpreters of import plus loading,
    each scaled by the host speed the probe measured right after; one
    untimed probe first writes the bytecode caches."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT / "src"),
           *[str(ROOT / p) for p in paths]]
    samples = []
    for i in range(SETUP_PROBES + 1):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=PROBE_TIMEOUT_S, check=True)
        except (subprocess.SubprocessError, OSError) as exc:
            raise BenchError(f"set-up probe failed: {exc}")
        if i:
            seconds, speed = map(float, out.stdout.split()[-2:])
            samples.append(seconds * speed)
    return statistics.median(samples)


class Ledger:
    """Outcome of every proof of a run, and the record bytes of every
    (identity, prove seed), compared with any earlier proof of the same pair
    in this run or in an earlier run of the same workload and seed."""

    def __init__(self, path):
        self.path = path
        self.reference = {}
        if path.exists():
            for line in path.read_text(encoding="utf-8").splitlines(True):
                record = json.loads(line)
                self.reference[(record["name"], record["seed"])] = line
        self.seen = dict(self.reference)
        self.attempted = 0
        self.failed = 0
        self.failures = []      # wrong answers: raised, wrong verdict, bytes
        self.problems = []      # the measurement itself is invalid

    def check(self, case, name, report, line, error, worker_cpu):
        self.attempted += 1
        wrong = []
        if error is not None:
            wrong.append(f"raised {error}")
        else:
            if report.verdict not in case.expected:
                wrong.append(f"verdict {report.verdict}, expected "
                             f"{' or '.join(case.expected)}")
            if self.seen.setdefault((name, case.seed), line) != line:
                wrong.append("record bytes differ from an earlier proof with "
                             "the same seed")
        if wrong:
            self.failed += 1
            self.failures.extend(f"{name}: {w}" for w in wrong)
        if report is None:
            return
        if report.verdict == "semi-rigorous" and not (
                report.grid_total and
                report.grid_tested >= case.certainty * report.grid_total):
            self.problems.append(f"{name}: {report.grid_tested}/"
                                 f"{report.grid_total} points tested at "
                                 f"certainty {case.certainty}")
        if report.verdict == "rigorous" and report.grid_total and \
                report.grid_tested != report.grid_total:
            self.problems.append(f"{name}: rigorous after {report.grid_tested}/"
                                 f"{report.grid_total} points")
        if case.jobs > 1 and report.grid_tested > PARALLEL_MIN_POINTS and \
                worker_cpu <= 0:
            self.problems.append(f"{name}: grid workers used no CPU time; the "
                                 f"parallel scan ran serially")

    def save(self):
        if self.seen != self.reference:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("".join(self.seen[k] for k in sorted(self.seen)),
                                 encoding="utf-8")


def _children_cpu():
    t = os.times()
    return t.children_user + t.children_system


def _cpu():
    """CPU seconds of this process and of its reaped children (the grid
    workers, whose pool is shut down before prove returns)."""
    return time.process_time() + _children_cpu()


def run_unit(cli, cases, ledger, tracer=None):
    """Prove every case in order; returns (wall s, cpu s, rows).  Loading the
    identity files is set-up and lies outside the timed interval."""
    idents = [cli.load_identity(ROOT / c.path) for c in cases]
    rows = []
    t0, c0 = time.perf_counter(), _cpu()
    for index, (case, ident) in enumerate(zip(cases, idents)):
        if tracer is not None:
            tracer.proof = index
            sid = tracer.begin("proof", {"name": ident.name})
        p0, w0 = time.perf_counter(), _children_cpu()
        report = line = error = None
        try:
            report = cli.run_prove(ident, case.certainty, case.seed,
                                   MAX_ORDER, case.jobs)
            line = cli.record_line(cli.report_record(ident, report))
        except Exception as exc:  # a proof that raises is a failed proof
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.end(sid)
                tracer.proof = None
        seconds = time.perf_counter() - p0
        ledger.check(case, ident.name, report, line, error,
                     _children_cpu() - w0)
        rows.append((ident.name, report, seconds, error))
    return time.perf_counter() - t0, _cpu() - c0, rows


def _print_rows(rows):
    for name, report, seconds, error in rows:
        if report is None:
            print(f"  {name:32s} ERROR {error}")
            continue
        grid = (f"{report.grid_tested}/{report.grid_total}"
                if report.grid_total else "-")
        print(f"  {name:32s} {report.verdict:13s} {report.method:16s} "
              f"J={report.order} grid={grid} seed={report.seed} "
              f"{seconds:.3f}s")


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0


def layer_metrics(tr, traced_wall, plain_wall):
    spans = tr.spans

    def of(name):
        return [s for s in spans if s[1] == name]

    def dur(items):
        return sum(s[3] - s[2] for s in items)

    def timed(name):
        return dur(of(name)) if tr.measured(name) else NOT_MEASURED

    def counted(name):
        return len(of(name)) if tr.measured(name) else NOT_MEASURED

    m = {
        "cli.load_s": timed("cli.load"),
        "gridproof.normalize_s": timed("gridproof.normalize"),
        "gosper.antidifference_s": timed("gosper.antidifference"),
        "gosper.calls": counted("gosper.antidifference"),
        "telescope.assemble_s": timed("telescope.assemble"),
        "telescope.assemble_calls": counted("telescope.assemble"),
        "telescope.creative_s": timed("telescope.creative"),
        "linalg.nullspace_s": timed("linalg.nullspace"),
        "linalg.nullspace_calls": counted("linalg.nullspace"),
        "telescope.verify_s": timed("telescope.verify"),
        "polys.gcd_s": timed("polys.gcd"),
        "gridproof.leading_coeff_s": timed("gridproof.leading_coeff"),
        "gridproof.initial_checks_s": timed("gridproof.initial_checks"),
    }
    shapes = [s[6] for s in of("telescope.assemble") if s[6] and "terms" in s[6]]
    largest = max(shapes, key=lambda a: a["terms"], default=None)
    for key in ("rows", "cols", "terms"):
        m[f"telescope.system_{key}"] = (
            NOT_MEASURED if not tr.measured("telescope.assemble")
            else largest[key] if largest else 0)

    grids = [s for s in of("gridproof.grid") if "tested" in s[6]]
    grid_s = dur(grids)
    tested = sum(s[6]["tested"] for s in grids)
    if tr.measured("gridproof.grid"):
        m["gridproof.grid_s.J1"] = dur(s for s in grids if s[6]["J"] == 1)
        m["gridproof.grid_s.J2"] = dur(s for s in grids if s[6]["J"] == 2)
        passed = [s[6] for s in grids if s[6]["passed"]]
        rejected = [s[6] for s in grids if s[6]["J"] == 1 and not s[6]["passed"]]
        # per proof: the unit may hold several proofs of one identity
        m["gridproof.grid_points"] = _mean(a["tested"] for a in passed)
        m["gridproof.grid_total"] = _mean(a["total"] for a in passed)
        m["gridproof.ms_per_point"] = 1000 * grid_s / tested if tested else 0
        m["gridproof.witness_pos.J1"] = _mean(a["tested"] for a in rejected)
        m["gridproof.cores_busy"] = (
            sum(s[6]["cpu_s"] for s in grids) / grid_s if grid_s else 0)
    else:
        for key in ("grid_s.J1", "grid_s.J2", "grid_points", "grid_total",
                    "ms_per_point", "witness_pos.J1", "cores_busy"):
            m[f"gridproof.{key}"] = NOT_MEASURED
    if tr.measured("gridproof.rank") and tr.measured("gridproof.grid"):
        rank_s = dur(of("gridproof.rank"))
        m["gridproof.rank_s"] = rank_s
        m["gridproof.subst_s"] = grid_s - rank_s
    else:
        m["gridproof.rank_s"] = m["gridproof.subst_s"] = NOT_MEASURED
    # Grid workers are the only child processes of a traced run.
    m["gridproof.worker_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        if any(s[6].get("worker_cpu_s") for s in grids) else 0)
    proof_ids = {s[0] for s in of("proof")}
    stages = dur(s for s in spans if s[4] in proof_ids)
    m["trace.overhead_s"] = traced_wall - plain_wall
    m["trace.stage_coverage"] = stages / traced_wall if traced_wall else 0
    m["trace.spans"] = len(spans)
    m["trace.missing"] = len(tr.missing)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


def _run(args):
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-{args.seed}"
    ledger = Ledger(OUT / f"records-{args.workload}-{args.seed}.jsonl")
    first = generate(args.workload, args.seed, 0, ROOT, work)
    for case in first:
        if not (ROOT / case.path).is_file():
            raise BenchError(f"missing input {case.path}")
    print(f"workload {args.workload}  seed {args.seed}  certainty "
          f"{workload.certainty}  jobs {workload.jobs}  trace {args.trace}")

    if args.trace:
        tr = tracing.Tracer()
        wraps = tracing.STAGE_WRAPS
        if workload.jobs == 1:
            wraps += (tracing.RANK_WRAP,)
        tr.install(wraps)
        try:
            traced_wall, _, rows = run_unit(cli, first, ledger, tr)
        finally:
            tr.uninstall()
        print(f"traced unit: {traced_wall:.3f}s")
        _print_rows(rows)
        plain_wall, _, rows = run_unit(cli, first, ledger)
        print(f"untraced unit: {plain_wall:.3f}s")
        _print_rows(rows)
        metrics = layer_metrics(tr, traced_wall, plain_wall)
        tr.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl",
                {"workload": args.workload, "seed": args.seed,
                 "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall})
        if tr.missing:
            print(f"not traced (missing from the program): "
                  f"{', '.join(tr.missing)}")
        units = PER_LAYER
    else:
        setup_s = measure_setup([c.path for c in first])
        walls, cpus = [], []
        start = time.perf_counter()
        unit = 0
        while unit == 0 or time.perf_counter() - start < args.seconds:
            cases = first if unit == 0 else \
                generate(args.workload, args.seed, unit, ROOT, work)
            with hostspeed.Sampler() as sampler:
                wall, cpu, rows = run_unit(cli, cases, ledger)
            speed = sampler.speed()
            print(f"unit {unit}: {wall:.3f}s wall, {cpu:.3f}s cpu, host speed "
                  f"{speed:.3f} over {len(sampler.speeds)} samples")
            _print_rows(rows)
            if len(sampler.speeds) < wall / hostspeed.INTERVAL_S / 2:
                ledger.problems.append(
                    f"unit {unit}: {len(sampler.speeds)} host-speed samples "
                    f"in {wall:.1f}s; SIGALRM was blocked or taken over")
            walls.append(wall * speed)
            cpus.append(cpu * speed)
            unit += 1
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    ledger.save()

    for line in ledger.failures:
        print(f"FAILED  {line}")
    for line in ledger.problems:
        print(f"INVALID {line}")
    for name, unit_name in units.items():
        print(f"  {name:28s} {metrics[name]:.6g} {unit_name}")
    print(f"  {'failed_frac':28s} {ledger.failed / ledger.attempted:.6g} "
          f"fraction ({ledger.failed} of {ledger.attempted} proofs)")
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_name}
                    for name, unit_name in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
