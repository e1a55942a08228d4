"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import NOT_PROVED, PROVED, Case  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
cli = run.import_cli()


def _generated(seed, unit, root):
    cases = workloads.generate("symbolic", seed, unit, root, root / "work")
    return [(c.expected, c.seed, c.path if c.path.startswith("corpus/")
             else (root / c.path).read_bytes()) for c in cases]


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _generated(7, 0, a) == _generated(7, 0, b)
    assert _generated(7, 0, a) != _generated(8, 0, c)
    for name in ("mrr-sampled", "mrr-rigorous"):
        # fixed input and the command line's default prove seed in unit 0
        for unit in range(3):
            cases = workloads.generate(name, 7, unit, a, a / "w")
            assert cases == workloads.generate(name, 8, unit, b, b / "w")
            assert [(c.path, c.seed, c.jobs) for c in cases] == \
                [("corpus/mrr.txt", unit, workloads.WORKLOADS[name].jobs)]


def test_units_do_not_repeat_specializations(tmp_path):
    names = [set(Path(c.path).name.split("-", 1)[1]
                 for c in workloads.generate("symbolic", 3, u, tmp_path,
                                             tmp_path / "w")
                 if Path(c.path).name.startswith(f"u{u}-mrr-"))
             for u in range(4)]
    assert all(len(n) == workloads.MRR_SPECS for n in names)
    assert len(set().union(*names)) == 4 * workloads.MRR_SPECS


def test_false_identities_are_expected_unproved(tmp_path):
    cases = workloads.generate("symbolic", 0, 0, tmp_path, tmp_path / "w")
    unproved = [c for c in cases if c.expected == NOT_PROVED]
    assert len(unproved) == 2
    assert sum(c.expected == ("refuted",) for c in cases) == 1
    assert all(c.expected == PROVED for c in cases
               if c not in unproved and c.expected != ("refuted",))


def test_mrr_specialization_denominators_avoid_poles():
    """No denominator factor of any specialization in the pool can reach a
    nonpositive integer for any n >= 0, so every term of the sum is defined."""
    for a, b in workloads.MRR_AB:
        assert a % 7 and b % 11
        summand = workloads.mrr_summand(Fraction(a, 7), Fraction(b, 11))
        term = cli.parse_term(summand, ("k", "n"))
        dens = [base for base, _, e in term.risings if e < 0]
        assert len(dens) == 4
        for base in dens:
            n_coeff = Fraction(base.var_coeff("n"))
            const = Fraction(base.const)
            assert n_coeff.denominator == 1 and const.denominator != 1
        assert [f for f, e in term.factorials if e < 0] == \
            [cli.LinearForm({"k": 1}, 0)]


def test_metric_names_match_the_declaration():
    decl = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in decl["workloads"]]
    names += [m["name"] for m in decl["end_to_end"] + decl["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in decl["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in decl["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in decl["per_layer"]} == run.PER_LAYER


def _smoke_cases(tmp_path):
    false = tmp_path / "gauss-window-cut.txt"
    false.write_text(workloads.FALSE_IDENTITIES["gauss-window-cut"])
    return [
        Case("corpus/binomial-2n.txt", Fraction(1), 0, 1, PROVED),
        Case("corpus/chu-vandermonde.txt", Fraction(1), 0, 1, PROVED),
        Case("corpus/extra/binomial-2n-plus-one.txt", Fraction(1), 0, 1,
             ("refuted",)),
        Case(str(false), Fraction(1), 0, 1, NOT_PROVED),
    ]


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_end_to_end(tmp_path, monkeypatch, capsys, trace):
    cases = _smoke_cases(tmp_path)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "generate", lambda *args: cases)
    assert run.main(["--workload", "symbolic", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # gauss-window-cut is false but proved by the seed program: one failure
    # per attempt of it.
    assert result["attempted"] == len(cases) * (1 + trace)
    assert result["failed"] == 1 + trace
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["gosper.calls"] >= 1
        assert values["trace.missing"] == 0
        assert values["gridproof.grid_points"] == 0
        assert 0.5 < values["trace.stage_coverage"] <= 1
        assert (tmp_path / "out" / "trace-symbolic-1.jsonl").is_file()
    else:
        assert all(v > 0 for v in values.values())


def test_records_match_the_command_line(tmp_path):
    """The benchmark proves through the same calls as `hyperproof prove`, so
    its record bytes equal the ones the command line writes."""
    cases = _smoke_cases(tmp_path) + [
        Case("corpus/mrr.txt", Fraction(1, 100), 5, 1, ("semi-rigorous",))]
    ledger = run.Ledger(tmp_path / "records.jsonl")
    _, _, rows = run.run_unit(cli, cases, ledger)
    for case, (name, report, _, error) in zip(cases, rows):
        assert error is None
        out = tmp_path / f"{name}.json"
        cli.main(["prove", str(run.ROOT / case.path), "--certainty",
                  str(case.certainty), "--seed", str(case.seed), "--jobs", "1",
                  "--json", str(out)])
        assert ledger.seen[(name, case.seed)] == out.read_text()
    assert rows[-1][1].grid_tested == 1606 and rows[-1][1].grid_total == 160600


def test_changed_record_bytes_count_as_failures(tmp_path):
    case = Case("corpus/binomial-2n.txt", Fraction(1), 0, 1, PROVED)
    path = tmp_path / "records.jsonl"
    first = run.Ledger(path)
    run.run_unit(cli, [case], first)
    first.save()
    path.write_text(path.read_text().replace('"verdict":"rigorous"',
                                             '"verdict":"semi-rigorous"'))
    second = run.Ledger(path)
    run.run_unit(cli, [case], second)
    assert second.failed == 1 and second.attempted == 1


def test_host_speed_sampler_samples_and_restores():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    assert len(sampler.speeds) >= 4 and sampler.speed() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with hostspeed.Sampler() as sampler:
        pass
    assert len(sampler.speeds) == 1


def test_tracer_reports_missing_names():
    tr = tracing.Tracer()
    tr.install((("gridproof", "no_such_stage", "gridproof.grid"),))
    assert tr.missing == ["gridproof.no_such_stage"] and not tr.wrapped
    assert not tr.measured("gridproof.grid")
    metrics = run.layer_metrics(tr, 1.0, 1.0)
    assert metrics["gridproof.grid_s.J1"] == run.NOT_MEASURED
    assert metrics["trace.missing"] == 1


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ the benchmark
    exits non-zero and prints no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
