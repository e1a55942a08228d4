import json
import os
from pathlib import Path

import pytest

from hyperproof.cli import (
    EXIT_INCONCLUSIVE, EXIT_OK, EXIT_REFUTED, EXIT_USAGE, IdentityFileError,
    load_identity, main,
)
from hyperproof.terms import parse_sum, parse_term, render

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def test_load_identity_fields():
    ident = load_identity(CORPUS / "chu-vandermonde.txt")
    assert ident.name == "chu-vandermonde"
    assert ident.params == ("a",)
    assert ident.sum_var == "k" and ident.rec_var == "n"
    F, rhs_terms, lower, upper = ident.parsed()
    assert len(rhs_terms) == 1
    assert lower.eval({"n": 4}) == 0 and upper.eval({"n": 4}) == 4


def test_load_identity_missing_field(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("name: x\nsummand: binomial(n,k)\n")
    with pytest.raises(IdentityFileError):
        load_identity(bad)


def test_load_identity_parse_error_mentions_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("name: x\nsummand: binomial(n,)\nrhs: 0\nsum_var: k\n"
                   "rec_var: n\nlower: 0\nupper: n\n")
    with pytest.raises(IdentityFileError) as err:
        load_identity(bad)
    assert "bad.txt" in str(err.value)


def test_corpus_terms_roundtrip():
    # parse(render(f)) == f for every bundled summand and right side
    for path in sorted(CORPUS.glob("*.txt")) + sorted((CORPUS / "extra").glob("*.txt")):
        ident = load_identity(path)
        for text in (ident.summand, ident.rhs):
            if text.strip() == "0":
                continue
            for t in parse_sum(text, ident.symbols):
                assert parse_term(render(t), ident.symbols) == t, path


def test_cmd_prove_exit_and_record(tmp_path):
    out = tmp_path / "rec.json"
    code = main(["prove", str(CORPUS / "binomial-2n.txt"),
                 "--json", str(out)])
    assert code == EXIT_OK
    rec = json.loads(out.read_text())
    assert rec["verdict"] == "rigorous"
    assert rec["name"] == "binomial-2n"
    assert rec["certificate"] is not None


def test_cmd_prove_refuted_exit(tmp_path):
    code = main(["prove", str(CORPUS / "extra" / "binomial-2n-plus-one.txt")])
    assert code == EXIT_REFUTED


def test_cmd_prove_missing_file():
    assert main(["prove", "/nonexistent/x.txt"]) == EXIT_USAGE


def test_usage_error_exit_code():
    assert main(["prove"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


def test_cmd_corpus_empty_dir(tmp_path, capsys):
    assert main(["corpus", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "identity" in out


def test_cmd_corpus_small(tmp_path, capsys):
    for name in ("binomial-2n.txt", "central-binomial.txt"):
        (tmp_path / name).write_text((CORPUS / name).read_text())
    out_json = tmp_path / "records.jsonl"
    code = main(["corpus", str(tmp_path), "--json", str(out_json)])
    assert code == EXIT_OK
    lines = out_json.read_text().splitlines()
    assert len(lines) == 2
    names = [json.loads(l)["name"] for l in lines]
    assert names == ["binomial-2n", "central-binomial"]


def test_cmd_corpus_with_refuted(tmp_path):
    for name in ("binomial-2n.txt",):
        (tmp_path / name).write_text((CORPUS / name).read_text())
    (tmp_path / "false.txt").write_text(
        (CORPUS / "extra" / "binomial-2n-plus-one.txt").read_text())
    assert main(["corpus", str(tmp_path)]) == EXIT_REFUTED


def test_cmd_corpus_survives_internal_error(tmp_path, monkeypatch, capsys):
    import hyperproof.cli as cli
    for name in ("binomial-2n.txt", "central-binomial.txt"):
        (tmp_path / name).write_text((CORPUS / name).read_text())
    real = cli.run_prove

    def failing(ident, *args):
        if ident.name == "binomial-2n":
            raise ArithmeticError("inexact fraction-free step")
        return real(ident, *args)

    monkeypatch.setattr(cli, "run_prove", failing)
    out_json = tmp_path / "records.jsonl"
    code = main(["corpus", str(tmp_path), "--json", str(out_json)])
    assert code == EXIT_USAGE
    lines = out_json.read_text().splitlines()
    assert [json.loads(l)["name"] for l in lines] == ["central-binomial"]
    captured = capsys.readouterr()
    assert "binomial-2n.txt" in captured.err
    assert "inexact fraction-free step" in captured.err
    assert any(l.split()[:2] == ["binomial-2n", "error"]
               for l in captured.out.splitlines())


def test_cmd_prove_reports_internal_error(tmp_path, monkeypatch, capsys):
    import hyperproof.cli as cli

    def failing(ident, *args):
        raise RuntimeError("telescoper failed exact re-verification")

    monkeypatch.setattr(cli, "run_prove", failing)
    path = str(CORPUS / "binomial-2n.txt")
    out_json = tmp_path / "record.jsonl"
    assert main(["prove", path, "--json", str(out_json)]) == EXIT_USAGE
    assert not out_json.exists()
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}: RuntimeError: telescoper failed "
                            "exact re-verification\n")
    assert captured.out == ""


def test_cmd_verify_valid_and_invalid():
    path = str(CORPUS / "binomial-2n.txt")
    assert main(["verify", path, "--recurrence=-2,1",
                 "--certificate=-k/(n+1-k)"]) == EXIT_OK
    assert main(["verify", path, "--recurrence=-2,1",
                 "--certificate=-k/(n+2-k)"]) == EXIT_REFUTED


def test_prove_deterministic_bytes(tmp_path):
    outs = []
    for i in (1, 2):
        out = tmp_path / f"r{i}.json"
        code = main(["prove", str(CORPUS / "chu-vandermonde.txt"),
                     "--certainty", "1/2", "--seed", "5",
                     "--json", str(out)])
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_jobs_env_default(monkeypatch):
    from hyperproof.cli import _default_jobs
    monkeypatch.setenv("HYPERPROOF_JOBS", "3")
    assert _default_jobs() == 3
    monkeypatch.setenv("HYPERPROOF_JOBS", "junk")
    assert _default_jobs() == 1
