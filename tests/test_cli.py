import json
import signal
from pathlib import Path

import pytest

from hyperproof import cli
from hyperproof.cli import (
    EXIT_INCONCLUSIVE, EXIT_OK, EXIT_REFUTED, EXIT_USAGE, IdentityFileError,
    load_identity, main, run_prove,
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


def test_identity_file_is_parsed_once(monkeypatch):
    # load_identity parses to validate and keeps the result; a proof and a
    # verification reuse it
    calls = []
    real = cli.parse_term

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "parse_term", counted)
    ident = load_identity(CORPUS / "binomial-2n.txt")
    assert len(calls) == 1
    assert run_prove(ident, 1, 0, 6, 1).verdict == "rigorous"
    assert len(calls) == 1
    assert main(["verify", str(CORPUS / "binomial-2n.txt"), "--recurrence=-2,1",
                 "--certificate=-k/(n+1-k)"]) == EXIT_OK
    assert len(calls) == 2


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


@pytest.mark.parametrize("summand,rhs,upper,params", [
    ("binomial(n,k)*binomial(2*n,k/2)", "0", "n", ""),
    ("binomial(n,k)*binomial(2*n,k/2)*rf(a,k)", "0", "n", "a"),
    ("binomial(n,k/2)", "2^n", "2*n", ""),
    ("binomial(n,k+1/2)/k!", "1", "n", ""),
])
def test_cmd_prove_non_hypergeometric_inconclusive(tmp_path, summand, rhs,
                                                   upper, params):
    # a shift ratio that is not rational, or a sum term that cannot be
    # evaluated, gives an inconclusive verdict with the error text
    path = tmp_path / "id.txt"
    path.write_text(f"name: x\nsummand: {summand}\nrhs: {rhs}\nsum_var: k\n"
                    f"rec_var: n\nlower: 0\nupper: {upper}\nparams: {params}\n")
    out_json = tmp_path / "record.jsonl"
    assert main(["prove", str(path), "--json", str(out_json)]) == \
        EXIT_INCONCLUSIVE
    rec = json.loads(out_json.read_text())
    assert rec["verdict"] == "inconclusive"
    assert "integer" in rec["message"]


def test_cmd_verify_valid_and_invalid():
    path = str(CORPUS / "binomial-2n.txt")
    assert main(["verify", path, "--recurrence=-2,1",
                 "--certificate=-k/(n+1-k)"]) == EXIT_OK
    assert main(["verify", path, "--recurrence=-2,1",
                 "--certificate=-k/(n+2-k)"]) == EXIT_REFUTED


@pytest.mark.parametrize("recurrence", ["0", "0,0", "0*n,0"])
def test_cmd_verify_rejects_a_zero_recurrence(capsys, recurrence):
    # the zero recurrence with the zero certificate satisfies the
    # certificate identity for every summand
    assert main(["verify", str(CORPUS / "binomial-2n.txt"),
                 f"--recurrence={recurrence}", "--certificate=0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no nonzero coefficient" in err


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


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_rejected(capsys, jobs):
    assert main(["prove", str(CORPUS / "binomial-2n.txt"),
                 f"--jobs={jobs}"]) == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["-1", "two", "1.5"])
def test_negative_max_order_is_rejected(capsys, order):
    assert main(["prove", str(CORPUS / "binomial-2n.txt"),
                 f"--max-order={order}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--max-order" in err and "Traceback" not in err


def _identity_file(tmp_path, name="id", **fields):
    # the fields of corpus/binomial-2n.txt, with the given ones replaced
    base = {"name": name, "summand": "binomial(n,k)", "rhs": "2^n",
            "sum_var": "k", "rec_var": "n", "lower": "0", "upper": "n",
            "params": ""}
    base.update(fields)
    path = tmp_path / f"{name}.txt"
    path.write_text("".join(f"{k}: {v}\n" for k, v in base.items()))
    return path


@pytest.mark.parametrize("rhs", [None, "2^n*binomial(n,k)"],
                         ids=["3^n", "2^n"])
def test_right_side_in_the_summation_variable_is_not_proved(
        tmp_path, capsys, rhs):
    # sum C(n,k) 2^k is 3^n, not 2^k 2^n, and sum C(n,k) is 2^n: dividing
    # the summand by a right side in k would prove a different statement
    path = CORPUS / "extra" / "rhs-depends-on-k.txt" if rhs is None \
        else _identity_file(tmp_path, rhs=rhs)
    out = tmp_path / "rec.json"
    assert main(["prove", str(path), "--json", str(out)]) == EXIT_INCONCLUSIVE
    assert "right side depends on the summation variable k" in \
        capsys.readouterr().out
    assert json.loads(out.read_text())["verdict"] == "inconclusive"


CERT = "--certificate=-k/(n+1-k)"


@pytest.mark.parametrize("fields,flags,reason", [
    # limits that were read as 1, and one that is no limit of a sum over k
    pytest.param({"upper": "2^n"}, None, "limit '2^n'", id="power-limit"),
    pytest.param({"upper": "n!"}, None, "limit 'n!'", id="factorial-limit"),
    pytest.param({"upper": "n+k"}, None, "limit 'n+k' depends on k",
                 id="sum-var-limit"),
    # recurrence coefficients whose power or factorial was dropped
    pytest.param({}, ["--recurrence=-2*2^n,1", CERT], "exponent",
                 id="power-coefficient"),
    pytest.param({}, ["--recurrence=-2*n!,1", CERT], "factorial",
                 id="factorial-coefficient"),
    pytest.param({"summand": "binomial(m,k)"}, None, "undeclared symbol 'm'",
                 id="undeclared-summand"),
    pytest.param({"rhs": "2^m"}, None, "undeclared symbol 'm'",
                 id="undeclared-rhs"),
    pytest.param({"upper": "m"}, None, "undeclared symbol 'm'",
                 id="undeclared-limit"),
    pytest.param({}, ["--recurrence=m,1", CERT], "undeclared symbol 'm'",
                 id="undeclared-recurrence"),
    pytest.param({"summand": "binomial(n,k)*(n-n)^(-1)"}, None,
                 "division by zero", id="zero-power-summand"),
    pytest.param({"upper": "(n-n)^(-1)"}, None, "division by zero",
                 id="zero-power-limit"),
    # a sum of powers inside a product: the field, its text and the rule
    pytest.param({"summand": "binomial(n,k)*(2^k-1)"}, None,
                 "summand 'binomial(n,k)*(2^k-1)': a sum inside a product "
                 "must be a rational function of the symbols",
                 id="sum-factor-summand"),
    pytest.param({"rhs": "(2^(n+1)-1)/(n+1)"}, None,
                 "rhs '(2^(n+1)-1)/(n+1)': a sum inside a product",
                 id="sum-factor-rhs"),
    pytest.param({}, ["--recurrence=-2,1", "--certificate=0^(-1)"],
                 "division by zero", id="zero-power-certificate"),
    pytest.param({}, ["--recurrence=-2,1", "--certificate="],
                 "unexpected end of input (at position 0)",
                 id="empty-certificate"),
    pytest.param({}, ["--recurrence=-2,1", "--certificate=k+"],
                 "unexpected end of input (at position 2)",
                 id="truncated-certificate"),
    pytest.param({"summand": "binomial(n,k)*binomial(a,k)",
                  "rhs": "binomial(a+n,a)", "params": "a a"}, None,
                 "params must not repeat a name", id="repeated-param"),
    # a number or an expression where a variable name belongs
    pytest.param({"sum_var": "2", "summand": "binomial(n,2)"}, None,
                 "'2' is not a variable name", id="number-sum-var"),
    pytest.param({"rec_var": "n+1"}, None, "'n+1' is not a variable name",
                 id="expression-rec-var"),
    pytest.param({"params": "a 3"}, None, "'3' is not a variable name",
                 id="number-param"),
])
def test_malformed_input_gives_a_one_line_error(tmp_path, capsys, fields,
                                                flags, reason):
    path = str(_identity_file(tmp_path, **fields))
    argv = ["prove", path] if flags is None else ["verify", path] + flags
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err
    assert "('" not in err  # no parser tuple
    if flags is None:
        assert path in err


def test_corpus_goes_on_past_an_undeclared_symbol(tmp_path, capsys):
    (tmp_path / "binomial-2n.txt").write_text(
        (CORPUS / "binomial-2n.txt").read_text())
    _identity_file(tmp_path, name="bad", rhs="2^m")
    out_json = tmp_path / "records.jsonl"
    assert main(["corpus", str(tmp_path), "--json", str(out_json)]) == \
        EXIT_USAGE
    records = [json.loads(l) for l in out_json.read_text().splitlines()]
    assert [(r["name"], r["verdict"]) for r in records] == [
        ("binomial-2n", "rigorous")]
    rows = [l.split()[:2] for l in capsys.readouterr().out.splitlines()]
    assert ["bad", "parse-error"] in rows


@pytest.mark.parametrize("fields,expected", [
    # a summand free of n: the normalized ratio is identically 1
    ({"summand": "binomial(4,k)", "rhs": "16", "upper": "4"},
     {"method": "constant-ratio", "order": 0, "recurrence": None,
      "certificate": None, "initial_checks": [["base", 0, True]]}),
    # a zero right side proved by a direct Gosper antidifference
    ({"summand": "(n-2*k)*binomial(n,k)", "rhs": "0"},
     {"method": "gosper-wz", "order": 0, "recurrence": ["1"],
      "certificate": "(-1/2*k)/(k - 1/2*n)",
      "initial_checks": [["sum", 0, True]]}),
], ids=["constant-ratio", "gosper-wz-zero-rhs"])
def test_constant_ratio_and_zero_rhs_gosper_routes(tmp_path, fields,
                                                   expected):
    out = tmp_path / "rec.json"
    path = _identity_file(tmp_path, **fields)
    assert main(["prove", str(path), "--json", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text())
    assert rec["verdict"] == "rigorous"
    assert {key: rec[key] for key in expected} == expected


def test_wide_declared_window_is_summed_within_20_s(tmp_path):
    # the small cases sum binomial(n, k) up to k = 10000*n, where each
    # binomial(1, k) with k >= 2 has a zero factor: the falling product
    # stops there instead of multiplying k factors
    path = _identity_file(tmp_path, upper="10000*n")
    out = tmp_path / "rec.json"

    def expire(signum, frame):
        raise TimeoutError("prove took more than 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        code = main(["prove", str(path), "--json", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == EXIT_OK
    assert json.loads(out.read_text())["verdict"] == "rigorous"
