"""Acceptance criteria, one test per criterion, zero tolerance everywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Timing limits are wall-clock ceilings; all arithmetic checks are
exact equalities of rationals or polynomials.
"""

import json
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from hyperproof.cli import (
    EXIT_INCONCLUSIVE, EXIT_OK, EXIT_REFUTED, load_identity, main, run_prove,
)
from hyperproof.gosper import gosper_antidifference
from hyperproof.gridproof import _rank_deficiency_test, normalize_and_delta
from hyperproof.linalg import PolyMatrix, det_symbolic, permanent_degree_bound
from hyperproof.polys import MultiPoly, RationalFunction
from hyperproof.telescope import (
    Certificate, Recurrence, creative_telescope, verify_certificate,
)
from hyperproof.terms import eval_summand, parse_term, shift_quotient

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def _passline(name):
    print(f"\nACCEPTANCE {name}: PASS")


def _prove_file(name, certainty=Fraction(1), seed=0):
    ident = load_identity(CORPUS / name)
    start = time.monotonic()
    report = run_prove(ident, certainty, seed, 6, 1)
    return report, time.monotonic() - start


def test_chu_vandermonde_rigorous():
    # certainty 1 gives a rigorous verdict at order <= 2, well under 60 s
    report, elapsed = _prove_file("chu-vandermonde.txt")
    assert report.verdict == "rigorous"
    assert report.order is not None and report.order <= 2
    assert elapsed < 60
    _passline("chu-vandermonde rigorous at certainty 1")


def test_dixon_rigorous():
    report, elapsed = _prove_file("dixon.txt")
    assert report.verdict == "rigorous"
    assert elapsed < 600
    _passline("dixon rigorous at certainty 1")


def test_mrr_specialized_rigorous():
    report, elapsed = _prove_file("mrr-specialized.txt")
    assert report.verdict == "rigorous"
    assert elapsed < 120
    _passline("mrr specialized (x=1, z=1/2) rigorous")


def test_mrr_symbolic_semi_rigorous():
    # the fully symbolic two-parameter identity at certainty 1/10; the
    # exhaustive symbolic run is intentionally not reproduced here
    report, elapsed = _prove_file("mrr.txt", certainty=Fraction(1, 10))
    assert report.verdict == "semi-rigorous"
    assert report.grid_total > 0
    assert report.grid_tested * 10 >= report.grid_total
    assert all(ok for _, _, ok in report.initial_checks)
    assert elapsed < 1800
    _passline("mrr fully symbolic semi-rigorous at certainty 1/10")


def test_known_recurrences_with_partial_sum_oracles():
    # sum C(n,k): (a0, a1) proportional to (-2, 1)
    f = parse_term("binomial(n,k)", ("k", "n"))
    rec, cert, _ = creative_telescope(f)
    assert [c.as_constant() for c in rec.coefficients] == [-2, 1]
    A = []
    for nv in range(22):
        A.append(sum(Fraction(eval_summand(f, {"n": nv, "k": kv}).as_constant())
                     for kv in range(nv + 1)))
    assert A == [Fraction(2 ** nv) for nv in range(22)]
    for nv in range(21):
        assert sum(Fraction(c.eval({"n": nv})) * A[nv + j]
                   for j, c in enumerate(rec.coefficients)) == 0
    # sum C(n,k)^2: (a0, a1) proportional to (-2(2n+1), n+1)
    f2 = parse_term("binomial(n,k)^2", ("k", "n"))
    rec2, _, _ = creative_telescope(f2)
    nvar = MultiPoly.variable(("n",), "n")
    one = MultiPoly.constant(("n",), 1)
    assert rec2.coefficients[1] == nvar + one
    assert rec2.coefficients[0] == (nvar.scale(2) + one).scale(-2)
    A2 = []
    for nv in range(22):
        A2.append(sum(Fraction(eval_summand(f2, {"n": nv, "k": kv}).as_constant())
                      for kv in range(nv + 1)))
    assert A2 == [Fraction(comb(2 * nv, nv)) for nv in range(22)]
    for nv in range(21):
        assert sum(Fraction(c.eval({"n": nv})) * A2[nv + j]
                   for j, c in enumerate(rec2.coefficients)) == 0
    _passline("known recurrences with exact partial-sum oracles, n = 0..20")


def _certified_triples():
    """(term, recurrence, certificate) from proofs that emit certificates."""
    triples = []
    for text, syms in (("binomial(n,k)", ("k", "n")),
                       ("binomial(n,k)^2", ("k", "n")),
                       ("binomial(n,k)*binomial(a,k)", ("k", "n", "a"))):
        f = parse_term(text, syms)
        rec, cert, _ = creative_telescope(f)
        triples.append((f, rec, cert))
    # WZ pair for the normalized one-parameter identity
    ident = load_identity(CORPUS / "chu-vandermonde.txt")
    F, rhs_terms, lower, upper = ident.parsed()
    nid = normalize_and_delta(F, rhs_terms, ident.params, "k", "n",
                              lower, upper)
    cert_g = gosper_antidifference(nid.ftil, "k")
    mv = ("n", "a")
    rec_wz = Recurrence(1, (MultiPoly.constant(mv, -1), MultiPoly.constant(mv, 1)))
    one = RationalFunction.constant(F.symbols, 1)
    R = cert_g.ratio * (nid.n_ratio - one)
    triples.append((nid.fhat, rec_wz, Certificate(R)))
    return triples


def test_certificate_suite_mutations_fail():
    triples = _certified_triples()
    for f, rec, cert in triples:
        assert verify_certificate(f, rec, cert)
    rng = random.Random(2024)
    rejected = 0
    while rejected < 100:
        f, rec, cert = triples[rng.randrange(len(triples))]
        vars = cert.ratio.vars
        kind = rng.randrange(3)
        if kind == 0:
            # shift the certificate in k by a small nonzero amount
            delta = rng.choice([-2, -1, 1, 2])
            bad = cert.ratio.shift("k", delta)
        elif kind == 1:
            # scale by a rational != 1
            c = Fraction(rng.randint(2, 9), rng.randint(1, 5))
            bad = cert.ratio * RationalFunction.constant(vars, c)
        else:
            # add a small nonzero rational constant
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                         rng.randint(1, 4))
            bad = cert.ratio + RationalFunction.constant(vars, c)
        if bad == cert.ratio:
            continue
        assert not verify_certificate(f, rec, Certificate(bad))
        rejected += 1
    _passline("certificate suite: 100 mutated certificates all rejected")


def test_degree_bound_soundness():
    rng = random.Random(7)
    for _ in range(100):
        entries = [[MultiPoly.from_terms(
            ("x", "y"), [((rng.randint(0, 2), rng.randint(0, 2)),
                          rng.randint(-5, 5)) for _ in range(3)])
            for _ in range(3)] for _ in range(3)]
        m = PolyMatrix(entries)
        d = det_symbolic(m)
        for v in ("x", "y"):
            r = permanent_degree_bound(m, v)
            if r.structurally_zero:
                assert d.is_zero()
            else:
                assert r.degree >= d.degree(v)
    _passline("permanent degree bound dominates det degree on 100 matrices")


def test_grid_kernel_soundness():
    rng = random.Random(12)
    vars = ("n", "a")

    def rand_poly():
        return MultiPoly.from_terms(
            vars, [((rng.randint(0, 1), rng.randint(0, 1)),
                    rng.randint(-3, 3)) for _ in range(2)])

    singular = nonsingular = 0
    while singular < 50 or nonsingular < 50:
        rows = [[rand_poly() for _ in range(3)] for _ in range(2)]
        if rng.random() < 0.5 and nonsingular < 50:
            m = PolyMatrix(rows + [[rand_poly() for _ in range(3)]])
            if det_symbolic(m).is_zero():
                continue
            res = _rank_deficiency_test(m, Fraction(1), seed=0)
            assert not res.passed
            nonsingular += 1
        elif singular < 50:
            p, q = rand_poly(), rand_poly()
            third = [p * rows[0][j] + q * rows[1][j] for j in range(3)]
            m = PolyMatrix(rows + [third])
            res = _rank_deficiency_test(m, Fraction(1), seed=0)
            assert res.passed
            singular += 1
    _passline("grid kernel: exhaustive test passes exactly the singular 50")


def test_refutation_at_n0():
    code = main(["prove", str(CORPUS / "extra" / "binomial-2n-plus-one.txt")])
    assert code == EXIT_REFUTED
    ident = load_identity(CORPUS / "extra" / "binomial-2n-plus-one.txt")
    report = run_prove(ident, Fraction(1), 0, 6, 1)
    assert report.verdict == "refuted"
    assert report.initial_checks[0][1] == 0
    assert report.initial_checks[0][2] is False
    _passline("false corpus entry refuted at the n=0 exact check")


@pytest.mark.parametrize("name,n_fail", [("half-row-binomial-2n.txt", 2),
                                         ("gauss-window-cut.txt", 1),
                                         ("lower-only-window.txt", 0),
                                         ("chu-vandermonde-short-window.txt", 0),
                                         ("vandermonde-lower-cut.txt", 0)])
def test_window_cut_false_identities_refuted(name, n_fail):
    # the declared window cuts the summand's support, so the termination
    # guard sends each to the exact small-n comparison, which refutes it
    path = CORPUS / "extra" / name
    assert main(["prove", str(path)]) == EXIT_REFUTED
    report = run_prove(load_identity(path), Fraction(1), 0, 6, 1)
    assert report.verdict == "refuted"
    assert tuple(report.initial_checks[-1]) == ("identity", n_fail, False)
    _passline(f"window-cut false identity {name} refuted at n={n_fail}")


def test_fixed_window_false_identity_not_proved():
    # sum_{k=0}^{4} C(n,k) C(a,k) = C(a+n,n) holds for n <= 4 and fails from
    # n = 5: the small-n comparison agrees, so only the termination guard
    # keeps it from being proved
    path = CORPUS / "extra" / "chu-vandermonde-fixed-window.txt"
    assert main(["prove", str(path)]) == EXIT_INCONCLUSIVE
    report = run_prove(load_identity(path), Fraction(1), 0, 6, 1)
    assert report.verdict == "inconclusive"
    assert "not forced to vanish above the upper limit" in report.message
    assert [tuple(c) for c in report.initial_checks] == [
        ("identity", nv, True) for nv in range(5)]
    _passline("fixed-window false identity not proved")


def test_termination_guard_inconclusive_on_empty_window(tmp_path):
    # true but outside the guard's reach: the summand is not forced to vanish
    # below the window n+1..n, so the verdict is inconclusive, never proved
    path = tmp_path / "empty-window.txt"
    path.write_text("name: empty-window\nsummand: binomial(n,k)\nrhs: 0\n"
                    "sum_var: k\nrec_var: n\nlower: n+1\nupper: n\nparams:\n")
    report = run_prove(load_identity(path), Fraction(1), 0, 6, 1)
    assert report.verdict == "inconclusive"
    assert "not forced to vanish below the lower limit" in report.message


def test_windowless_negative_row_not_proved():
    # sum over all k of binomial(4-n,k) diverges for n >= 5: no zero-forcing
    # rule bounds the support above for every n >= 0, so nothing is proved
    path = CORPUS / "extra" / "negative-upper-row.txt"
    assert main(["prove", str(path)]) == EXIT_INCONCLUSIVE
    report = run_prove(load_identity(path), Fraction(1), 0, 6, 1)
    assert report.verdict == "inconclusive"
    assert "not forced to vanish above the upper limit" in report.message
    _passline("windowless negative-row sum not proved")


def test_deterministic_reports(tmp_path):
    blobs = []
    for i in (0, 1):
        out = tmp_path / f"out{i}.jsonl"
        code = main(["corpus", str(CORPUS), "--certainty", "1/10",
                     "--seed", "13", "--json", str(out)])
        assert code == EXIT_OK
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    # records written by an earlier version of the program: a change to any
    # record field, verdict, witness or grid count shows here
    assert blobs[0] == (ROOT / "tests" / "data" /
                        "corpus-1-10-seed13.jsonl").read_bytes()
    verdicts = {json.loads(l)["verdict"] for l in blobs[0].splitlines()}
    assert verdicts <= {"rigorous", "semi-rigorous"}
    # the exhaustive grid, against records of an earlier version too
    out = tmp_path / "rigorous.jsonl"
    assert main(["corpus", str(CORPUS), "--certainty", "1", "--seed", "13",
                 "--json", str(out)]) == EXIT_OK
    rigorous = out.read_bytes()
    assert rigorous == (ROOT / "tests" / "data" /
                        "corpus-1-seed13.jsonl").read_bytes()
    assert {json.loads(l)["verdict"] for l in rigorous.splitlines()} == \
        {"rigorous"}
    _passline("byte-identical structured reports for identical flags+seed")
