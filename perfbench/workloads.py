"""Workloads of the hyperproof benchmark and the seeded input generator.

A workload is a list of proof cases per unit of work.  A case names an
identity file, the flags the proof runs with and the verdicts it may end in.
Everything a case depends on is drawn from the benchmark seed; the program
under test only ever sees identity files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Verdicts a case may end in.  A true identity must be proved; a false one
# must never be.
PROVED = ("rigorous",)
NOT_PROVED = ("refuted", "inconclusive")

BUNDLED = ("binomial-2n", "central-binomial", "chu-vandermonde", "dixon",
           "mrr-specialized")

# Per symbolic unit: how many seeded specializations of each family.
MRR_SPECS = 1
DIXON_SPECS = 1
CHU_SPECS = 1

# x = a/7 and z = b/11 with 7 not dividing a and 11 not dividing b keep every
# rising-factorial base of the mrr summand non-integer (see mrr_summand).
MRR_AB = tuple((a, b) for a in range(-6, 7) if a for b in range(1, 11))
DIXON_AB = tuple((a, b) for a in range(1, 5) for b in range(1, 5))
CHU_A = tuple(range(2, 10))


@dataclass(frozen=True)
class Case:
    path: str               # identity file, relative to the checkout root
    certainty: Fraction
    seed: int               # the prove seed (grid sample, specialization)
    jobs: int
    expected: tuple         # verdicts that count as a correct answer


@dataclass(frozen=True)
class Workload:
    certainty: Fraction
    jobs: int


# Why each workload exists, and which layer metric should move which
# end-to-end metric on it, is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    "symbolic": Workload(Fraction(1), 1),
    "mrr-sampled": Workload(Fraction(1, 10), 1),
    "mrr-rigorous": Workload(Fraction(1), 2),
}


def _affine(n_coeff: int, const: Fraction) -> str:
    """Render n_coeff*n + const in the identity-file grammar."""
    parts = []
    if n_coeff:
        parts.append("n" if n_coeff == 1 else f"{n_coeff}*n")
    if const or not parts:
        text = str(const)
        if parts and const > 0:
            text = "+" + text
        parts.append(text)
    return "".join(parts)


def mrr_summand(x: Fraction, z: Fraction) -> str:
    """The corpus mrr summand with x and z replaced by rationals."""
    half = Fraction(1, 2)
    num = [(-2, Fraction(-1)), (2, x + 2), (0, x - z + half), (1, x + 1),
           (1, z + 1)]
    den = [(0, (x + 1) / 2), (0, x / 2 + 1), (2, 2 * z + 2), (0, 2 * x - 2 * z + 1)]
    top = "*".join(f"rf({_affine(c, d)},k)" for c, d in num)
    bottom = "*".join(f"rf({_affine(c, d)},k)" for c, d in den)
    return f"{top}/({bottom}*k!)"


def _identity_text(name, summand, rhs, lower, upper, params="", notes=""):
    return (f"name: {name}\nsummand: {summand}\nrhs: {rhs}\nsum_var: k\n"
            f"rec_var: n\nlower: {lower}\nupper: {upper}\nparams: {params}\n"
            f"notes: {notes}\n")


# The two false identities whose summation window cuts the summand's support.
FALSE_IDENTITIES = {
    "half-row-binomial-2n": _identity_text(
        "half-row-binomial-2n", "binomial(2*n,k)", "3^n", "0", "n",
        notes="false: 11 vs 9 at n=2"),
    "gauss-window-cut": _identity_text(
        "gauss-window-cut", "rf(a,k)*rf(b,k)/(rf(c,k)*k!)", "1", "0", "n",
        params="a b c", notes="false: the window [0, n] cuts the 2F1 series"),
}


def _draw(pool, count, seed, unit):
    """Items unit*count .. unit*count+count-1 of a seeded permutation of
    pool, wrapping around, so units repeat nothing until the pool runs out."""
    order = list(pool)
    random.Random(f"hyperproof-bench:symbolic:{seed}:{len(pool)}").shuffle(order)
    return [order[(unit * count + i) % len(order)] for i in range(count)]


def _symbolic_files(seed: int, unit: int):
    """(file name, text, expected) for the generated part of one unit."""
    out = []
    for a, b in _draw(MRR_AB, MRR_SPECS, seed, unit):
        x, z = Fraction(a, 7), Fraction(b, 11)
        name = f"mrr-x{a}o7-z{b}o11"
        out.append((name, _identity_text(name, mrr_summand(x, z), "0", "0",
                                         "2*n+1", notes=f"mrr at x={x}, z={z}"),
                    PROVED))
    for a, b in _draw(DIXON_AB, DIXON_SPECS, seed, unit):
        name = f"dixon-a{a}-b{b}"
        summand = (f"(-1)^k*binomial({a + b},{a}+k)*binomial({a}+n,n+k)"
                   f"*binomial({b}+n,{b}+k)")
        out.append((name, _identity_text(name, summand,
                                         f"({a + b}+n)!/{a}!/{b}!/n!", "-n",
                                         "n", notes="dixon specialized"),
                    PROVED))
    for a in _draw(CHU_A, CHU_SPECS, seed, unit):
        name = f"chu-vandermonde-a{a}"
        out.append((name, _identity_text(name, f"binomial(n,k)*binomial({a},k)",
                                         f"binomial({a}+n,{a})", "0", "n",
                                         notes="chu-vandermonde specialized"),
                    PROVED))
    for name, text in FALSE_IDENTITIES.items():
        out.append((name, text, NOT_PROVED))
    return [(f"u{unit}-{name}.txt", text, expected)
            for name, text, expected in out]


def generate(workload: str, seed: int, unit: int, root: Path, work: Path):
    """Write the identity files of one unit under work and return its cases.

    The same (workload, seed, unit) always gives the same files and cases.
    The bundled and false identities recur in every unit; the specializations
    do not recur until their pool is used up.  Paths in the cases are
    relative to root, the checkout the benchmark runs in.
    """
    w = WORKLOADS[workload]
    if workload != "symbolic":
        # The prove seed is the command line's default, 0, in the first unit
        # and the unit number after it, whatever the benchmark seed: some
        # seeds send the leading-coefficient stage into minutes of work and
        # hundreds of MB (README.md), past the time one run may take.
        expected = ("rigorous",) if w.certainty == 1 else ("semi-rigorous",)
        return [Case("corpus/mrr.txt", w.certainty, unit, w.jobs, expected)]
    # The symbolic routes draw no random numbers; the seed only enters records.
    prove_seed = seed
    cases = [Case(f"corpus/{name}.txt", w.certainty, prove_seed, w.jobs, PROVED)
             for name in BUNDLED]
    cases.append(Case("corpus/extra/binomial-2n-plus-one.txt", w.certainty,
                      prove_seed, w.jobs, ("refuted",)))
    work.mkdir(parents=True, exist_ok=True)
    for fname, text, expected in _symbolic_files(seed, unit):
        path = work / fname
        path.write_text(text, encoding="utf-8")
        cases.append(Case(str(path.relative_to(root)), w.certainty, prove_seed,
                          w.jobs, expected))
    return cases
