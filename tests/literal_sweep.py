"""The literal-mutation sweep of the corpus, a gate on false proofs.

Every integer literal of the summand, right side and limits of each
corpus/*.txt entry is moved by -2, -1, +1 and +2 (to a natural number), and
each mutant is proved at certainty 1/10.  A mutant is false when its exact
sums (tests/oracles.identity_sides_reference, Fraction arithmetic straight
from the file's text) differ from its right side at some n <= 6, at each of
two parameter points for a parametric entry.  The sweep prints one line per
false mutant and exits 1 if any of them is proved rigorous or semi-rigorous,
or if it finds no false mutant at all.

Run from the repository root:

    PYTHONPATH=src python tests/literal_sweep.py
"""

import re
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from hyperproof.cli import IdentityFileError, load_identity, run_prove
from oracles import identity_sides_reference

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FIELDS = ("summand:", "rhs:", "lower:", "upper:")
STEPS = (-2, -1, 1, 2)
# parameter values by position in the params line: positive, and with
# x > z for mrr, so that no lower argument of a rising factorial is a
# nonpositive integer
PARAMETER_POINTS = ((3, 2), (5, 3))
MAX_N = 6


def literal_mutants(text):
    """(label, text) per integer literal of FIELDS moved by each of STEPS
    to a natural number."""
    for line in text.splitlines():
        if not line.startswith(FIELDS):
            continue
        for m in re.finditer(r"\d+", line):
            for step in STEPS:
                value = int(m.group()) + step
                if value >= 0:
                    changed = line[:m.start()] + str(value) + line[m.end():]
                    yield (f"{line.split(':')[0]}@{m.start()}{step:+d}",
                           text.replace(line, changed))


def is_false(ident) -> bool:
    """Whether the sides differ at some n <= MAX_N and parameter point."""
    points = [dict(zip(ident.params, values))
              for values in PARAMETER_POINTS] if ident.params else [None]
    return any(sides and sides[0] != sides[1]
               for point in points for nv in range(MAX_N + 1)
               for sides in [identity_sides_reference(ident, nv, point)])


def main() -> int:
    proved, false, total = [], 0, 0
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as work:
        for entry in sorted(CORPUS.glob("*.txt")):
            for label, text in literal_mutants(entry.read_text()):
                total += 1
                path = Path(work) / f"{entry.stem}-{label}.txt"
                path.write_text(text)
                try:
                    ident = load_identity(path)
                except IdentityFileError:
                    continue  # rejected on load, e.g. a zero power base
                if not is_false(ident):
                    continue
                false += 1
                t0 = time.monotonic()
                verdict = run_prove(ident, Fraction(1, 10), 0, 6, 1).verdict
                print(f"{entry.stem} {label}: {verdict} "
                      f"({time.monotonic() - t0:.1f} s)", flush=True)
                if verdict in ("rigorous", "semi-rigorous"):
                    proved.append(f"{entry.stem} {label}")
    print(f"{total} mutants, {false} false, {len(proved)} of them proved, "
          f"{time.monotonic() - start:.0f} s")
    for name in proved:
        print(f"PROVED FALSE MUTANT: {name}")
    if not false:
        print("no false mutant: the sweep checked nothing")
    return 1 if proved or not false else 0


if __name__ == "__main__":
    sys.exit(main())
