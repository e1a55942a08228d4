"""Command-line front end: identity files, proof commands, corpus runner,
and machine-readable one-line JSON reports."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .gridproof import ProofReport, prove
from .telescope import Certificate, Recurrence, verify_certificate
from .terms import (
    ParseError, TermError, parse_affine, parse_rational, parse_sum, parse_term,
)
from .terms import LinearForm  # noqa: F401  perfbench/test_perfbench.py reads it here

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_REFUTED = 3


class IdentityFileError(ValueError):
    pass


@dataclass
class IdentityFile:
    name: str
    summand: str
    rhs: str
    sum_var: str
    rec_var: str
    lower: str
    upper: str
    params: tuple
    notes: str = ""
    path: str = ""
    _parsed: tuple = field(default=None, init=False, repr=False,
                           compare=False)

    @property
    def symbols(self):
        return (self.sum_var, self.rec_var) + self.params

    def parsed(self):
        """(summand term, rhs term list, lower form, upper form), parsed on
        the first call and kept: load_identity's validation is that call.
        An error names the field and its text."""
        if self._parsed is None:
            self._parsed = (self._field("summand", parse_term, self.summand),
                            self._field("rhs", parse_sum, self.rhs),
                            self._limit(self.lower), self._limit(self.upper))
        return self._parsed

    def _field(self, name, parse, text):
        try:
            return parse(text, self.symbols)
        except TermError as exc:
            raise ParseError(f"{name} {text!r}: {exc}") from None

    def _limit(self, text):
        if text.strip().lower() == "all":
            return None
        form = self._field("limit", parse_affine, text)
        if form.var_coeff(self.sum_var):
            raise ParseError(f"limit {text!r} depends on {self.sum_var}")
        return form


_REQUIRED = ("name", "summand", "rhs", "sum_var", "rec_var", "lower", "upper")


def load_identity(path) -> IdentityFile:
    """Parse a key: value identity file; raises IdentityFileError with the
    file and line on any problem."""
    fields = {}
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IdentityFileError(f"{path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise IdentityFileError(f"{path}:{lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        fields[key] = value.strip()
    for key in _REQUIRED:
        if key not in fields:
            raise IdentityFileError(f"{path}: missing field {key!r}")
    params = tuple(p for p in fields.get("params", "").replace(",", " ").split()
                   if p)
    ident = IdentityFile(
        name=fields["name"], summand=fields["summand"], rhs=fields["rhs"],
        sum_var=fields["sum_var"], rec_var=fields["rec_var"],
        lower=fields["lower"], upper=fields["upper"], params=params,
        notes=fields.get("notes", ""), path=str(path))
    for name in (ident.sum_var, ident.rec_var) + params:
        if not name.isidentifier():
            raise IdentityFileError(f"{path}: {name!r} is not a variable name")
    if ident.sum_var == ident.rec_var:
        raise IdentityFileError(f"{path}: sum_var and rec_var must differ")
    if set(params) & {ident.sum_var, ident.rec_var}:
        raise IdentityFileError(f"{path}: params must not include "
                                f"{ident.sum_var}/{ident.rec_var}")
    if len(set(params)) != len(params):
        raise IdentityFileError(f"{path}: params must not repeat a name")
    try:
        ident.parsed()
    except TermError as exc:
        raise IdentityFileError(f"{path}: {exc}")
    return ident


def report_record(ident: IdentityFile, report: ProofReport) -> dict:
    """Stable structured record; no wall-clock content, so identical runs
    produce identical bytes."""
    return {
        "name": ident.name,
        "version": __version__,
        "verdict": report.verdict,
        "certainty": str(report.certainty),
        "seed": report.seed,
        "method": report.method,
        "order": report.order,
        "degree": report.degree,
        "grid_total": report.grid_total,
        "grid_tested": report.grid_tested,
        "nonzero_point": report.nonzero_point,
        "leading_root_bound": report.leading_root_bound,
        "initial_checks": report.initial_checks,
        "specialization": report.specialization,
        "recurrence": report.recurrence,
        "certificate": report.certificate,
        "message": report.message,
    }


def record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def run_prove(ident: IdentityFile, certainty, seed, max_order, jobs):
    F, rhs_terms, lower, upper = ident.parsed()
    t0 = time.monotonic()
    report = prove(F, rhs_terms, ident.sum_var, ident.rec_var, lower, upper,
                   ident.params, certainty=certainty, seed=seed,
                   max_order=max_order, jobs=jobs)
    report.timings["total_s"] = time.monotonic() - t0
    return report


_VERDICT_EXIT = {
    "rigorous": EXIT_OK,
    "semi-rigorous": EXIT_OK,
    "inconclusive": EXIT_INCONCLUSIVE,
    "refuted": EXIT_REFUTED,
}


def _summary_lines(ident, report):
    lines = [f"identity   {ident.name}",
             f"verdict    {report.verdict}",
             f"method     {report.method}",
             f"certainty  {report.certainty}"]
    if report.order is not None:
        lines.append(f"order      {report.order}")
    if report.degree is not None:
        lines.append(f"degree     {report.degree}")
    if report.grid_total:
        lines.append(f"grid       {report.grid_tested}/{report.grid_total} points")
    if report.leading_root_bound is not None:
        lines.append(f"lead root  {report.leading_root_bound}")
    if report.specialization:
        spec = "; ".join(", ".join(f"{p}={v}" for p, v in sorted(point.items()))
                         for point in report.specialization)
        lines.append(f"specialized {spec}")
    if report.recurrence:
        lines.append(f"recurrence [{'; '.join(report.recurrence)}]")
    if report.certificate:
        lines.append(f"certificate {report.certificate}")
    checks = report.initial_checks
    if checks:
        shown = ", ".join(f"{label}({nv}):{'ok' if ok else 'FAIL'}"
                          for label, nv, ok in checks)
        lines.append(f"checks     {shown}")
    if report.message:
        lines.append(f"note       {report.message}")
    lines.append(f"time       {report.timings.get('total_s', 0):.2f}s")
    return lines


def cmd_prove(args) -> int:
    try:
        ident = load_identity(args.file)
    except IdentityFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = run_prove(ident, args.certainty, args.seed, args.max_order,
                           args.jobs)
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {args.file}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for line in _summary_lines(ident, report):
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(record_line(report_record(ident, report)))
    return _VERDICT_EXIT[report.verdict]


def cmd_corpus(args) -> int:
    directory = Path(args.dir)
    files = sorted(directory.glob("*.txt"))
    records = []
    rows = []
    worst = EXIT_OK
    for path in files:
        try:
            ident = load_identity(path)
        except IdentityFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            rows.append((path.stem, "parse-error", "-", "-", "-", "-"))
            worst = max(worst, EXIT_USAGE)
            continue
        try:
            report = run_prove(ident, args.certainty, args.seed,
                               args.max_order, args.jobs)
        except (RuntimeError, ArithmeticError) as exc:
            print(f"error: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rows.append((ident.name, "error", "-", "-", "-", "-"))
            worst = max(worst, EXIT_USAGE)
            continue
        records.append(report_record(ident, report))
        rows.append((
            ident.name, report.verdict,
            "-" if report.order is None else str(report.order),
            "-" if report.degree is None else str(report.degree),
            f"{report.grid_tested}/{report.grid_total}" if report.grid_total
            else "-",
            f"{report.timings.get('total_s', 0):.2f}s"))
        worst = max(worst, _VERDICT_EXIT[report.verdict])
    header = ("identity", "verdict", "J", "K", "grid", "time")
    widths = [max(len(str(r[i])) for r in rows + [header]) if rows else len(header[i])
              for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(record_line(rec))
    return worst


def cmd_verify(args) -> int:
    try:
        ident = load_identity(args.file)
        F, _, _, _ = ident.parsed()
        coeff_vars = tuple(s for s in ident.symbols if s != ident.sum_var)
        coeffs = []
        for part in args.recurrence.split(","):
            r = parse_rational(part, coeff_vars)
            if not r.den.is_constant():
                raise IdentityFileError(
                    f"recurrence coefficient {part!r} is not a polynomial")
            coeffs.append(r.num)  # a constant denominator is 1
        if not any(coeffs):  # the zero operator annihilates every sum
            raise IdentityFileError("the recurrence has no nonzero coefficient")
        cert = Certificate(parse_rational(args.certificate, ident.symbols))
    except (IdentityFileError, TermError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rec = Recurrence(len(coeffs) - 1, tuple(coeffs))
    ok = verify_certificate(F, rec, cert, k=ident.sum_var, n=ident.rec_var)
    print("certificate valid" if ok else "certificate INVALID")
    return EXIT_OK if ok else EXIT_REFUTED


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fraction(text) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    if not (0 < value <= 1):
        raise argparse.ArgumentTypeError("certainty must be in (0, 1]")
    return value


def _at_least(low):
    """argparse type: a decimal integer of at least low."""
    def parse(text) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"not an integer of at least {low}: {text!r}")
        return int(text)
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hyperproof",
        description="Prove terminating hypergeometric identities by creative "
                    "telescoping, with a determinant-vanishing grid method "
                    "for multi-parameter identities.")
    parser.add_argument("--version", action="version",
                        version=f"hyperproof {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--certainty", type=_fraction, default=Fraction(1),
                       help="fraction of the proof grid to test "
                            "(1 = rigorous; default 1)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of every random choice: the sampled grid "
                            "points, the leading-coefficient parameter "
                            "points and the integer points of the small-case "
                            "check (default 0)")
        p.add_argument("--jobs", type=_at_least(1), default=1,
                       help="processes that rank grid points, this one "
                            "included, at most one per CPU (default 1)")
        p.add_argument("--max-order", type=_at_least(0), default=6,
                       help="largest recurrence order to try (default 6)")
        p.add_argument("--json", metavar="PATH",
                       help="write one structured JSON record per identity")

    p_prove = sub.add_parser("prove", help="prove one identity file")
    p_prove.add_argument("file")
    common(p_prove)
    p_prove.set_defaults(func=cmd_prove)

    p_corpus = sub.add_parser("corpus", help="prove every identity in a directory")
    p_corpus.add_argument("dir")
    common(p_corpus)
    p_corpus.set_defaults(func=cmd_corpus)

    p_verify = sub.add_parser(
        "verify", help="check a recurrence/certificate pair against a summand")
    p_verify.add_argument("file")
    p_verify.add_argument("--recurrence", required=True,
                          help="comma-separated coefficient polynomials a0,...,aJ")
    p_verify.add_argument("--certificate", required=True,
                          help="rational function R with G = R*F")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except IdentityFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
