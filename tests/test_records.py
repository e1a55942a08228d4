"""The nine record classes behave as value records: equal fields compare
equal within one class and only there, the repr names every field, the
four frozen records hash and refuse assignment, and the five mutable ones
are unhashable.  Each is built positionally and by keyword."""

from fractions import Fraction
from pathlib import Path

import pytest

from hyperproof.cli import IdentityFile, load_identity
from hyperproof.factored import Factored
from hyperproof.gridproof import (
    NormalizedIdentity, ProofReport, VanishingResult,
)
from hyperproof.polys import LinearForm
from hyperproof.telescope import (
    AssembledSystem, Certificate, Recurrence, TelescoperAnsatz,
)
from hyperproof.terms import TermExpression

ROOT = Path(__file__).resolve().parent.parent
SYMS = ("k", "n")
K, N = LinearForm.symbol("k"), LinearForm.symbol("n")


def _values(fields):
    return tuple(f"{name}-value" for name in fields)


# (class, field names in order, field values, frozen)
RECORDS = [
    (IdentityFile,
     ("name", "summand", "rhs", "sum_var", "rec_var", "lower", "upper",
      "params", "notes", "path"),
     ("x", "binomial(n,k)", "2^n", "k", "n", "0", "n", (), "a note",
      "x.txt"), False),
    (NormalizedIdentity,
     ("fhat", "ftil", "params", "k", "n", "lower", "upper", "rhs_is_zero",
      "n_ratio"), None, False),
    (VanishingResult, ("passed", "grid_total", "grid_tested", "witness"),
     (True, 10, 3, None), False),
    (ProofReport,
     ("verdict", "certainty", "seed", "method", "order", "degree",
      "grid_total", "grid_tested", "nonzero_point", "leading_root_bound",
      "initial_checks", "specialization", "recurrence", "certificate",
      "message", "timings"), None, False),
    (AssembledSystem,
     ("ansatz", "matrix", "k", "n", "vars", "matrix_vars", "pbar", "r", "Q",
      "contents"), None, False),
    (Recurrence, ("order", "coefficients"), (1, ("-2", "1")), True),
    (Certificate, ("num", "den"), ("k", Factored.one(SYMS)), True),
    (TelescoperAnsatz, ("order", "degree"), (2, 3), True),
    (TermExpression,
     ("symbols", "factorials", "binomials", "risings", "powers", "rational"),
     (SYMS, ((N, 1),), ((N, K, -1),), ((K, N, 1),), ((Fraction(2), K),),
      Factored.one(SYMS)), True),
]


def _other(value):
    """A value unequal to value."""
    if isinstance(value, tuple):
        return () if value else ("another",)
    if isinstance(value, Factored):
        return Factored(value.vars, 5)
    return ("another",)


def _cases():
    for cls, fields, values, frozen in RECORDS:
        yield pytest.param(cls, fields, values or _values(fields), frozen,
                           id=cls.__name__)


@pytest.mark.parametrize("cls, fields, values, frozen", _cases())
def test_equal_fields_compare_equal(cls, fields, values, frozen):
    a = cls(*values)
    b = cls(**dict(zip(fields, values)))
    assert a == b and not a != b
    for name, value in zip(fields, values):
        assert getattr(a, name) == value


@pytest.mark.parametrize("cls, fields, values, frozen", _cases())
def test_another_class_or_field_compares_unequal(cls, fields, values,
                                                 frozen):
    a = cls(*values)
    twin = type("Twin", (cls,), {})
    assert a != twin(*values) and twin(*values) != a
    assert a != tuple(values)
    for i in range(len(fields)):
        changed = list(values)
        changed[i] = _other(values[i])
        assert a != cls(*changed), fields[i]


@pytest.mark.parametrize("cls, fields, values, frozen", _cases())
def test_frozen_records_hash_and_refuse_assignment(cls, fields, values,
                                                   frozen):
    a, b = cls(*values), cls(*values)
    if frozen:
        assert hash(a) == hash(b)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, fields[0], ("another",))
        assert a != b


@pytest.mark.parametrize("cls, fields, values, frozen", _cases())
def test_repr_names_every_field(cls, fields, values, frozen):
    shown = ", ".join(f"{name}={value!r}"
                      for name, value in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls, fields, values, frozen", _cases())
def test_wrong_arguments_are_refused(cls, fields, values, frozen):
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values[1:], **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(fields, values)), bogus=1)
    with pytest.raises(TypeError):
        cls()


def test_identity_file_equality_ignores_the_parse():
    loaded = load_identity(ROOT / "corpus" / "binomial-2n.txt")
    assert loaded._parsed is not None
    fresh = IdentityFile(
        loaded.name, loaded.summand, loaded.rhs, loaded.sum_var,
        loaded.rec_var, loaded.lower, loaded.upper, loaded.params,
        loaded.notes, loaded.path)
    assert fresh._parsed is None
    assert fresh == loaded and repr(fresh) == repr(loaded)
    assert "_parsed" not in repr(loaded)
    with pytest.raises(TypeError):
        IdentityFile(*_values(RECORDS[0][1]), _parsed=None)


def test_defaults():
    ident = IdentityFile(*_values(RECORDS[0][1])[:8])
    assert (ident.notes, ident.path, ident._parsed) == ("", "", None)
    a, b = ProofReport("rigorous", Fraction(1), 0), \
        ProofReport(verdict="rigorous", certainty=Fraction(1), seed=0)
    assert a == b
    assert (a.method, a.order, a.degree, a.grid_total, a.grid_tested,
            a.nonzero_point, a.leading_root_bound, a.initial_checks,
            a.specialization, a.recurrence, a.certificate, a.message,
            a.timings) == ("", None, None, 0, 0, None, None, [], None, None,
                           None, "", {})
    # each report gets its own list and dict
    a.initial_checks.append(("delta", 0, True))
    a.timings["total_s"] = 1.0
    assert b.initial_checks == [] and b.timings == {}


def test_term_expression_sorts_its_factors_and_defaults_rational():
    f = TermExpression(SYMS, ((N, 1), (K, -1)), (), (), ((Fraction(3), N),
                                                         (Fraction(2), K)))
    g = TermExpression(symbols=SYMS, factorials=((K, -1), (N, 1)),
                       powers=((Fraction(2), K), (Fraction(3), N)))
    assert f == g and hash(f) == hash(g)
    assert f.factorials == ((K, -1), (N, 1))
    assert f.powers == ((Fraction(2), K), (Fraction(3), N))
    assert f.rational == Factored.one(SYMS)
    assert f.rational is not g.rational
    assert TermExpression(SYMS, rational=None).rational == Factored.one(SYMS)
