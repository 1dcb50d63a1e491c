"""The records of the package are named tuples: immutable, hashed by their
field tuple, and validated where a constructor checks its input."""

from fractions import Fraction

import pytest

from ewverify import ComplexRational, ModelConfig
from ewverify.fields import FIELDS, FieldFactor, Term, _factor
from ewverify.limits import ScalingReport
from ewverify.model import MassSpectrum
from ewverify.numeric import EqualsResult
from ewverify.report import VerificationReport


def records():
    factor = FieldFactor("A1", ("mu",), ("nu",))
    return [
        FIELDS["A1"],
        factor,
        Term(ComplexRational(2), 1, (("g", 1),), 0, (factor,)),
        ModelConfig(),
        MassSpectrum(Fraction(25), Fraction(9), (Fraction(3), Fraction(4))),
        VerificationReport("group-axioms", "j=1", True),
        ScalingReport((0.1,), (0.5,), (0.25,), 2.0, 4.0, 1.0, 10, 0),
        EqualsResult(True, "exact-symbolic"),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):  # no instance dict: every class keeps __slots__ = ()
        record.extra = None


def test_a_factor_hashes_as_its_field_tuple():
    f = FieldFactor("Wp", ("nu",), ("mu", "al"), True)
    assert hash(f) == hash((f.field, f.indices, f.derivs, f.conj))
    t = Term(ComplexRational(3), 2, (), 1, (f,))
    assert hash(t) == hash((t.coeff, t.jdeg, t.params, t.r2, t.factors))


def test_the_unvalidated_factor_equals_the_validated_one():
    built = FieldFactor("Wp", ["nu"], ("mu", "al"), True)
    assert built.indices == ("nu",) and built.derivs == ("al", "mu")
    fast = _factor("Wp", ("nu",), ("al", "mu"), True)
    assert fast == built and type(fast) is FieldFactor and hash(fast) == hash(built)


@pytest.mark.parametrize("key", ["g", "gp", "R"])
@pytest.mark.parametrize("value", [0, -3, Fraction(-1, 2)])
def test_model_config_rejects_a_non_positive_coupling(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be positive$"):
        ModelConfig(**{key: value})


def test_model_config_stores_the_couplings_as_fractions():
    cfg = ModelConfig(**{"g": 5, "gp": "12", "R": 1.5})
    assert (cfg.g, cfg.gp, cfg.R) == (Fraction(5), Fraction(12), Fraction(3, 2))
    assert all(type(v) is Fraction for v in (cfg.g, cfg.gp, cfg.R))


def test_a_mass_spectrum_still_checks_the_ordering():
    with pytest.raises(ValueError, match="mass ordering violated"):
        MassSpectrum(Fraction(9), Fraction(25), (Fraction(3), Fraction(4)))
