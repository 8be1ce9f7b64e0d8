"""The package's records: immutable, validated on construction, and
compared by value (by identity for the series and their block sums).
Data that its reader only indexes is a plain tuple, not a record:
``monodromy.phi_top``'s matrices and ``special.laurent_coefficients``'
four coefficients; ``qcoh`` reads the ring's structure constants."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import monodromy_lab
from monodromy_lab import braid, ktheory, monodromy, pipeline, ring, solutions
from monodromy_lab.engine import get_engine
from monodromy_lab.frame import frame, sector_config
from monodromy_lab.record import Record

DOUBLE = get_engine("double")

#: one instance of each record class of the package, by class name
RECORDS = {
    "BraidWord": lambda: braid.BraidWord(((1, 1), (2, -1))),
    "SignDiagonal": lambda: braid.SignDiagonal((1, -1, 1, 1)),
    "Frame": lambda: frame(DOUBLE),
    "SectorConfig": sector_config,
    "ChernData": ktheory.chern_data,
    "KObject": lambda: ktheory.k_object("O1"),
    "StokesData": lambda: monodromy.StokesData(s_prime=(), P=(), S=(), z0s=[], residuals={}),
    "ConnectionData": lambda: monodromy.ConnectionData(c_prime=None, C=None, z0s=[],
                                                       residuals={}),
    "RunConfig": pipeline.RunConfig,
    "CharacteristicData": lambda: pipeline.characteristic_stage(pipeline.RunConfig())[0],
    "CohClass": lambda: ring.SIGMA_1,
    "UCComplex": lambda: solutions.UCComplex(2.0, Fraction(1, 4)),
    "LogSeries": lambda: solutions.quantum_period(3),
}


def test_every_record_class_is_listed():
    found = set()
    for info in pkgutil.iter_modules(monodromy_lab.__path__):
        module = importlib.import_module(f"monodromy_lab.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and value is not Record
                    and (issubclass(value, Record) or issubclass(value, tuple))
                    and hasattr(value, "_fields")):
                found.add(value.__name__)
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = type(record)._fields[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value


def test_validating_constructors_refuse_bad_input():
    with pytest.raises(ValueError, match="bad letter"):
        braid.BraidWord(((0, 1),))
    with pytest.raises(ValueError, match="bad letter"):
        braid.BraidWord(((1, 2),))
    with pytest.raises(ValueError, match="signs"):
        braid.SignDiagonal((1, 0, 1, 1))
    for modulus in (0, -1.0):
        with pytest.raises(ValueError, match="modulus must be positive"):
            solutions.UCComplex(modulus, Fraction(1, 4))
    with pytest.raises(ValueError, match="4 coefficients"):
        ring.CohClass((1, 2, 3))
    with pytest.raises(ValueError, match="dps"):
        pipeline.RunConfig(dps=0)


def test_points_and_classes_compare_and_hash_by_value():
    z = solutions.UCComplex(2.0, Fraction(1, 4))
    same = solutions.UCComplex(2.0, Fraction(1, 4))
    assert z == same and hash(z) == hash(same)
    assert z != solutions.UCComplex(2.0, Fraction(1, 3))
    assert z != (2.0, Fraction(1, 4))
    assert repr(z) == "UCComplex(modulus=2.0, arg_over_pi=Fraction(1, 4))"
    one = ring.CohClass((1, 0, 0, 0))
    assert one == ring.SIGMA_0 and hash(one) == hash(ring.SIGMA_0)
    assert one != ring.SIGMA_1


def test_series_compare_and_hash_by_identity():
    blocks = ((Fraction(1), Fraction(0), Fraction(0), Fraction(0)),)
    a, b = solutions.LogSeries(0, blocks), solutions.LogSeries(0, blocks)
    assert a != b and a == a
    assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
    # the derivative is built once and kept on the series
    assert a.derivative() is a.derivative()
