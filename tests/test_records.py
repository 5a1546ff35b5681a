"""The package's records: an immutable record is a named tuple, one that is
changed after it is built is a dataclass."""
import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import gasprover
from gasprover import certificate
from gasprover.certificate import BoxSpec, RegionSpec
from gasprover.driver import WebbookReport, WebbookRow, prove
from gasprover.parsing import parse_ratfun
from gasprover.recurrence import Equilibrium, RecurrenceSpec, parse_rde
from gasprover.stability import LasVerdict

F = Fraction
R = parse_ratfun("(4+x0)/(1+x1)")  # a RatFun compares by identity, so both specs share it


def _region():
    return RegionSpec((True, False), F(2))


def _box():
    return BoxSpec(((F(0), F(1)), (F(1, 2), F(3))), (True, False))


def _spec():
    return RecurrenceSpec(2, R, False)


def _equilibrium():
    return Equilibrium(F(2), 2)


def _las():
    return LasVerdict("LAS", (F(2, 3), F(-1, 3), F(1)), (F(0), F(-1, 3)),
                      ((F(1), F(2, 3)),))


def _row():
    return WebbookRow((("b", F(1, 2)),), "(1/2)*x0", "true", "positivity-proven", F(0), 1)


def _outcome():
    return certificate.TestOutcome("PosCoeffs", "pass", {"constant": F(1)})


def _report():
    return WebbookReport("b*x0", 1, [])


# each maker builds a new record of equal value on every call
HASHABLE = [_region, _box, _spec, _equilibrium, _las, _row]


class TestNamedTupleRecords:
    @pytest.mark.parametrize("make", HASHABLE + [_outcome, _report])
    def test_fields_cannot_be_assigned(self, make):
        record = make()
        field = type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    @pytest.mark.parametrize("make", HASHABLE)
    def test_equal_and_hashable_by_value(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a._replace(**{a._fields[0]: None}) != a

    def test_repr_names_each_field(self):
        assert repr(_equilibrium()) == "Equilibrium(value=Fraction(2, 1), order=2)"
        assert repr(_region()) == "RegionSpec(highs=(True, False), xbar=Fraction(2, 1))"
        assert repr(certificate.TestOutcome("Const", "refute", {"constant": -1})) == (
            "TestOutcome(test='Const', result='refute', detail={'constant': -1})")

    def test_defaults(self):
        assert LasVerdict("inconclusive", (), ()).schur_table == ()
        row = WebbookRow((), "x0", "skipped", "invalid")
        assert row.equilibrium is None and row.K is None

    def test_outcomes_without_detail_share_no_mutable_dict(self):
        a = certificate.TestOutcome("ZeroOnlyAtOrigin", "pass")
        b = certificate.TestOutcome("ZeroOnlyAtOrigin", "pass")
        assert a.detail == {} and a == b
        with pytest.raises(TypeError):
            a.detail["reason"] = "forged"
        assert b.detail == {}


class TestRecordKinds:
    def test_exactly_the_changed_records_are_dataclasses(self):
        found = set()
        for info in pkgutil.iter_modules(gasprover.__path__):
            module = importlib.import_module(f"gasprover.{info.name}")
            found.update(name for name, cls in inspect.getmembers(module, inspect.isclass)
                         if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls))
        assert found == {"CertNode", "ProofCertificate", "PipelineResult"}

    def test_replace_derives_an_answer_and_its_certificate(self):
        real = prove(parse_rde("(4+x0)/(1+x1)"), maxK=6)
        assert real.verdict == "true" and real.certificate.verdict == "Proven"
        cert = dataclasses.replace(real.certificate, witness=[F(1), F(1)])
        forged = dataclasses.replace(real, K=1, certificate=cert)
        assert (forged.K, forged.certificate.witness) == (1, [F(1), F(1)])
        assert (real.K, real.certificate.witness) == (5, None)
        assert forged.certificate.nodes is real.certificate.nodes
