import pickle
import re
from array import array

import numpy as np
import pytest

from erlangen.config import ConfigError, RunConfig, load_config, parse_config_text
from erlangen.contact import (
    LineElement2D,
    SurfaceElement,
    is_contact_transformation,
    legendre_map,
    swap_zp_map,
)
from erlangen.groups import builtin_group, check_group_axioms, invariance_test
from erlangen.properties import builtin_property
from erlangen.reports import (
    AxiomReport,
    ContactVerdict,
    Invariant,
    ValueReport,
    Violated,
    format_number,
    parse_report_trailer,
    serialize_report,
)

VALID = "seed = 42\ntrials = 100\ntolerance = 1e-9\ngroup = principal\ndimension = 2"


class TestConfig:
    def test_valid_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(VALID, encoding="utf-8")
        cfg = load_config(path)
        assert cfg == RunConfig(42, 100, 1e-9, "principal", 2)

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nseed = 1 # trailing\ntrials = 2\n" \
               "tolerance = 0.5\ngroup = affine\ndimension = 3\n"
        cfg = parse_config_text(text)
        assert cfg.seed == 1 and cfg.dimension == 3

    def test_zero_trials_names_field(self):
        text = VALID.replace("trials = 100", "trials = 0")
        with pytest.raises(ConfigError, match="trials"):
            parse_config_text(text)

    def test_unknown_key_rejected(self):
        text = VALID.replace("group", "grup")
        with pytest.raises(ConfigError, match="grup"):
            parse_config_text(text)

    def test_parse_error_carries_line_number(self):
        text = "seed = 42\nbogus line without equals\n"
        with pytest.raises(ConfigError, match=":2"):
            parse_config_text(text)

    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="dimension"):
            parse_config_text("seed = 1\ntrials = 2\ntolerance = 1\ngroup = affine")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_bad_number_with_line(self):
        text = VALID.replace("seed = 42", "seed = forty-two")
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(VALID + "\nseed = 43")

    def test_negative_tolerance_rejected(self):
        text = VALID.replace("tolerance = 1e-9", "tolerance = -1")
        with pytest.raises(ConfigError, match="tolerance"):
            parse_config_text(text)

    @pytest.mark.parametrize("tol", ["0", "nan", "inf", "-inf"])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        text = VALID.replace("tolerance = 1e-9", f"tolerance = {tol}")
        with pytest.raises(ConfigError, match="tolerance must be positive and finite"):
            parse_config_text(text)


@pytest.mark.parametrize("old,new,message", [
    ("dimension = 2", "dimension = 0", "<config>: dimension must be >= 1"),
    ("group = principal", "group = pro jective", "<config>: group is not an identifier: 'pro jective'"),
    ("group = principal", "group =", "<config>:4: empty value for 'group'"),
    ("tolerance = 1e-9", "tolerance = small", "<config>:3: tolerance must be a number, got 'small'"),
    ("seed = 42", "seed = x", "<config>:1: seed must be an integer, got 'x'"),
], ids=["dimension-zero", "group-not-identifier", "empty-value", "tolerance-not-a-number",
        "seed-not-an-integer"])
def test_config_refusals(old, new, message):
    """Each refusal is its reason, prefixed once by the source and, for a
    fault of one line, its line number."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text(VALID.replace(old, new))


class TestReports:
    def test_invariant_trailer(self):
        prop = builtin_property("cross-ratio")
        g = builtin_group("projective", 2)
        verdict = invariance_test(prop.evaluate, g, prop.sample_config, 7, 50)
        text = serialize_report(verdict)
        assert "RESULT: invariant trials=50" in text
        fields = parse_report_trailer(text)
        assert fields["verdict"] == "invariant"
        assert fields["trials"] == 50
        assert fields["tol"] == 1e-9

    def test_violated_trailer_has_witness_seed(self):
        prop = builtin_property("euclidean-distance")
        g = builtin_group("projective", 2)
        verdict = invariance_test(prop.evaluate, g, prop.sample_config, 7, 50)
        text = serialize_report(verdict)
        fields = parse_report_trailer(text)
        assert fields["verdict"] == "violated"
        assert fields["witness_seed"] == verdict.transform_seed

    def test_axiom_report_round_trip(self):
        report = check_group_axioms(builtin_group("moebius", 2), 3, 40)
        text = serialize_report(report)
        fields = parse_report_trailer(text)
        assert fields["verdict"] == "axioms-ok"
        assert fields["closure"] == 0 and fields["inverse"] == 0

    def test_contact_verdicts(self):
        good = serialize_report(is_contact_transformation(legendre_map(), 1, 20))
        assert parse_report_trailer(good)["verdict"] == "contact"
        bad = serialize_report(is_contact_transformation(swap_zp_map(), 1, 20))
        fields = parse_report_trailer(bad)
        assert fields["verdict"] == "not-contact"
        assert "witness_seed" in fields

    def test_byte_determinism(self):
        prop = builtin_property("cross-ratio")
        g = builtin_group("projective", 2)
        v1 = invariance_test(prop.evaluate, g, prop.sample_config, 7, 30)
        v2 = invariance_test(prop.evaluate, g, prop.sample_config, 7, 30)
        assert serialize_report(v1).encode() == serialize_report(v2).encode()

    def test_boolean_violation_serializes(self):
        # collinearity is not a moebius invariant: collinear triples land on
        # circles; the witness carries boolean before/after values
        prop = builtin_property("collinearity")
        g = builtin_group("moebius", 2)
        verdict = invariance_test(prop.evaluate, g, prop.sample_config, 11, 100)
        assert not verdict.invariant
        fields = parse_report_trailer(serialize_report(verdict))
        assert fields["verdict"] == "violated"

    def test_value_report(self):
        rep = ValueReport("distance", [("metric", "klein-disk"), ("value", 0.5)])
        text = serialize_report(rep)
        fields = parse_report_trailer(text)
        assert fields["metric"] == "klein-disk" and fields["value"] == 0.5

    def test_number_formatting_round_trip(self):
        for x in (1e-9, 0.1, 3.0, float(np.pi), 1234567890.123456789):
            assert float(format_number(x)) == x
        assert complex(format_number(1 + 2j)) == 1 + 2j


#: one of each record, built afresh on each call, with its repr
_RECORDS = [
    (lambda: Invariant(40, 2, 1e-9),
     "Invariant(trials_executed=40, trials_skipped=2, tol=1e-09)"),
    (lambda: Violated(3, 11, 12, 0.5, 0.75, None, None, 3, 1e-9),
     "Violated(trial=3, config_seed=11, transform_seed=12, before=0.5, after=0.75, "
     "config=None, transformation=None, trials_executed=3, tol=1e-09)"),
    (lambda: AxiomReport("moebius", 40, 1e-8, closure_failures=[(1, 2, 3)],
                         inverse_failures=[], identity_failures=[(4, 5, 6)]),
     "AxiomReport(group='moebius', trials=40, tol=1e-08, closure_failures=[(1, 2, 3)], "
     "inverse_failures=[], identity_failures=[(4, 5, 6)])"),
    (lambda: ContactVerdict(True, 20, 1e-12, 1e-9, 1, array("d", [1.0, 2.0])),
     "ContactVerdict(is_contact=True, samples_used=20, max_residual=1e-12, tol=1e-09, "
     "seed=1, factors=array('d', [1.0, 2.0]), witness_point=None, witness_residual=None)"),
    (lambda: RunConfig(42, 100, 1e-9, "principal", 2),
     "RunConfig(seed=42, trials=100, tolerance=1e-09, group='principal', dimension=2)"),
    (lambda: SurfaceElement(0.5, -1.0, 2.0, 0.25, 0.0),
     "SurfaceElement(x=0.5, y=-1.0, z=2.0, p=0.25, q=0.0)"),
    (lambda: LineElement2D(0.5, -1.0, 2.0),
     "LineElement2D(x=0.5, y=-1.0, p=2.0, vertical=False)"),
]
_FROZEN = (Invariant, Violated, RunConfig, SurfaceElement, LineElement2D)
_IDS = [repr_text.partition("(")[0] for _, repr_text in _RECORDS]


@pytest.mark.parametrize("make, repr_text", _RECORDS, ids=_IDS)
def test_a_record_compares_shows_and_pickles_by_its_fields(make, repr_text):
    record = make()
    assert repr(record) == repr_text
    assert record == make() and not record != make()
    assert record != repr_text and record != ()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == repr_text


@pytest.mark.parametrize("make, repr_text", _RECORDS, ids=_IDS)
def test_a_frozen_record_refuses_assignment_and_hashes_by_its_fields(make, repr_text):
    record, first = make(), repr_text.partition("(")[2].partition("=")[0]
    if not isinstance(record, _FROZEN):
        setattr(record, first, None)
        assert getattr(record, first) is None and record != make()
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        return
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{first}'$"):
        setattr(record, first, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{first}'$"):
        delattr(record, first)
    assert repr(record) == repr_text
    assert hash(record) == hash(make())
    assert len({record, make()}) == 1


def test_records_differ_by_a_field_and_start_with_lists_of_their_own():
    assert Invariant(40, 2, 1e-9) != Invariant(40, 3, 1e-9)
    assert AxiomReport("moebius", 40, 1e-8) == AxiomReport("moebius", 40, 1e-8, [], [], [])
    assert AxiomReport("moebius", 40, 1e-8).closure_failures is not \
        AxiomReport("moebius", 40, 1e-8).closure_failures
