"""Document parsing and serialization round trips."""

from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from minexcite import (
    InputSection,
    LinearStructure,
    Mat,
    Mode,
    SpecValidationError,
    Stabilizability,
    parse_matrix,
)
from minexcite.specio import (
    dump_dataset,
    dump_input_section,
    dump_property,
    dump_scenario,
    load_dataset,
    load_input_section,
    load_property,
    load_scenario,
    parse_scalar,
)
from minexcite.ratmat import MAX_DECIMAL_EXPONENT, MAX_LITERAL_LENGTH, as_rational


def test_parse_scalar_varieties():
    assert parse_scalar(3) == 3
    assert parse_scalar("1/3") == Fraction(1, 3)
    assert parse_scalar(0.5) == Fraction(1, 2)
    assert parse_scalar("0.25") == Fraction(1, 4)
    with pytest.raises(SpecValidationError):
        parse_scalar(True)


def test_malformed_numbers_are_spec_errors():
    for text in ["1/0", "abc", "nan", f"1e{MAX_DECIMAL_EXPONENT + 1}"]:
        with pytest.raises(SpecValidationError, match=repr(text)):
            parse_scalar(text)
    assert parse_scalar(f"1e{MAX_DECIMAL_EXPONENT}") == 10**MAX_DECIMAL_EXPONENT
    assert parse_scalar(f"-1e-{MAX_DECIMAL_EXPONENT}") == Fraction(-1, 10**MAX_DECIMAL_EXPONENT)
    with pytest.raises(SpecValidationError, match="'1/0'"):
        load_property(
            {"type": "linear_structure", "n": 1, "m": 1, "constraints": [{"h": "1, 1/0", "set": [[0, 1]]}]}
        )


def test_literal_length_capped_alike_on_every_python():
    # 3.11+ refuse int text over 4300 digits and 3.10 does not; one cap below
    # that limit rejects the same literals everywhere, giving the length only
    assert as_rational("7" * MAX_LITERAL_LENGTH) == int("7" * MAX_LITERAL_LENGTH)
    for text in ["1" * 5000, "1/" + "3" * MAX_LITERAL_LENGTH, "0." + "5" * MAX_LITERAL_LENGTH]:
        with pytest.raises(SpecValidationError, match=f"of {len(text)} characters exceeds {MAX_LITERAL_LENGTH}") as err:
            parse_scalar(text)
        assert len(str(err.value)) < 100


def test_property_documents_each_type(tmp_path: Path):
    docs = [
        {"type": "identifiability", "n": 2, "m": 1},
        {"type": "stabilizability", "n": 2, "m": 1},
        {"type": "controllability", "n": 1, "m": 2},
        {"type": "sparsity", "n": 2, "m": 1, "zeros_A": [[1, 1]], "zeros_B": [[2, 1]]},
        {
            "type": "linear_structure",
            "n": 2,
            "m": 0,
            "constraints": [{"h": "1, 0, 1, 0", "set": [[0, 0]]}],
        },
        {
            "type": "linear_structure",
            "n": 1,
            "m": 1,
            "constraints": [
                {"h": "1, 0", "set": [0]},
                {"h": "0, 1", "set": [["-1", "1"]]},
            ],
            "expr": "1 | 2",
        },
    ]
    for doc in docs:
        prop, dims = load_property(doc)
        text = dump_property(prop, dims)
        prop2, dims2 = load_property(yaml.safe_load(text))
        assert prop2 == prop
        assert dims2 == dims


def test_intersection_mode_is_the_default_without_expr():
    prop, _ = load_property(
        {
            "type": "linear_structure",
            "n": 1,
            "m": 1,
            "constraints": [{"h": "1, 0", "set": [0]}, {"h": "0, 1", "set": [0]}],
        }
    )
    assert isinstance(prop, LinearStructure)
    assert prop.mode is Mode.INTERSECTION


def test_expr_implies_expression_mode():
    prop, _ = load_property(
        {
            "type": "linear_structure",
            "n": 1,
            "m": 1,
            "constraints": [{"h": "1, 0", "set": [0]}, {"h": "0, 1", "set": [0]}],
            "expr": "1 & 2",
        }
    )
    assert prop.mode is Mode.EXPRESSION


def test_property_document_errors():
    with pytest.raises(SpecValidationError):
        load_property({"type": "mystery", "n": 1, "m": 1})
    with pytest.raises(SpecValidationError):
        load_property({"type": "sparsity", "n": 1})  # no zeros at all
    with pytest.raises(SpecValidationError):
        load_property({"n": 1, "m": 1})  # missing type
    with pytest.raises(SpecValidationError):
        load_property({"type": "sparsity", "n": 1, "m": 1, "zeros_A": [[1]]})


def test_input_section_round_trip():
    sec = InputSection(parse_matrix("1, 0.5; 0, 1"), parse_matrix("-1, -1"))
    doc = yaml.safe_load(dump_input_section(sec))
    assert doc["k"] == 2
    assert load_input_section(doc) == sec


def test_input_section_with_no_input_channel():
    sec = InputSection(parse_matrix("1; 1"), Mat.zeros(0, 1))
    text = dump_input_section(sec)
    assert load_input_section(yaml.safe_load(text)) == sec


def test_dataset_round_trip():
    sec = InputSection(parse_matrix("1, 0; 0, 0"), parse_matrix("0, 1"))
    from minexcite import Dataset

    d = Dataset(sec, parse_matrix("0, 1; 2, 0"))
    assert load_dataset(yaml.safe_load(dump_dataset(d))) == d
    with pytest.raises(SpecValidationError):
        load_dataset(yaml.safe_load(dump_input_section(sec)))  # Xp missing


def test_scenario_round_trip_designed_and_explicit(tmp_path: Path):
    doc = {
        "n": 2,
        "m": 1,
        "hidden": {"A": "0, 1; 2, 1", "B": "1; 0"},
        "property": {"type": "sparsity", "zeros_A": [[1, 1]], "zeros_B": [[2, 1]]},
        "plan": "designed",
        "seed": 9,
    }
    sc = load_scenario(doc)
    assert sc.seed == 9 and sc.plan is None
    assert load_scenario(yaml.safe_load(dump_scenario(sc))) == sc

    doc["plan"] = {"X": "1, 0.5; 0, 1", "U": "-1, -1"}
    sc2 = load_scenario(doc)
    assert sc2.plan is not None
    assert load_scenario(yaml.safe_load(dump_scenario(sc2))) == sc2


def test_scenario_property_by_path(tmp_path: Path):
    prop_file = tmp_path / "prop.yaml"
    prop_file.write_text("type: stabilizability\nn: 2\nm: 1\n")
    sc_file = tmp_path / "scenario.yaml"
    sc_file.write_text(
        "n: 2\nm: 1\nhidden: {A: '0, 1; 2, 1', B: '1; 0'}\nproperty: prop.yaml\n"
    )
    sc = load_scenario(sc_file)
    assert sc.prop == Stabilizability()


def test_scenario_dimension_mismatch_rejected():
    doc = {
        "n": 2,
        "m": 1,
        "hidden": {"A": "0, 1; 2, 1", "B": "1; 0"},
        "property": {"type": "controllability", "n": 1, "m": 1},
    }
    with pytest.raises(SpecValidationError):
        load_scenario(doc)
