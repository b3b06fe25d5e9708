"""Value semantics of the package's records.

Twelve plain result records are NamedTuples; the four types that check
their fields (GateTemplate, Circuit, StabilizerMatrix, ElementaryColOp)
derive from `qconvenc.matrix.Record`, which writes their immutability,
equality, hash and repr once from each class's `_fields` (a circuit's
from its templates), and hold those fields and nothing derived from them
but a circuit's memory and template count.  Either way
a record cannot be assigned to, and records with equal fields are equal
and hash alike."""

import copy
import importlib
import inspect
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qconvenc
from helpers import L, rate_third_code, template_updates
from qconvenc.gates import (
    CNOT,
    CSIGN,
    Circuit,
    Gate,
    GateTemplate,
    H,
    P,
    PL,
    _template,
    depth_schedule,
    reverse,
)
from qconvenc.matrix import Record
from qconvenc.poly import LaurentPoly, Poly
from qconvenc.smith import ElementaryColOp, smith
from qconvenc.stabilizer import F4Poly, StabilizerMatrix, check_symplectic, params, parse_stabilizer
from qconvenc.synthesis import synthesize
from qconvenc.verify import PauliVector, image_reach, propagation_report, verify_encoder

DATA = Path(__file__).parent / "data"


def worked_records() -> list:
    """One record of each of the 16 types, from the worked example."""
    s = rate_third_code()
    result = synthesize(s)
    encoder = result.encoder
    col_op = next(op for op in smith(s.x).col_ops if op.kind == "add")
    records = [
        encoder.templates[0],
        encoder,
        s,
        col_op,
        depth_schedule(encoder),
        smith(s.x),
        result.row_ops[0],
        params(s),
        check_symplectic(s),
        F4Poly(L("1+D"), L("D")),
        result.classes[1],
        result,
        PauliVector(s.n, 5, 0b1011),
        propagation_report(encoder, [5, 10]),
        verify_encoder(s, encoder, 8),
    ]
    records.append(records[-1].rows[0])
    return records


RECORDS = worked_records()
CHECKED = [r for r in RECORDS if isinstance(r, Record)]


def test_every_record_type_is_covered():
    assert len({type(r) for r in RECORDS}) == 16


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_assigning_a_field_raises(record):
    for name in record._fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_fields_equal_records(record):
    twin = type(record)(*(getattr(record, name) for name in record._fields))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert repr(twin) == repr(record)


@st.composite
def valid_fields(draw) -> tuple[str, int, int, int]:
    """Valid template fields, CSIGN in either qubit order and PL offsets of
    either sign."""
    kind = draw(st.sampled_from((H, P, PL, CNOT, CSIGN)))
    i = draw(st.integers(1, 6))
    if kind in (CNOT, CSIGN):
        return kind, i, draw(st.integers(1, 6).filter(lambda j: j != i)), draw(st.integers(-9, 9))
    if kind == PL:
        return kind, i, 0, draw(st.integers(-9, 9).filter(bool))
    return kind, i, 0, 0


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(valid_fields())
def test_unchecked_template_equals_checked(f):
    checked, unchecked = GateTemplate(*f), _template(*f)
    assert checked == unchecked and hash(checked) == hash(unchecked)
    assert template_updates(checked) == template_updates(unchecked)
    if f[0] == CSIGN:
        assert GateTemplate(CSIGN, f[2], f[1], -f[3]) == checked
    if f[0] == PL:
        assert GateTemplate(PL, f[1], 0, -f[3]) == checked


def test_reverse_equals_the_reversed_circuit_and_carries_memory():
    c = synthesize(rate_third_code()).forward
    inv = reverse(c)
    assert inv == Circuit(c.n, c.templates[::-1])
    assert hash(inv) == hash(Circuit(c.n, c.templates[::-1]))
    # the memory and the template count are stored, not walked again
    assert vars(inv)["memory"] == c.memory == Circuit(c.n, c.templates[::-1]).memory
    assert vars(inv)["size"] == len(c) == len(Circuit(c.n, c.templates[::-1]))
    # the gates in reversed order, each with its offsets reversed
    assert inv.gates == tuple(Gate(g.kind, g.i, g.j, g.ells[::-1]) for g in reversed(c.gates))
    assert len(c.gates) < len(c)


def test_only_the_base_and_the_polynomials_define_setattr():
    names = {p.stem for p in Path(qconvenc.__file__).parent.glob("*.py")} - {"__init__", "__main__"}
    classes = {
        cls
        for name in names
        for _, cls in inspect.getmembers(importlib.import_module(f"qconvenc.{name}"), inspect.isclass)
        if cls.__module__.startswith("qconvenc.")
    }
    assert {cls for cls in classes if "__setattr__" in vars(cls)} == {Record, Poly, LaurentPoly}


@pytest.mark.parametrize("record", CHECKED, ids=lambda r: type(r).__name__)
def test_records_hold_only_their_fields(record):
    # the worked records have been through synthesize and verify_encoder;
    # a circuit's memory and template count are the values its constructor
    # stores beside them
    extra = {"memory", "size"} if isinstance(record, Circuit) else set()
    assert set(vars(record)) == {*record._fields, *extra}


@pytest.mark.parametrize("record", [*CHECKED, GateTemplate(H, 1)], ids=lambda r: type(r).__name__)
def test_a_record_never_equals_a_tuple_of_its_fields(record):
    values = tuple(getattr(record, name) for name in record._fields)
    assert record != values and not record == values


@pytest.mark.parametrize("record", CHECKED, ids=lambda r: type(r).__name__)
def test_copies_rebuild_from_the_fields(record):
    twins = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    for twin in twins:
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)


def parsed_values() -> list:
    """A Poly, a LaurentPoly, and two records whose fields hold Laurent
    polynomials: a parsed StabilizerMatrix and a column-add ElementaryColOp."""
    s = parse_stabilizer((DATA / "proper.stab").read_text())
    col_op = next(op for op in smith(s.z).col_ops if op.kind == "add")
    return [Poly(0b1011), L("D^-3+1+D^5"), s, col_op]


@pytest.mark.parametrize("value", parsed_values(), ids=lambda v: type(v).__name__)
def test_polynomial_values_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)

