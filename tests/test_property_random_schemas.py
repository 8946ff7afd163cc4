"""Generative serde tests: random schemas, random matching values.

The fixed-schema round-trip tests pin known layouts; these generate
arbitrary schemas (any mix of physical types, any column order) and
assert the serde invariants hold for all of them:

* pack/unpack is the identity on values;
* partial unpack agrees with full unpack on every subset;
* in-place field overwrite touches exactly that field;
* the compiled record codecs agree with the per-column
  :meth:`PhysicalType.pack`/``unpack`` reference, value for value and
  error for error, including widths ``struct`` has no code for.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError, TypeMismatchError
from repro.schema.record import (
    overwrite_field,
    pack_record,
    unpack_fields,
    unpack_record,
)
from repro.schema.schema import Schema
from repro.schema.types import (
    BOOL,
    DATE32,
    FLOAT64,
    INT8,
    INT16,
    INT32,
    INT64,
    TIMESTAMP32,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    YEAR16,
    PhysicalType,
    TIMESTAMP_STR14,
    TypeKind,
    char,
    varchar,
)

_FIXED_TYPES = [
    BOOL, INT8, INT16, INT32, INT64, UINT8, UINT16, UINT32, UINT64,
    FLOAT64, TIMESTAMP32,
]


def _value_strategy(ptype):
    kind = ptype.kind.value
    if kind == "bool":
        return st.booleans()
    if kind in ("uint", "timestamp", "date", "year"):
        lo, hi = ptype.int_range()
        return st.integers(lo, hi)
    if kind == "int":
        lo, hi = ptype.int_range()
        return st.integers(lo, hi)
    if kind == "float":
        return st.floats(allow_nan=False)
    if kind == "char":
        return st.text(alphabet="abcXYZ09 _", max_size=ptype.size)
    if kind == "varchar":
        return st.text(alphabet="abcXYZ09 _", max_size=ptype.size - 2)
    raise AssertionError(kind)


@st.composite
def schema_and_values(draw):
    types = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_FIXED_TYPES),
                st.integers(1, 20).map(char),
                st.integers(1, 20).map(varchar),
            ),
            min_size=1,
            max_size=8,
        )
    )
    schema = Schema.of(*[(f"c{i}", t) for i, t in enumerate(types)])
    values = tuple(draw(_value_strategy(t)) for t in types)
    return schema, values


@settings(max_examples=150, deadline=None)
@given(schema_and_values())
def test_round_trip_any_schema(pair):
    schema, values = pair
    data = pack_record(schema, values)
    assert len(data) == schema.record_size
    assert unpack_record(schema, data) == values


@settings(max_examples=100, deadline=None)
@given(schema_and_values(), st.data())
def test_partial_unpack_agrees_with_full(pair, data_strategy):
    schema, values = pair
    data = pack_record(schema, values)
    full = dict(zip(schema.names, values))
    subset = data_strategy.draw(
        st.lists(st.sampled_from(schema.names), unique=True)
    )
    partial = unpack_fields(schema, data, subset)
    assert partial == {name: full[name] for name in subset}


@settings(max_examples=100, deadline=None)
@given(schema_and_values(), st.data())
def test_overwrite_touches_only_target_field(pair, data_strategy):
    schema, values = pair
    buffer = bytearray(pack_record(schema, values))
    target = data_strategy.draw(st.sampled_from(schema.names))
    column = schema.column(target)
    new_value = data_strategy.draw(_value_strategy(column.ctype))
    overwrite_field(schema, buffer, target, new_value)
    result = dict(zip(schema.names, unpack_record(schema, bytes(buffer))))
    for name, original in zip(schema.names, values):
        if name == target:
            assert result[name] == new_value
        else:
            assert result[name] == original


# -- differential: compiled codecs vs the per-column reference ----------------

#: Widths with no ``struct`` code, as WAL replay can rebuild them from a
#: logged schema record.
_ODD_TYPES = [
    PhysicalType(TypeKind.UINT, 3, "UINT24"),
    PhysicalType(TypeKind.INT, 3, "INT24"),
    PhysicalType(TypeKind.INT, 5, "INT40"),
    PhysicalType(TypeKind.UINT, 7, "UINT56"),
    PhysicalType(TypeKind.TIMESTAMP, 6, "TIMESTAMP48"),
    PhysicalType(TypeKind.DATE, 3, "DATE24"),
]
_ALL_TYPES = _FIXED_TYPES + _ODD_TYPES + [DATE32, YEAR16]


def reference_pack(schema, values):
    return b"".join(col.ctype.pack(v) for col, v in zip(schema.columns, values))


def reference_unpack(schema, data, names):
    out = []
    for name in names:
        col = schema.column(name)
        offset = schema.offset_of(name)
        out.append(col.ctype.unpack(data[offset : offset + col.size]))
    return out


def outcome(fn, *args):
    """``("ok", repr(result))`` or ``("raise", type, message)``; repr keeps
    NaN and -0.0 comparable."""
    try:
        return ("ok", repr(fn(*args)))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raise", type(exc), str(exc))


def _valid_value(ptype):
    kind = ptype.kind.value
    if kind in ("uint", "timestamp", "date", "year", "int"):
        lo, hi = ptype.int_range()
        return st.integers(lo, hi)
    if kind == "timestamp_string":
        return st.text(alphabet="0123456789", max_size=ptype.size)
    if kind in ("char", "varchar"):
        limit = ptype.size - 2 if kind == "varchar" else ptype.size
        # NULs and multi-byte UTF-8 included: CHAR strips trailing NULs,
        # VARCHAR keeps them, and neither may split a code point.
        return st.text(alphabet="ab\x00é€", max_size=limit).filter(
            lambda t: len(t.encode("utf-8")) <= limit
        )
    return _value_strategy(ptype)


def _any_value(ptype):
    """Valid values plus near misses: ints just out of range, bools,
    floats, ``None`` and strings up to two bytes too long."""
    if ptype.kind.value in ("uint", "timestamp", "date", "year", "int"):
        lo, hi = ptype.int_range()
        ints = st.integers(lo - 2, hi + 2)
    else:
        ints = st.integers(-3, 3)
    return st.one_of(
        _valid_value(ptype),
        ints,
        st.booleans(),
        st.floats(),
        st.none(),
        st.text(alphabet="abé€", max_size=ptype.size + 2),
    )


_column_type = st.one_of(
    st.sampled_from(_ALL_TYPES + [TIMESTAMP_STR14]),
    st.integers(1, 12).map(char),
    st.integers(1, 12).map(varchar),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_column_type, min_size=1, max_size=8), st.data())
def test_compiled_codec_matches_per_column_reference(types, data):
    schema = Schema.of(*[(f"c{i}", t) for i, t in enumerate(types)])
    values = tuple(data.draw(_valid_value(t)) for t in types)
    packed = pack_record(schema, values)
    assert packed == reference_pack(schema, values)
    assert unpack_record(schema, packed) == tuple(
        reference_unpack(schema, packed, schema.names)
    )
    names = data.draw(st.lists(st.sampled_from(schema.names), max_size=10))
    assert unpack_fields(schema, packed, names) == dict(
        zip(names, reference_unpack(schema, packed, names))
    )
    # Damaged record bytes decode (or fail) exactly as the reference does:
    # a valid record with some bytes overwritten, e.g. garbage behind a
    # VARCHAR's length prefix or a split UTF-8 sequence.
    raw = bytearray(packed)
    for at, byte in data.draw(
        st.lists(
            st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)), max_size=4
        )
    ):
        raw[at] = byte
    raw = bytes(raw)
    assert outcome(unpack_record, schema, raw) == outcome(
        lambda s, d: tuple(reference_unpack(s, d, s.names)), schema, raw
    )
    assert outcome(unpack_fields, schema, raw, names) == outcome(
        lambda s, d: dict(zip(names, reference_unpack(s, d, names))), schema, raw
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(_column_type, min_size=1, max_size=6), st.data())
def test_compiled_pack_raises_what_the_reference_raises(types, data):
    schema = Schema.of(*[(f"c{i}", t) for i, t in enumerate(types)])
    values = tuple(data.draw(_any_value(t)) for t in types)
    assert outcome(pack_record, schema, values) == outcome(
        reference_pack, schema, values
    )


@pytest.mark.parametrize("ptype", _ODD_TYPES + [UINT32, INT8, char(3), varchar(3)])
def test_length_and_range_errors_keep_their_types(ptype):
    schema = Schema.of(("a", ptype), ("b", UINT16))
    sample = "x" if ptype.kind in (TypeKind.CHAR, TypeKind.VARCHAR) else 1
    good = pack_record(schema, (sample, 2))
    for bad in (good[:-1], good + b"\x00", b""):
        with pytest.raises(SchemaError):
            unpack_record(schema, bad)
        with pytest.raises(SchemaError):
            unpack_fields(schema, bad, ["b"])
    with pytest.raises(SchemaError):
        pack_record(schema, (1,))
    with pytest.raises(SchemaError):
        unpack_fields(schema, good, ["nope"])
    with pytest.raises(TypeMismatchError):
        pack_record(schema, (1, 1 << 16))
    with pytest.raises(TypeMismatchError):
        pack_record(schema, (1, True))
    if ptype.kind in (TypeKind.INT, TypeKind.UINT):
        lo, hi = ptype.int_range()
        for out_of_range in (lo - 1, hi + 1):
            with pytest.raises(TypeMismatchError):
                pack_record(schema, (out_of_range, 0))
