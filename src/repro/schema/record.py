"""Record serde: pack/unpack Python tuples against a :class:`Schema`.

Records are dicts-in, dicts-out at the query layer but packed tuples at the
storage layer; these functions are the boundary.  Partial unpacking
(:func:`unpack_fields`) exists so that reading a projection from a cached
index entry or a heap tuple touches only the referenced byte ranges — the
same access pattern the paper's locality argument is about.  All three
run on the schema's compiled codecs (:mod:`repro.schema.codec`).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import SchemaError
from repro.schema.schema import Schema


def pack_record(schema: Schema, values: Sequence[object]) -> bytes:
    """Pack positional ``values`` into the schema's fixed-width layout."""
    if len(values) != len(schema):
        raise SchemaError(
            f"expected {len(schema)} values, got {len(values)}"
        )
    return schema.codec.pack(values)


def pack_record_map(schema: Schema, values: Mapping[str, object]) -> bytes:
    """Pack a ``{name: value}`` mapping; every column must be present."""
    missing = set(schema.names) - set(values)
    if missing:
        raise SchemaError(f"missing values for columns {sorted(missing)}")
    return pack_record(schema, [values[name] for name in schema.names])


def unpack_record(schema: Schema, data: bytes) -> tuple[object, ...]:
    """Unpack a full record into a positional tuple."""
    if len(data) != schema.record_size:
        raise SchemaError(
            f"record is {len(data)} bytes, schema needs {schema.record_size}"
        )
    return tuple(schema.codec.unpack(data))


def unpack_record_map(schema: Schema, data: bytes) -> dict[str, object]:
    """Unpack a full record into a ``{name: value}`` dict."""
    return dict(zip(schema.names, unpack_record(schema, data)))


def unpack_fields(
    schema: Schema, data: bytes, names: Sequence[str]
) -> dict[str, object]:
    """Unpack only the named columns, touching only their byte ranges."""
    if len(data) != schema.record_size:
        raise SchemaError(
            f"record is {len(data)} bytes, schema needs {schema.record_size}"
        )
    return dict(zip(names, schema.projection_codec(names).unpack(data)))


def overwrite_field(
    schema: Schema, data: bytearray, name: str, value: object
) -> None:
    """Overwrite one column in-place inside a packed record buffer."""
    if len(data) != schema.record_size:
        raise SchemaError(
            f"record is {len(data)} bytes, schema needs {schema.record_size}"
        )
    col = schema.column(name)
    offset = schema.offset_of(name)
    data[offset : offset + col.size] = col.ctype.pack(value)
