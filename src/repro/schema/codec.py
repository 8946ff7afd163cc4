"""Compiled record codecs: one ``struct.Struct`` per record layout.

Every physical type is fixed width, so a record — or any projection of
one — is a fixed byte layout that a single precompiled ``Struct`` decodes
in one C call.  Each column maps to one format code:

* integer-family types of width 1, 2, 4 or 8 → ``b h i q`` / ``B H I Q``;
* ``BOOL`` → ``?``; an 8-byte ``FLOAT`` → ``d``;
* every other column → ``{size}s``, followed by a per-column decoder
  (``CHAR``/``VARCHAR`` string decoding, or :meth:`PhysicalType.unpack`
  for widths with no ``struct`` code, such as the 3-byte ints WAL replay
  can rebuild from a schema record).

Encoding runs each value through a per-column encoder that accepts it
exactly when :meth:`PhysicalType.validate` would and otherwise raises the
same :class:`~repro.errors.TypeMismatchError`, so packed bytes and errors
match :meth:`PhysicalType.pack` column for column.
"""

from __future__ import annotations

from struct import Struct
from typing import Callable, Sequence

from repro.errors import TypeMismatchError
from repro.schema.types import PhysicalType, TypeKind

_INT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
_UINT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_UNSIGNED_KINDS = (TypeKind.UINT, TypeKind.TIMESTAMP, TypeKind.DATE, TypeKind.YEAR)
_STRING_KINDS = (TypeKind.CHAR, TypeKind.TIMESTAMP_STRING)

Decoder = Callable[[object], object]
Encoder = Callable[[object], object]


def _decode_char(raw: bytes) -> str:
    return raw.rstrip(b"\x00").decode("utf-8")


def _decode_varchar(raw: bytes) -> str:
    return raw[2 : 2 + (raw[0] | raw[1] << 8)].decode("utf-8")


def field_codec(ctype: PhysicalType) -> tuple[str, Decoder | None, Encoder]:
    """``(format code, decoder, encoder)`` for one column of ``ctype``.

    The decoder maps the ``Struct``'s value to the column value (``None``
    when they coincide); the encoder maps a column value to the
    ``Struct``'s argument, validating it first.
    """
    kind, size = ctype.kind, ctype.size
    validate = ctype.validate
    code = (
        _UINT_CODES.get(size) if kind in _UNSIGNED_KINDS
        else _INT_CODES.get(size) if kind is TypeKind.INT
        else None
    )
    if code is not None:
        lo, hi = ctype.int_range()

        def encode_int(value):
            if type(value) is int and lo <= value <= hi:
                return value
            validate(value)
            return int(value)  # an int subclass that validate accepted

        return code, None, encode_int
    if kind is TypeKind.BOOL and size == 1:

        def encode_bool(value):
            if value is not True and value is not False:
                validate(value)
            return value

        return "?", None, encode_bool
    if kind is TypeKind.FLOAT and size == 8:

        def encode_float(value):
            if type(value) is not float:
                validate(value)
                value = float(value)
            return value

        return "d", None, encode_float
    if kind in _STRING_KINDS or kind is TypeKind.VARCHAR:
        limit = size - 2 if kind is TypeKind.VARCHAR else size

        def encode_str(value):
            raw = value.encode("utf-8") if type(value) is str else None
            if raw is None or len(raw) > limit:
                validate(value)
                raw = str(value).encode("utf-8")
            if kind is TypeKind.VARCHAR:
                return len(raw).to_bytes(2, "little") + raw
            return raw  # the Struct NUL-pads to the column width

        decoder = _decode_varchar if kind is TypeKind.VARCHAR else _decode_char
        return f"{size}s", decoder, encode_str
    def encode_other(value):
        packed = ctype.pack(value)
        if len(packed) != size:  # the Struct would pad or truncate it
            raise TypeMismatchError(
                f"{ctype.name} packed to {len(packed)} bytes, needs {size}"
            )
        return packed

    return f"{size}s", ctype.unpack, encode_other


class RecordCodec:
    """One compiled ``Struct`` over some columns of a fixed-width record.

    ``fields`` are ``(offset, type)`` pairs in output order; the gaps
    between them become pad bytes, so the ``Struct`` spans the whole
    ``record_size``-byte record and decodes only the chosen columns.
    """

    __slots__ = ("_struct", "_decoders", "_encoders", "_order")

    def __init__(
        self, fields: Sequence[tuple[int, PhysicalType]], record_size: int
    ) -> None:
        by_offset = sorted(set(fields), key=lambda f: f[0])
        codecs = {f: field_codec(f[1]) for f in by_offset}
        parts = ["<"]
        pos = 0
        for offset, ctype in by_offset:
            if offset > pos:
                parts.append(f"{offset - pos}x")
            parts.append(codecs[offset, ctype][0])
            pos = offset + ctype.size
        if record_size > pos:
            parts.append(f"{record_size - pos}x")
        self._struct = Struct("".join(parts))
        self._encoders = tuple(codecs[f][2] for f in by_offset)
        slot_of = {f: j for j, f in enumerate(by_offset)}
        order = tuple(slot_of[f] for f in fields)
        #: ``None`` when the fields already come out in address order.
        self._order = None if order == tuple(range(len(by_offset))) else order
        # Decoders run in output order, so a record with several bad
        # columns fails on the same column the per-column loop would.
        self._decoders = tuple(
            (i, codecs[f][1]) for i, f in enumerate(fields) if codecs[f][1] is not None
        )

    def unpack(self, data) -> tuple | list:
        """Decode the fields, in the order they were given, from one whole
        record's bytes."""
        values = self._struct.unpack(data)
        if self._order is not None:
            values = [values[j] for j in self._order]
        if self._decoders:
            values = list(values)
            for i, decoder in self._decoders:
                values[i] = decoder(values[i])
        return values

    def pack(self, values: Sequence[object]) -> bytes:
        """Encode one value per field.  Only for a whole record's codec,
        whose fields are gap-free and in address order."""
        return self._struct.pack(
            *[encode(value) for encode, value in zip(self._encoders, values)]
        )
