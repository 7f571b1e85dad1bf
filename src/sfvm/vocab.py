"""One field vocabulary for every JSON input, and the one loop that checks it.

Each input format declares its objects as `Shape`s: the `Type` of every
field an object may carry, and the fields it must carry.  Like bpf(2)'s
`CHECK_ATTR`, `check` refuses, in the object's order, the first field its
shape does not declare or whose value fails its type, then the first
required field that is absent.  Rules across fields stay with the format.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, NamedTuple

from .isa import I64_MAX, I64_MIN


class Type(NamedTuple):
    """What a value must be: `name` says it and `test` decides it.  A value
    failing it is told it "must be `name`", or else `told`: a text, or a
    function of the value for a text that names the part at fault."""
    name: str
    test: Callable[[object], bool]
    told: str | Callable[[object], str] | None = None


def _told(typ: Type, value) -> str:
    if typ.told is None:
        return f"must be {typ.name}"
    return typ.told if type(typ.told) is str else typ.told(value)


Shape = namedtuple("Shape", "types required unknown missing wrong")


def shape(table: dict, required: str = "", optional: str = "", *,
          unknown: str = "{where}: unknown field {key!r}",
          missing: str = "{where}: missing field {key!r}",
          wrong: str = "{where}: {key} {told}") -> Shape:
    """The shape of an object that must carry the `required` fields ("a|b":
    either, or both) and may carry the `optional` ones, of the types
    `table` gives them.  `unknown`, `missing` and `wrong` word a fault
    from the caller's `where`, the field's `key` and what its type `told`
    the value."""
    names = f"{required} {optional}".replace("|", " ").split()
    return Shape({name: table[name] for name in names},
                 tuple(tuple(group.split("|")) for group in required.split()),
                 unknown, missing, wrong)


def check(obj: dict, shape: Shape, where, error: type) -> None:
    """Raise `error` for the first fault of `obj` against `shape`."""
    types = shape.types
    for key, value in obj.items():
        typ = types.get(key)
        if typ is None:
            raise error(shape.unknown.format(where=where, key=key))
        if not typ.test(value):
            raise error(shape.wrong.format(where=where, key=key,
                                           told=_told(typ, value)))
    for names in shape.required:
        if obj.keys().isdisjoint(names):
            raise error(shape.missing.format(
                where=where, key=" or ".join(names),
                told=_told(types[names[0]], None)))


def read_text(path, error: type) -> str:
    """The text of the file at `path`; `error` if it is not UTF-8."""
    with open(path, "rb") as fh:
        return decode_text(fh.read(), error)


def decode_text(raw: bytes, error: type) -> str:
    """`raw` as UTF-8 text; `error` if it is not."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text (byte {exc.start}: {exc.reason})") \
            from None


def is_decimal(key) -> bool:
    """A decimal number as an object key: ASCII digits, at most 18 of
    them, so the number is in the i64 range."""
    return (type(key) is str and key.isascii() and key.isdigit()
            and len(key) <= 18)


def keyed(name: str, item: Type) -> Type:
    """An object of decimal keys and items of type `item`; a failing value
    is told the first key at fault."""
    def told(value) -> str:
        for key, v in value.items() if type(value) is dict else ():
            if not is_decimal(key):
                return f"key {key!r} is not a decimal number"
            if not item.test(v):
                return f"key {key!r}: {_told(item, v)}"
        return f"must be {name}"

    return Type(name, lambda value: type(value) is dict and all(
        is_decimal(key) and item.test(v) for key, v in value.items()), told)


def _is_i64s(value) -> bool:
    # the loops over the elements run in C: a policy's sets can be long
    return (type(value) in (list, tuple) and set(map(type, value)) <= {int}
            and (not value or I64_MIN <= min(value)
                 and max(value) <= I64_MAX))


INT = Type("an integer", lambda v: type(v) is int)
I64 = Type("an integer (i64)",
           lambda v: type(v) is int and I64_MIN <= v <= I64_MAX)
I64S = Type("a list of integers (i64)", _is_i64s)
BOOL = Type("true or false", lambda v: type(v) is bool)
STR = Type("a string", lambda v: type(v) is str)
STRS = Type("a list of strings",
            lambda v: type(v) is list and all(type(s) is str for s in v))
LIST = Type("a list", lambda v: type(v) is list)
OBJECT = Type("an object", lambda v: type(v) is dict)
