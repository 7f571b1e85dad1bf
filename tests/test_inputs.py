"""Every JSON input format against its own `vocab` declarations: the
fuzz slice of `tests.fuzz_inputs`, and a JSON Schema derived from the
declarations as a second oracle for the checking loop."""

from __future__ import annotations

import random

import jsonschema
import pytest

from sfvm import policies, scenarios, snapshot, trace, vocab

from .fuzz_inputs import FORMATS, JSON_VALUES, UNKNOWN, at, fuzz, \
    slice_swaps, swapped


@pytest.mark.parametrize("name", FORMATS)
def test_the_fuzz_slice_swaps_every_declared_field(name):
    fmt = FORMATS[name]
    targets = fmt.targets()
    carried: dict = {}
    for base, path, shape in targets:
        fmt.run(base, random.Random(1))     # a base passes unrefused
        carried.setdefault(id(shape), set()).update(at(base, path))
    # the bases carry every field of every shape the format declares, and
    # the slice swaps each for each JSON type and adds an unknown field
    assert carried == {id(shape): set(shape.types) for shape in fmt.shapes}
    assert {(id(shape), key, json_type) for _, _, shape, key, json_type
            in slice_swaps(fmt, random.Random(1))} == {
        (id(shape), key, json_type) for shape in fmt.shapes
        for key in [*shape.types, UNKNOWN] for json_type in JSON_VALUES}
    assert fuzz(name, random.Random(1)) == 0


I64 = {"type": "integer", "minimum": -2 ** 63, "maximum": 2 ** 63 - 1}
I64S = {"type": "array", "items": I64}
WHITESPACE = "[ \t\n\r\x0b\x0c]*"      # what bytes.fromhex skips


def pair(item) -> dict:
    return {"type": "array", "minItems": 2, "maxItems": 2, "items": item}


def decimal_keyed(item) -> dict:
    return {"type": "object", "additionalProperties": False,
            "patternProperties": {"^[0-9]{1,18}\\Z": item}}


# id of each type the formats declare -> its JSON Schema, written from
# what the type's name promises rather than from its test
SCHEMAS = {id(typ): schema for typ, schema in [
    (vocab.INT, {"type": "integer"}),
    (vocab.I64, I64),
    (vocab.I64S, I64S),
    (vocab.BOOL, {"type": "boolean"}),
    (vocab.STR, {"type": "string"}),
    (vocab.STRS, {"type": "array", "items": {"type": "string"}}),
    (vocab.LIST, {"type": "array"}),
    (vocab.OBJECT, {"type": "object"}),
    (trace.FIELDS["uid"], {"type": "integer", "minimum": 0,
                           "maximum": 2 ** 32 - 1}),
    (trace.FIELDS["dt_ns"], {"type": "integer", "minimum": 0}),
    (trace.FIELDS["handle"], {"type": ["integer", "string"]}),
    (trace.FIELDS["args"], {"type": "array", "maxItems": 6,
                            "items": {"type": "integer"}}),
    (trace.FIELDS["blob_hex"], {"type": "string", "pattern":
     f"^{WHITESPACE}([0-9a-fA-F]{{2}}{WHITESPACE})*\\Z"}),
    (policies.ACTION, {"anyOf": [
        {"type": "integer", "minimum": 0, "maximum": 2 ** 32 - 1},
        {"enum": ["allow", "log", "trap", "kill_thread", "kill_process"]},
        # errno:N for N in [0, 4096), in decimal or hex; the other forms
        # that int(N, 0) reads (octal, binary, signs, underscores, spaces)
        # are left out
        {"type": "string", "pattern": "^errno:(0+|[1-9][0-9]{0,2}"
         "|[1-3][0-9]{3}|40[0-8][0-9]|409[0-5]|0[xX]0*[0-9a-fA-F]{1,3})\\Z"},
    ]}),
    (policies.PROFILE, {"type": ["string", "object"]}),
    (policies.FIELDS["transitions"], {"type": "array", "items": pair(
        [{"anyOf": [{"type": "null"}, I64]}, I64])}),
    (policies.NR_INTS, decimal_keyed(I64S)),
    (policies.FIELDS["rules"], decimal_keyed(decimal_keyed(I64S))),
    (policies.PHASE_PROFILE.types["init"],
     {"type": "array", "items": pair(I64)}),
    (policies.PHASE_PROFILE.types["marker"], I64),
    (scenarios.FIELDS["pair"], pair({"type": "integer"})),
    (scenarios.FIELDS["checks"], {"type": "array", "items": {
        "type": "object", "required": ["check"]}}),
    (snapshot.ARG_KINDS["user_buffer"].types["size"],
     {"type": "integer", "minimum": 1}),
    (snapshot.ARG_KINDS["user_record"].types["size"],
     {"type": "integer", "minimum": 1}),
    (snapshot.ARG_KINDS["user_record"].types["fields"], {"type": "array"}),
    (snapshot.FIELD_KINDS["user_buffer"].types["offset"],
     {"type": "integer", "minimum": 0}),
    (snapshot.ARGS.types["0"], {"type": "object"}),
]}


def shape_schema(shape: vocab.Shape) -> dict:
    """The JSON Schema of an object of `shape`: its declared fields with
    their types, nothing else, and one of each required group."""
    schema = {"type": "object", "additionalProperties": False,
              "properties": {key: SCHEMAS[id(typ)]
                             for key, typ in shape.types.items()}}
    if shape.required:
        schema["allOf"] = [{"anyOf": [{"required": [key]} for key in group]}
                           for group in shape.required]
    jsonschema.Draft4Validator.check_schema(schema)
    return schema


@pytest.mark.parametrize("name", FORMATS)
def test_a_json_schema_of_the_declarations_agrees_with_the_loop(name):
    fmt = FORMATS[name]
    validators = {id(shape): jsonschema.Draft4Validator(shape_schema(shape))
                  for shape in fmt.shapes}
    rng = random.Random(1)
    verdicts = set()
    for swap in slice_swaps(fmt, rng):
        _, path, shape, key, json_type = swap
        obj = at(swapped(swap, rng), path)
        try:
            vocab.check(obj, shape, "here", ValueError)
            by_loop = True
        except ValueError:
            by_loop = False
        by_schema = validators[id(shape)].is_valid(obj)
        assert by_loop == by_schema, (key, json_type, obj)
        verdicts.add(by_loop)
    assert verdicts == {True, False}
