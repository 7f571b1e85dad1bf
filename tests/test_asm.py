"""Assembler and disassembler."""

from __future__ import annotations

import hashlib
import random
import struct

import pytest

from sfvm.asm import AsmError, assemble, disassemble
from sfvm.isa import (
    MapKind,
    Opcode,
    ProgramFormatError,
    decode_program,
    encode_program,
)
from sfvm.policies import (
    build_program,
    gen_allowlist,
    gen_count_limit,
    gen_denylist,
    gen_serialization,
    gen_temporal,
    gen_validation_cache,
    load_profiles,
)
from sfvm.verifier import verify

from .helpers import (
    decodable_program,
    every_generator,
    fields_used,
    fuzz_source,
    round_trip_faults,
)

BASIC = """
section seccomp
    ld_ctx r2, 0          ; syscall number
    jeq r2, 42, allow
    mov r0, 0x50001       # errno 1
    exit
allow:
    mov r0, 0x7fff0000
    exit
"""


def test_assemble_basic():
    prog = assemble(BASIC)
    assert len(prog.instructions) == 6
    assert not prog.sleepable
    assert prog.instructions[0].opcode is Opcode.LD_CTX
    assert prog.instructions[1].offset == 2   # relative jump to allow:


def test_both_comment_styles_and_blank_lines():
    prog = assemble("section seccomp\n\n; c1\n# c2\n    mov r0, 0\n    exit\n")
    assert len(prog.instructions) == 2


def test_sleepable_section_flag():
    prog = assemble("section seccomp-sleepable\n    mov r0, 0\n    exit\n")
    assert prog.sleepable


def test_label_and_instruction_on_one_line():
    prog = assemble("section seccomp\ntop: mov r0, 0\n    exit\n")
    assert prog.instructions[0].opcode is Opcode.MOV_IMM


def test_map_reference_operand_is_not_a_label():
    # the colon inside "map:counts" must not trip the label scanner
    prog = assemble(
        "section seccomp\n"
        "map counts hash 8 8 4\n"
        "    ld_imm64 r1, map:counts\n"
        "    mov r0, 0\n"
        "    exit\n")
    ins = prog.instructions[0]
    assert ins.opcode is Opcode.LD_IMM64
    assert ins.src == 1 and ins.imm == 0
    assert prog.map_refs[0].kind is MapKind.HASH


def test_operand_form_selection():
    prog = assemble(
        "section seccomp\n"
        "    mov r1, 5\n"
        "    mov r2, r1\n"
        "    add r2, r1\n"
        "    jeq r2, r1, out\n"
        "out:\n"
        "    mov r0, 0\n"
        "    exit\n")
    ops = [i.opcode for i in prog.instructions]
    assert ops[:4] == [Opcode.MOV_IMM, Opcode.MOV_REG, Opcode.ADD_REG,
                       Opcode.JEQ_REG]


def test_jmp_is_an_alias_for_ja():
    prog = assemble("section seccomp\n    jmp out\nout:\n    mov r0, 0\n"
                    "    exit\n")
    assert prog.instructions[0].opcode is Opcode.JA


def test_negative_and_hex_immediates():
    prog = assemble("section seccomp\n    mov r0, -1\n    mov r1, 0xff\n"
                    "    exit\n")
    assert prog.instructions[0].imm == -1
    assert prog.instructions[1].imm == 0xFF


@pytest.mark.parametrize("source,fragment", [
    ("    mov r0, 0\nsection seccomp\n    exit\n", "first"),
    ("section bogus\n    exit\n", "section"),
    ("section seccomp\n    frob r0\n", "mnemonic"),
    ("section seccomp\n    mov r11, 0\n    exit\n", "register"),
    ("section seccomp\n    mov r0, zz\n    exit\n", "number"),
    ("section seccomp\n    jeq r0, 0, nowhere\n    exit\n", "label"),
    ("section seccomp\nx:\nx:\n    exit\n", "duplicate"),
    ("section seccomp\nmap m bogus 8 8 4\n    exit\n", "kind"),
    ("section seccomp\n    ld_imm64 r1, map:nope\n    exit\n", "map"),
    ("section seccomp\n    ld_ctx r2\n    exit\n", "operand"),
    ("section seccomp\n    ja 40000\n    exit\n", "i16"),
    ("section seccomp\n    ja -32769\n    exit\n", "i16"),
    ("section seccomp\nmap a,b hash 8 8 4\n    exit\n", "map name"),
])
def test_assembly_errors(source, fragment):
    with pytest.raises(AsmError) as err:
        assemble(source)
    assert fragment in str(err.value).lower()


def test_error_carries_line_number():
    with pytest.raises(AsmError) as err:
        assemble("section seccomp\n    mov r0, 0\n    bogus\n")
    assert err.value.line == 3


def sample_programs():
    profile = load_profiles()["redis"]
    return [
        assemble(BASIC),
        gen_allowlist([0, 1, 59], layout="linear"),
        gen_allowlist(list(range(40)), layout="tree"),
        gen_allowlist([3, 9, 27], layout="hash"),
        gen_denylist([101, 102], layout="hash"),
        gen_count_limit(250, 2, arg_index=0, arg_value=1),
        gen_serialization({25: [77], 77: [25]}),
        gen_temporal(profile),
        gen_validation_cache({0: {1: [4, 8]}}, cached=False),
        build_program({"generator": "rate_limit", "nr": 2,
                       "rate": 10, "capacity": 3}),
    ]


def test_disassemble_assemble_fixpoint():
    """Text -> program -> text must be stable for a broad program mix."""
    for prog in sample_programs():
        text = disassemble(prog)
        again = assemble(text)
        assert again.instructions == prog.instructions, text
        assert again.sleepable == prog.sleepable
        assert [ (d.name, d.kind, d.key_size, d.value_size, d.max_entries)
                 for d in again.map_refs ] == \
               [ (d.name, d.kind, d.key_size, d.value_size, d.max_entries)
                 for d in prog.map_refs ]
        assert disassemble(again) == text


def test_helpers_by_name_or_number():
    # tail_call assembles as a helper id too; the verifier refuses it
    prog = assemble("section seccomp\n    call 4\n    call 99\n"
                    "    call ktime_get_ns\n    exit\n")
    assert [i.imm for i in prog.instructions[:3]] == [4, 99, 5]
    assert disassemble(prog).splitlines()[1:4] == [
        "    call tail_call", "    call 99", "    call ktime_get_ns"]
    report = verify(prog)
    assert not report.accepted
    assert report.reason == "helper tail_call is not in the whitelist"


# byte position and format of each field in a 16-byte encoded instruction
_FIELD_AT = {"dst": (2, "<B"), "src": (3, "<B"), "offset": (4, "<h"),
             "pad": (6, "<H"), "imm": (8, "<q")}


def _patched(raw, index, count, **fields):
    """`raw` with instruction `index` of `count` given new field values."""
    out = bytearray(raw)
    at = len(raw) - 16 * (count - index)
    for field, value in fields.items():
        pos, fmt = _FIELD_AT[field]
        struct.pack_into(fmt, out, at + pos, value)
    return bytes(out)


def test_random_decodable_programs_round_trip():
    """Every decodable program survives encode/decode and disassemble/
    assemble; a non-zero field its opcode leaves unused, and an ld_imm64
    that names no declared map, are refused at the instruction."""
    rng = random.Random(0x15A)
    seen = set()
    for _ in range(400):
        program = decodable_program(rng)
        seen.update(ins.opcode for ins in program.instructions)
        assert decode_program(encode_program(program)) == program
        assert round_trip_faults(program) == []
        raw = encode_program(program)
        n = len(program.instructions)
        for i, ins in enumerate(program.instructions):
            field = rng.choice(sorted({"dst", "src", "offset", "imm"}
                                      - fields_used(ins.opcode)) + ["pad"])
            value = rng.randint(1, 10) if field in ("dst", "src") \
                else rng.choice([1, -1]) if field in ("offset", "imm") \
                else rng.randint(1, 0xFFFF)
            with pytest.raises(ProgramFormatError,
                               match=rf"^instruction {i}: .*\b{field}\b"):
                decode_program(_patched(raw, i, n, **{field: value}))
            if ins.opcode is Opcode.LD_IMM64:
                for src, imm in ((rng.randint(2, 10), 0),
                                 (1, len(program.map_refs))):
                    with pytest.raises(ProgramFormatError,
                                       match=rf"^instruction {i}: .*no map"):
                        decode_program(_patched(raw, i, n, src=src, imm=imm))
    assert seen == set(Opcode)


# sha256 over the encodings of every `every_generator()` program, then of
# criterion 5's 1000 fuzz sources; assembler changes must not move it
ENCODING_DIGEST = \
    "93cd6635dc8d87115c12059748946a61bb8cddcc80887b5476ff106343037b60"


def test_encodings_of_generators_and_fuzz_corpus_are_pinned():
    digest = hashlib.sha256()
    for program in every_generator():
        digest.update(encode_program(program))
    rng = random.Random(31337)      # criterion 5's seed
    for _ in range(1000):
        digest.update(encode_program(assemble(fuzz_source(rng))))
    assert digest.hexdigest() == ENCODING_DIGEST


# -- malformed and edge-case texts ------------------------------------------

# odd lines spliced into a text: names the assembler must refuse
_ODD_LINES = ("call no_such_helper", "ld_imm64 r1, map:nope", "ja nowhere",
              "jeq r0, 0, missing", "map m bogus 8 8 4", "frob r0, 1",
              "section seccomp", "x: y: mov r0, 0", ": exit", "exit ;", "#")
# operand kind -> (the tokens of that kind, odd tokens to put in their place)
_REPLACEMENTS = {
    "reg": (lambda t: t[0] == "r" and t[1:].isdigit(), ("r11", "r007", "r99")),
    "number": (lambda t: t.lstrip("-")[:1].isdigit(),
               (str(1 << 64), str(-(1 << 63) - 1), str(1 << 63), "0x8000",
                "-32769", "32767", "0x1_0000_0000_0000_0000", "1e3")),
    "name": (lambda t: t[:1].isalpha() and not t[1:].isdigit(),
             ("nowhere", "map:nope", "no_such_helper")),
}


def _mutant(rng: random.Random, text: str) -> str:
    """`text` with one seeded mutation: a token dropped, duplicated,
    swapped or replaced, a line dropped, doubled or added, or a stray
    `:`, `;` or `#`."""
    lines = text.splitlines()
    at = rng.choice([i for i, line in enumerate(lines) if line.strip()])
    tokens = lines[at].replace(",", " , ").split()
    kind = rng.choice(("drop", "dup", "swap", "reg", "number", "mnemonic",
                       "name", "line", "stray"))
    if kind == "drop":
        del tokens[rng.randrange(len(tokens))]
    elif kind == "dup":
        i = rng.randrange(len(tokens))
        tokens.insert(i, tokens[i])
    elif kind == "swap":
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif kind in _REPLACEMENTS:
        is_kind, odd = _REPLACEMENTS[kind]
        spots = [i for i, t in enumerate(tokens[1:], 1) if is_kind(t)]
        new = rng.choice(odd)
        if spots:
            tokens[rng.choice(spots)] = new
        else:
            tokens.append(new)
    elif kind == "mnemonic":
        tokens[0] = rng.choice(("frob", tokens[0].upper(), tokens[0] + "x",
                                "map", "section"))
    elif kind == "line":
        how = rng.randrange(3)
        if how == 0:
            del lines[at]
        else:
            lines.insert(at, lines[at] if how == 1 else rng.choice(_ODD_LINES))
        return "\n".join(lines) + "\n"
    else:
        line = lines[at]
        pos = rng.randrange(len(line) + 1)
        lines[at] = line[:pos] + rng.choice(":;#") + line[pos:]
        return "\n".join(lines) + "\n"
    lines[at] = "    " + " ".join(tokens)
    return "\n".join(lines) + "\n"


def malformed_corpus() -> list:
    """Seeded mutants of every generator's disassembly and of the first
    100 of criterion 5's fuzz sources."""
    bases = [disassemble(program) for program in every_generator()]
    fuzz = random.Random(31337)     # criterion 5's seed
    bases += [fuzz_source(fuzz) for _ in range(100)]
    rng = random.Random(0xA5E)
    return [_mutant(rng, text) for text in bases for _ in range(12)]


# sha256 over each malformed_corpus() text's encoding, or its error's
# line and message, computed before the assembler's table-driven rewrite
MALFORMED_DIGEST = \
    "d915336ed36986aaf02f31095a458ea01cf9e88470ec697fb7eff06f5c4822da"


def test_malformed_corpus_outcomes_are_pinned():
    digest = hashlib.sha256()
    corpus = malformed_corpus()
    errors = 0
    for text in corpus:
        try:
            outcome = b"ok " + encode_program(assemble(text))
        except AsmError as exc:
            errors += 1
            outcome = f"error {exc.line} {exc}".encode()
        digest.update(outcome + b"\n")
    assert 0.3 < errors / len(corpus) < 0.9
    assert digest.hexdigest() == MALFORMED_DIGEST
