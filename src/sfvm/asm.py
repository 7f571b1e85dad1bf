"""Two-way translation between assembly text and filter programs.

Grammar, one instruction per line:

    ; comment (# also works)
    section seccomp              ; or seccomp-sleepable
    map counts hash 8 8 16       ; name kind key_size value_size max_entries
    top:                         ; label
        ld_ctx r2, 0             ; dst, context byte offset
        jeq r2, 42, allow        ; dst, src-or-imm, target label
        ld_imm64 r1, map:counts  ; map reference
        call map_lookup_elem
        tail_call
        exit

Operands follow `isa.INSNS`, with one parser and one renderer per
operand kind.  A register-or-immediate operand selects the opcode
variant, a jump target is a label or a bare relative offset, and a
helper is a name or a number.  `jmp` is an alias for `ja`.
"""

from __future__ import annotations

import re

from .isa import (
    CTX_OFF,
    FilterProgram,
    HELPER,
    HELPER_NAMES,
    HELPERS_BY_NAME,
    I16_MAX,
    I16_MIN,
    IMM_FORM,
    IMM_OR_MAP,
    INSNS,
    Instruction,
    JUMPS,
    LD_IMM64_MAP_REF,
    MAP_KIND_NAMES,
    MAP_KINDS_BY_NAME,
    MEM_OFF,
    MNEMONICS,
    MapDecl,
    REG,
    REG_OR_IMM,
    SECTIONS,
    TARGET,
)


class AsmError(ValueError):
    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


_COMMENT_RE = re.compile(r"[;#]")
_LABEL_RE = re.compile(r"^[A-Za-z_.][\w.]*$")
_REG_RE = re.compile(r"^r(\d+)$")


def _parse_int(tok: str, lineno: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(f"expected a number, got {tok!r}", lineno) from None


def assemble(source: str) -> FilterProgram:
    section = None
    decls: list[MapDecl] = []
    decl_names: dict[str, int] = {}
    labels: dict[str, int] = {}
    pending: list[tuple] = []   # (opcode, fields, lineno)

    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = _COMMENT_RE.split(raw_line, maxsplit=1)[0].strip()
        if not line:
            continue

        # labels, possibly followed by an instruction on the same line;
        # a colon later in the line (map:name operands) is not a label
        while ":" in line:
            head, rest = line.split(":", 1)
            head = head.strip()
            if not _LABEL_RE.match(head):
                break
            if head in labels:
                raise AsmError(f"duplicate label {head!r}", lineno)
            labels[head] = len(pending)
            line = rest.strip()
        if not line:
            continue

        parts = line.split(None, 1)
        mnem = parts[0].lower()
        ops = [o.strip() for o in parts[1].split(",")] if len(parts) > 1 else []

        if mnem == "section":
            if section is not None:
                raise AsmError("multiple section directives", lineno)
            if pending or decls:
                raise AsmError("section directive must come first", lineno)
            if len(ops) != 1 or ops[0] not in SECTIONS:
                raise AsmError(
                    f"section must be one of {', '.join(SECTIONS)}", lineno
                )
            section = ops[0]
            continue

        if mnem == "map":
            fields = line.split()
            if len(fields) != 6:
                raise AsmError(
                    "map directive takes: name kind key_size value_size max_entries",
                    lineno,
                )
            _, name, kind_name, key_s, val_s, max_e = fields
            if pending:
                raise AsmError("map directives must precede instructions", lineno)
            if name in decl_names:
                raise AsmError(f"duplicate map {name!r}", lineno)
            if kind_name not in MAP_KINDS_BY_NAME:
                raise AsmError(f"unknown map kind {kind_name!r}", lineno)
            decl = MapDecl(
                name,
                MAP_KINDS_BY_NAME[kind_name],
                _parse_int(key_s, lineno),
                _parse_int(val_s, lineno),
                _parse_int(max_e, lineno),
            )
            try:
                decl.validate()
            except ValueError as exc:
                raise AsmError(str(exc), lineno) from None
            decl_names[name] = len(decls)
            decls.append(decl)
            continue

        pending.append(_parse_insn(mnem, ops, lineno, decl_names))

    # a label stands in the offset field until every label is known
    insns = []
    for index, (opcode, fields, lineno) in enumerate(pending):
        target = fields.get("offset")
        if type(target) is str:
            if target not in labels:
                raise AsmError(f"unresolved label {target!r}", lineno)
            fields["offset"] = _i16(labels[target] - (index + 1),
                                    "jump displacement", lineno)
        insns.append(Instruction(opcode, **fields))

    return FilterProgram(
        instructions=tuple(insns),
        sleepable=(section == "seccomp-sleepable"),
        map_refs=tuple(decls),
    )


def _parse_insn(mnem, ops, lineno, decl_names):
    if mnem not in INSNS:
        raise AsmError(f"unknown mnemonic {mnem!r}", lineno)
    opcodes, kinds = INSNS[mnem]
    if len(ops) != len(kinds):
        raise AsmError(f"{mnem} takes {len(kinds)} operand(s)", lineno)
    fields = {}
    for kind, tok in zip(kinds, ops):
        _PARSE[kind](tok, fields, lineno, decl_names)
    # a register in the register-or-immediate slot picks the second form
    opcode = opcodes[-1] if "src" in fields else opcodes[0]
    return opcode, fields, lineno


# -- one parser per operand kind: token -> the instruction fields it fills

def _reg(tok, fields, lineno, decl_names):
    m = _REG_RE.match(tok)
    if not m:
        raise AsmError(f"expected a register, got {tok!r}", lineno)
    n = int(m.group(1))
    if n > 10:
        raise AsmError(f"register out of range: {tok}", lineno)
    fields["src" if "dst" in fields else "dst"] = n


def _imm(tok, fields, lineno, decl_names):
    value = _parse_int(tok, lineno)
    if value >= 1 << 64 or value < -(1 << 63):
        raise AsmError(f"immediate out of 64-bit range: {value:#x}", lineno)
    fields["imm"] = value - (1 << 64) if value >= 1 << 63 else value


def _i16(value, what, lineno):
    if not I16_MIN <= value <= I16_MAX:
        raise AsmError(f"{what} does not fit in i16", lineno)
    return value


def _offset(what):
    def parse(tok, fields, lineno, decl_names):
        fields["offset"] = _i16(_parse_int(tok, lineno), what, lineno)
    return parse


def _target(tok, fields, lineno, decl_names):
    if _LABEL_RE.match(tok):
        fields["offset"] = tok      # resolved once every label is known
    else:
        fields["offset"] = _i16(_parse_int(tok, lineno),
                                "jump displacement", lineno)


def _imm_or_map(tok, fields, lineno, decl_names):
    if not tok.startswith("map:"):
        return _imm(tok, fields, lineno, decl_names)
    if tok[4:] not in decl_names:
        raise AsmError(f"reference to undeclared map {tok[4:]!r}", lineno)
    fields["src"] = LD_IMM64_MAP_REF
    fields["imm"] = decl_names[tok[4:]]


def _helper(tok, fields, lineno, decl_names):
    if tok not in HELPERS_BY_NAME:
        return _imm(tok, fields, lineno, decl_names)
    fields["imm"] = int(HELPERS_BY_NAME[tok])


_PARSE = {REG: _reg, TARGET: _target, IMM_OR_MAP: _imm_or_map,
          CTX_OFF: _offset("context offset"),
          MEM_OFF: _offset("memory offset"), HELPER: _helper,
          REG_OR_IMM: lambda tok, *rest:
              (_reg if _REG_RE.match(tok) else _imm)(tok, *rest)}


# ---------------------------------------------------------------------------
# disassembly
# ---------------------------------------------------------------------------


def disassemble(program: FilterProgram) -> str:
    """Render a program back to assembly text.

    Jump targets inside the program or just past its end get synthetic
    labels, others stay bare offsets; assembling the result yields an
    instruction-identical program.
    """
    n = len(program.instructions)
    labels = {t: f"L{t}" for t in sorted(
        i + 1 + ins.offset for i, ins in enumerate(program.instructions)
        if ins.opcode in JUMPS) if 0 <= t <= n}

    lines = [f"section {program.section_name}"]
    for decl in program.map_refs:
        lines.append(
            f"map {decl.name} {MAP_KIND_NAMES[decl.kind]} "
            f"{decl.key_size} {decl.value_size} {decl.max_entries}"
        )
    for i, ins in enumerate(program.instructions):
        if i in labels:
            lines.append(f"{labels[i]}:")
        name = MNEMONICS[ins.opcode]
        regs = iter((ins.dst, ins.src))
        text = ", ".join(_RENDER[kind](ins, regs, i, labels, program)
                         for kind in INSNS[name][1])
        lines.append(f"    {name} {text}".rstrip())
    if n in labels:
        lines.append(f"{labels[n]}:")
    return "\n".join(lines) + "\n"


# -- one renderer per operand kind: instruction -> token

def _render_imm_or_map(ins, regs, pc, labels, program):
    if ins.src == LD_IMM64_MAP_REF:
        return f"map:{program.map_refs[ins.imm].name}"
    imm = ins.imm & ((1 << 64) - 1)
    return f"{imm:#x}" if imm > 9 else str(imm)


_RENDER = {
    REG: lambda ins, regs, *_: f"r{next(regs)}",
    REG_OR_IMM: lambda ins, regs, *_:
        str(ins.imm) if ins.opcode in IMM_FORM else f"r{next(regs)}",
    TARGET: lambda ins, regs, pc, labels, _:
        labels.get(pc + 1 + ins.offset, str(ins.offset)),
    IMM_OR_MAP: _render_imm_or_map,
    CTX_OFF: lambda ins, *_: str(ins.offset),
    MEM_OFF: lambda ins, *_: str(ins.offset),
    HELPER: lambda ins, *_: HELPER_NAMES.get(ins.imm, str(ins.imm)),
}
