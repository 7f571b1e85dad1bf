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

Operands follow `isa.INSNS`.  At import each mnemonic is bound to its
operand plan: the opcode of its immediate form and one parser per
operand, each already told the instruction field it fills (registers
fill dst, then src) and, for a register-or-immediate operand, the
opcode of the register form that a register there selects.  A line
then costs one plan lookup and one call per operand.  Registers resolve
through an r0..r10 table; a token outside it goes to the regular
expression, which refuses r11 and accepts the r007 spelling.  A jump
target is a label or a bare relative offset, and a helper is a name or
a number.  `jmp` is an alias for `ja`.
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
    NUM_REGS,
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
_REGS = {f"r{n}": n for n in range(NUM_REGS)}

# an instruction being parsed is [opcode, dst, src, offset, imm, lineno]
_DST, _SRC, _OFF, _IMM = 1, 2, 3, 4


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
    pending: list[list] = []    # instructions being parsed

    for lineno, line in enumerate(source.splitlines(), start=1):
        if ";" in line or "#" in line:
            line = _COMMENT_RE.split(line, maxsplit=1)[0]
        line = line.strip()
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
        ops = parts[1].split(",") if len(parts) > 1 else ()

        plan = _PLANS.get(mnem)
        if plan is not None:
            opcode, parsers = plan
            if len(ops) != len(parsers):
                raise AsmError(f"{mnem} takes {len(parsers)} operand(s)",
                               lineno)
            insn = [opcode, 0, 0, 0, 0, lineno]
            for parse, tok in zip(parsers, map(str.strip, ops)):
                parse(tok, insn, lineno, decl_names)
            pending.append(insn)

        elif mnem == "section":
            if section is not None:
                raise AsmError("multiple section directives", lineno)
            if pending or decls:
                raise AsmError("section directive must come first", lineno)
            if len(ops) != 1 or ops[0].strip() not in SECTIONS:
                raise AsmError(
                    f"section must be one of {', '.join(SECTIONS)}", lineno
                )
            section = ops[0].strip()

        elif mnem == "map":
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

        else:
            raise AsmError(f"unknown mnemonic {mnem!r}", lineno)

    # a label stands in the offset field until every label is known
    insns = []
    for index, (opcode, dst, src, offset, imm, lineno) in enumerate(pending):
        if type(offset) is str:
            if offset not in labels:
                raise AsmError(f"unresolved label {offset!r}", lineno)
            offset = _i16(labels[offset] - (index + 1), "jump displacement",
                          lineno)
        insns.append(Instruction(opcode, dst, src, offset, imm))

    return FilterProgram(
        instructions=tuple(insns),
        sleepable=(section == "seccomp-sleepable"),
        map_refs=tuple(decls),
    )


# -- operand parsers: each fills its fields of the instruction being parsed

def _odd_reg(tok, lineno):
    """A register token outside `_REGS`: r007 is r7, the rest is refused."""
    m = _REG_RE.match(tok)
    if not m:
        raise AsmError(f"expected a register, got {tok!r}", lineno)
    n = int(m.group(1))
    if n >= NUM_REGS:
        raise AsmError(f"register out of range: {tok}", lineno)
    return n


def _reg(slot):
    def parse(tok, insn, lineno, decl_names):
        try:
            insn[slot] = _REGS[tok]
        except KeyError:
            insn[slot] = _odd_reg(tok, lineno)
    return parse


def _reg_or_imm(reg_opcode):
    def parse(tok, insn, lineno, decl_names):
        n = _REGS.get(tok)
        if n is None and not _REG_RE.match(tok):
            insn[_IMM] = _imm(tok, lineno)
            return
        insn[0] = reg_opcode
        insn[_SRC] = _odd_reg(tok, lineno) if n is None else n
    return parse


def _imm(tok, lineno):
    value = _parse_int(tok, lineno)
    if value >= 1 << 64 or value < -(1 << 63):
        raise AsmError(f"immediate out of 64-bit range: {value:#x}", lineno)
    return value - (1 << 64) if value >= 1 << 63 else value


def _i16(value, what, lineno):
    if not I16_MIN <= value <= I16_MAX:
        raise AsmError(f"{what} does not fit in i16", lineno)
    return value


def _offset(what):
    def parse(tok, insn, lineno, decl_names):
        insn[_OFF] = _i16(_parse_int(tok, lineno), what, lineno)
    return parse


def _target(tok, insn, lineno, decl_names):
    if _LABEL_RE.match(tok):
        insn[_OFF] = tok
    else:
        insn[_OFF] = _i16(_parse_int(tok, lineno), "jump displacement", lineno)


def _imm_or_map(tok, insn, lineno, decl_names):
    if not tok.startswith("map:"):
        insn[_IMM] = _imm(tok, lineno)
    elif tok[4:] not in decl_names:
        raise AsmError(f"reference to undeclared map {tok[4:]!r}", lineno)
    else:
        insn[_SRC] = LD_IMM64_MAP_REF
        insn[_IMM] = decl_names[tok[4:]]


def _helper(tok, insn, lineno, decl_names):
    helper = HELPERS_BY_NAME.get(tok)
    insn[_IMM] = _imm(tok, lineno) if helper is None else int(helper)


_PARSE = {TARGET: _target, IMM_OR_MAP: _imm_or_map,
          CTX_OFF: _offset("context offset"),
          MEM_OFF: _offset("memory offset"), HELPER: _helper}


def _plan(opcodes, kinds):
    regs = iter((_DST, _SRC))
    return opcodes[0], tuple(
        _reg(next(regs)) if kind == REG
        else _reg_or_imm(opcodes[-1]) if kind == REG_OR_IMM
        else _PARSE[kind] for kind in kinds)


# mnemonic -> (opcode of its first form, one bound parser per operand)
_PLANS = {mnem: _plan(opcodes, kinds)
          for mnem, (opcodes, kinds) in INSNS.items()}


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
