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

ALU and conditional-jump mnemonics take either a register or an
immediate second operand; the assembler selects the opcode variant.
`jmp` is accepted as an alias for `ja`.
"""

from __future__ import annotations

import re

from .isa import (
    ALU_BASE,
    ALU_FORMS,
    FilterProgram,
    HELPER_NAMES,
    HELPERS_BY_NAME,
    Helper,
    I16_MAX,
    I16_MIN,
    IMM_FORM,
    Instruction,
    JUMP_BASE,
    JUMP_FORMS,
    LD_IMM64_MAP_REF,
    MAP_KIND_NAMES,
    MAP_KINDS_BY_NAME,
    MapDecl,
    Opcode,
    SECTIONS,
)


class AsmError(ValueError):
    def __init__(self, msg: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


_LABEL_RE = re.compile(r"^[A-Za-z_.][\w.]*$")
_REG_RE = re.compile(r"^r(\d+)$")


def _parse_int(tok: str, lineno: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(f"expected a number, got {tok!r}", lineno) from None


def _parse_reg(tok: str, lineno: int) -> int:
    m = _REG_RE.match(tok)
    if not m:
        raise AsmError(f"expected a register, got {tok!r}", lineno)
    n = int(m.group(1))
    if n > 10:
        raise AsmError(f"register out of range: {tok}", lineno)
    return n


def _wrap_i64(value: int, lineno: int) -> int:
    if value >= 1 << 64 or value < -(1 << 63):
        raise AsmError(f"immediate out of 64-bit range: {value:#x}", lineno)
    if value >= 1 << 63:
        value -= 1 << 64
    return value


class _Pending:
    """An instruction whose jump target may still be unresolved."""

    __slots__ = ("opcode", "dst", "src", "imm", "target", "lineno", "offset")

    def __init__(self, opcode, dst=0, src=0, imm=0, target=None, offset=0, lineno=0):
        self.opcode = opcode
        self.dst = dst
        self.src = src
        self.imm = imm
        self.target = target
        self.offset = offset
        self.lineno = lineno


def assemble(source: str) -> FilterProgram:
    section = None
    decls: list[MapDecl] = []
    decl_names: dict[str, int] = {}
    labels: dict[str, int] = {}
    pending: list[_Pending] = []

    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = re.split(r"[;#]", raw_line, maxsplit=1)[0].strip()
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

    # resolve labels into relative jump offsets
    insns = []
    for index, p in enumerate(pending):
        offset = p.offset
        if p.target is not None:
            if p.target not in labels:
                raise AsmError(f"unresolved label {p.target!r}", p.lineno)
            offset = labels[p.target] - (index + 1)
        if not I16_MIN <= offset <= I16_MAX:
            raise AsmError("jump displacement does not fit in i16", p.lineno)
        insns.append(Instruction(p.opcode, p.dst, p.src, offset, p.imm))

    return FilterProgram(
        instructions=tuple(insns),
        sleepable=(section == "seccomp-sleepable"),
        map_refs=tuple(decls),
    )


def _jump_operand(tok: str):
    """A jump target is a label name or a bare relative offset."""
    try:
        return None, int(tok, 0)
    except ValueError:
        return tok, 0


def _parse_insn(mnem, ops, lineno, decl_names) -> _Pending:
    def need(n):
        if len(ops) != n:
            raise AsmError(f"{mnem} takes {n} operand(s)", lineno)

    if mnem in ALU_FORMS:
        need(2)
        dst = _parse_reg(ops[0], lineno)
        if _REG_RE.match(ops[1]):
            return _Pending(ALU_FORMS[mnem][1], dst,
                            _parse_reg(ops[1], lineno), lineno=lineno)
        imm = _wrap_i64(_parse_int(ops[1], lineno), lineno)
        return _Pending(ALU_FORMS[mnem][0], dst, imm=imm, lineno=lineno)

    if mnem in JUMP_FORMS:
        need(3)
        dst = _parse_reg(ops[0], lineno)
        target, offset = _jump_operand(ops[2])
        if _REG_RE.match(ops[1]):
            return _Pending(JUMP_FORMS[mnem][1], dst,
                            _parse_reg(ops[1], lineno),
                            target=target, offset=offset, lineno=lineno)
        imm = _wrap_i64(_parse_int(ops[1], lineno), lineno)
        return _Pending(JUMP_FORMS[mnem][0], dst, imm=imm,
                        target=target, offset=offset, lineno=lineno)

    if mnem in ("ja", "jmp"):
        need(1)
        target, offset = _jump_operand(ops[0])
        return _Pending(Opcode.JA, target=target, offset=offset, lineno=lineno)

    if mnem == "ld_imm64":
        need(2)
        dst = _parse_reg(ops[0], lineno)
        if ops[1].startswith("map:"):
            name = ops[1][4:]
            if name not in decl_names:
                raise AsmError(f"reference to undeclared map {name!r}", lineno)
            return _Pending(Opcode.LD_IMM64, dst, src=LD_IMM64_MAP_REF,
                            imm=decl_names[name], lineno=lineno)
        imm = _wrap_i64(_parse_int(ops[1], lineno), lineno)
        return _Pending(Opcode.LD_IMM64, dst, imm=imm, lineno=lineno)

    if mnem == "ld_ctx":
        need(2)
        dst = _parse_reg(ops[0], lineno)
        off = _parse_int(ops[1], lineno)
        if not I16_MIN <= off <= I16_MAX:
            raise AsmError("context offset does not fit in i16", lineno)
        return _Pending(Opcode.LD_CTX, dst, offset=off, lineno=lineno)

    if mnem in ("ld_map", "st_map"):
        need(3)
        dst = _parse_reg(ops[0], lineno)
        src = _parse_reg(ops[1], lineno)
        off = _parse_int(ops[2], lineno)
        if not I16_MIN <= off <= I16_MAX:
            raise AsmError("memory offset does not fit in i16", lineno)
        op = Opcode.LD_MAP if mnem == "ld_map" else Opcode.ST_MAP
        return _Pending(op, dst, src, offset=off, lineno=lineno)

    if mnem == "call":
        need(1)
        tok = ops[0]
        if tok in HELPERS_BY_NAME:
            helper = HELPERS_BY_NAME[tok]
        else:
            helper = _parse_int(tok, lineno)
        if helper == Helper.TAIL_CALL:
            raise AsmError("tail_call has a dedicated mnemonic", lineno)
        return _Pending(Opcode.CALL, imm=int(helper), lineno=lineno)

    if mnem == "tail_call":
        need(0)
        return _Pending(Opcode.TAIL_CALL, lineno=lineno)

    if mnem == "exit":
        need(0)
        return _Pending(Opcode.EXIT, lineno=lineno)

    raise AsmError(f"unknown mnemonic {mnem!r}", lineno)


# ---------------------------------------------------------------------------
# disassembly
# ---------------------------------------------------------------------------


def disassemble(program: FilterProgram) -> str:
    """Render a program back to assembly text.

    Jump targets get synthetic labels; assembling the result yields an
    instruction-identical program.
    """
    targets = set()
    for i, ins in enumerate(program.instructions):
        if ins.opcode == Opcode.JA or ins.opcode in JUMP_BASE:
            targets.add(i + 1 + ins.offset)
    labels = {t: f"L{t}" for t in sorted(targets)}

    lines = [f"section {program.section_name}"]
    for decl in program.map_refs:
        lines.append(
            f"map {decl.name} {MAP_KIND_NAMES[decl.kind]} "
            f"{decl.key_size} {decl.value_size} {decl.max_entries}"
        )
    for i, ins in enumerate(program.instructions):
        if i in labels:
            lines.append(f"{labels[i]}:")
        lines.append("    " + _render(ins, i, labels, program))
    # a trailing label (jump just past the end never verifies, but keep
    # the text round-trippable anyway)
    if len(program.instructions) in labels:
        lines.append(f"{labels[len(program.instructions)]}:")
    return "\n".join(lines) + "\n"


def _render(ins: Instruction, index: int, labels, program) -> str:
    op = ins.opcode
    rhs = str(ins.imm) if op in IMM_FORM else f"r{ins.src}"
    if op in ALU_BASE:
        return f"{ALU_BASE[op]} r{ins.dst}, {rhs}"
    if op in JUMP_BASE:
        target = labels[index + 1 + ins.offset]
        return f"{JUMP_BASE[op]} r{ins.dst}, {rhs}, {target}"
    if op == Opcode.JA:
        return f"ja {labels[index + 1 + ins.offset]}"
    if op == Opcode.LD_IMM64:
        if ins.src == LD_IMM64_MAP_REF:
            name = program.map_refs[ins.imm].name
            return f"ld_imm64 r{ins.dst}, map:{name}"
        imm = ins.imm if ins.imm >= 0 else ins.imm + (1 << 64)
        return f"ld_imm64 r{ins.dst}, {imm:#x}" if imm > 9 else \
            f"ld_imm64 r{ins.dst}, {imm}"
    if op == Opcode.LD_CTX:
        return f"ld_ctx r{ins.dst}, {ins.offset}"
    if op == Opcode.LD_MAP:
        return f"ld_map r{ins.dst}, r{ins.src}, {ins.offset}"
    if op == Opcode.ST_MAP:
        return f"st_map r{ins.dst}, r{ins.src}, {ins.offset}"
    if op == Opcode.CALL:
        name = HELPER_NAMES.get(ins.imm)
        return f"call {name}" if name else f"call {ins.imm}"
    if op == Opcode.TAIL_CALL:
        return "tail_call"
    if op == Opcode.EXIT:
        return "exit"
    raise AssertionError(f"unhandled opcode {op!r}")
