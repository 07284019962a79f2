"""Symbolic linker for the simulated targets.

Combines object files, lays out the data section, and resolves symbolic
references: code labels become instruction indices, data labels become
absolute addresses, and runtime symbols (``printf``, ``exit``, the SPARC
``.mul`` family) become negative builtin indices.

Linking never mutates its input objects -- the discovery unit links the
same ``init.o`` against hundreds of mutated ``main.o`` files -- and
shares with the program every instruction that has no symbolic operand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LinkerError
from repro.machines.assembler import TextInstr
from repro.machines.executor import BUILTIN_BASE, Memory
from repro.machines.operands import Imm, Lab, Mem, Sym


@dataclass
class Program:
    """A linked, executable program."""

    isa: object
    instrs: list
    labels: dict
    data_labels: dict
    memory_image: Memory
    builtins: dict = field(default_factory=dict)
    builtin_names: dict = field(default_factory=dict)


def link(objects, isa, runtime):
    """Link *objects* (assembled for *isa*) against *runtime* builtins.

    ``runtime`` maps builtin names to callables ``fn(state, abi, isa)``.
    """
    if not objects:
        raise LinkerError("nothing to link")
    for obj in objects:
        if obj.isa_name != isa.name:
            raise LinkerError(
                f"object assembled for {obj.isa_name!r}, linking for {isa.name!r}"
            )

    renames = [_rename_map(obj, oid) for oid, obj in enumerate(objects)]

    # Pass 1: global code labels.
    code_labels = {}
    base = 0
    for obj, rename in zip(objects, renames):
        for name, index in obj.text_labels.items():
            local_index = len(obj.instrs) if index is None else index
            globalname = rename[name]
            if globalname in code_labels:
                raise LinkerError(f"duplicate symbol {globalname!r}")
            code_labels[globalname] = base + local_index
        base += len(obj.instrs)

    # Pass 2: data layout.
    memory = Memory(isa.endian)
    data_labels = {}
    cursor = isa.data_start
    for obj, rename in zip(objects, renames):
        for entry in obj.data:
            if entry.kind == "align":
                align = max(1, entry.value)
                cursor = (cursor + align - 1) // align * align
            for label in entry.labels:
                globalname = rename[label]
                if globalname in data_labels or globalname in code_labels:
                    raise LinkerError(f"duplicate symbol {globalname!r}")
                data_labels[globalname] = cursor
            if entry.kind == "long":
                size, values = entry.value
                # Values may be symbolic; patch in pass 3.  Reserve space now.
                cursor += size * len(values)
            elif entry.kind == "byte":
                memory.store_bytes(cursor, bytes(v & 0xFF for v in entry.value))
                cursor += len(entry.value)
            elif entry.kind == "asciz":
                data = entry.value.encode("latin-1")
                memory.store_bytes(cursor, data)
                cursor += len(data)
            elif entry.kind == "space":
                cursor += entry.value
            elif entry.kind == "align":
                pass
            else:
                raise LinkerError(f"unknown data kind {entry.kind!r}")

    builtin_ids = {}
    for i, name in enumerate(sorted(runtime)):
        builtin_ids[name] = BUILTIN_BASE - i

    def resolve_sym(sym, context):
        """*context* is the referring instruction, or a description."""
        if sym.name in code_labels:
            return code_labels[sym.name]
        if sym.name in data_labels:
            return data_labels[sym.name]
        if sym.name in builtin_ids:
            return builtin_ids[sym.name]
        if isinstance(context, TextInstr):
            context = f"{context.mnemonic} at line {context.lineno}"
        raise LinkerError(f"undefined symbol {sym.name!r} ({context})")

    # Pass 3: emit resolved instructions and patch symbolic data words.
    instrs = []
    for obj, rename in zip(objects, renames):
        for instr in obj.instrs:
            if not instr.symbolic:
                instrs.append(instr)
                continue
            operands = [
                _resolve_operand(op, rename, resolve_sym, instr) for op in instr.operands
            ]
            instrs.append(
                TextInstr(instr.mnemonic, instr.form, operands, instr.lineno, instr.text, False)
            )

    cursor = isa.data_start
    for obj, rename in zip(objects, renames):
        for entry in obj.data:
            if entry.kind == "align":
                align = max(1, entry.value)
                cursor = (cursor + align - 1) // align * align
            if entry.kind == "long":
                size, values = entry.value
                for value in values:
                    if isinstance(value, Sym):
                        value = resolve_sym(_renamed(value, rename), "data word")
                    memory.store(cursor, value, size)
                    cursor += size
            elif entry.kind == "byte":
                cursor += len(entry.value)
            elif entry.kind == "asciz":
                cursor += len(entry.value)
            elif entry.kind == "space":
                cursor += entry.value

    builtins = {}
    builtin_names = {}
    for name, pc in builtin_ids.items():
        fn = runtime[name]
        builtins[pc] = _bind_builtin(fn, isa)
        builtin_names[name] = pc

    labels = dict(code_labels)
    return Program(
        isa=isa,
        instrs=instrs,
        labels=labels,
        data_labels=data_labels,
        memory_image=memory,
        builtins=builtins,
        builtin_names=builtin_names,
    )


def _bind_builtin(fn, isa):
    def handler(state):
        fn(state, isa.abi, isa)

    return handler


def _rename_map(obj, oid):
    """Non-exported labels get an object-unique suffix, like a real linker
    treating them as local symbols."""
    rename = {}
    for name in obj.local_label_names():
        if name in obj.exports:
            rename[name] = name
        else:
            rename[name] = f"{name}@{oid}"
    return rename


def _renamed(sym, rename):
    return Sym(rename.get(sym.name, sym.name))


def _resolve_operand(op, rename, resolve_sym, instr):
    if isinstance(op, Lab) and isinstance(op.target, Sym):
        return Lab(resolve_sym(_renamed(op.target, rename), instr))
    if isinstance(op, Imm) and isinstance(op.value, Sym):
        return Imm(resolve_sym(_renamed(op.value, rename), instr))
    if isinstance(op, Mem) and isinstance(op.disp, Sym):
        return Mem(resolve_sym(_renamed(op.disp, rename), instr), op.base)
    return op
