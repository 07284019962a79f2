"""Machine-state interpreter for the simulated targets.

Executes a linked :class:`~repro.machines.linker.Program` instruction by
instruction.  Control transfer uses instruction indices; negative indices
denote runtime builtins (``printf``, ``exit``, SPARC ``.mul``...).  A fuel
counter bounds runaway executions, which mutation analysis can easily
produce.

Each simulated step is kept cheap without specialising anything per
program.  The register file is a dict keyed by canonical name that also
holds every hardwired register at its constant; the name-to-canonical
maps it reads and writes through are built once per :class:`Isa`.
:func:`read`, :func:`write` and :func:`effaddr` branch once on the
operand's type.  :class:`Memory` keeps its bytes in zero-filled pages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import wordops
from repro.errors import ExecutionError
from repro.machines.operands import Imm, Lab, Mem, Reg

#: pc sentinel meaning "main returned; stop"
HALT_INDEX = -1

#: first builtin id; builtin *i* lives at pc ``BUILTIN_BASE - i``
BUILTIN_BASE = -10

DEFAULT_FUEL = 500_000

#: bytes per :class:`Memory` page (a power of two)
PAGE = 4096
_PAGE_SHIFT = PAGE.bit_length() - 1
_OFFSET_MASK = PAGE - 1


class Memory:
    """Byte-addressed sparse memory with configurable endianness.

    Bytes live in zero-filled pages of :data:`PAGE` bytes, each created
    by the first store into it.  An access inside one page is one slice;
    one that straddles two pages goes byte by byte.

    Uninitialised bytes read as zero, which is deterministic; the
    discovery unit defends against lucky zeroes with register clobbering
    exactly as the paper prescribes.
    """

    def __init__(self, endian):
        if endian not in ("little", "big"):
            raise ValueError(f"bad endianness {endian!r}")
        self.endian = endian
        self._pages = {}

    def copy(self):
        clone = Memory(self.endian)
        clone._pages = {number: page[:] for number, page in self._pages.items()}
        return clone

    def _page(self, addr):
        """The page holding *addr*, created zero-filled if absent."""
        page = self._pages.get(addr >> _PAGE_SHIFT)
        if page is None:
            page = self._pages[addr >> _PAGE_SHIFT] = bytearray(PAGE)
        return page

    def _byte(self, addr):
        page = self._pages.get(addr >> _PAGE_SHIFT)
        return 0 if page is None else page[addr & _OFFSET_MASK]

    def load(self, addr, size, signed=False):
        offset = addr & _OFFSET_MASK
        if offset + size <= PAGE:
            page = self._pages.get(addr >> _PAGE_SHIFT)
            if page is None:
                return 0
            data = page[offset : offset + size]
        else:
            data = bytes(self._byte(addr + i) for i in range(size))
        value = int.from_bytes(data, self.endian)
        if signed:
            value = wordops.to_signed(value, size * 8)
        return value

    def store(self, addr, value, size):
        data = wordops.mask(value, size * 8).to_bytes(size, self.endian)
        offset = addr & _OFFSET_MASK
        if offset + size <= PAGE:
            self._page(addr)[offset : offset + size] = data
        else:
            self.store_bytes(addr, data)

    def store_bytes(self, addr, data):
        offset = addr & _OFFSET_MASK
        if offset + len(data) <= PAGE:
            self._page(addr)[offset : offset + len(data)] = data
        else:
            for i, byte in enumerate(data):
                self._page(addr + i)[(addr + i) & _OFFSET_MASK] = byte

    def load_cstring(self, addr, limit=4096):
        chars = bytearray()
        for i in range(limit):
            byte = self._byte(addr + i)
            if byte == 0:
                return chars.decode("latin-1")
            chars.append(byte)
        raise ExecutionError("unterminated string in target memory")


@dataclass
class ExecResult:
    """Outcome of one execution on the simulated target.

    Mutation analysis compares ``output`` strings; any ``error`` makes the
    run incomparable with a clean one.
    """

    output: str
    exit_code: int = 0
    steps: int = 0
    error: str | None = None

    @property
    def ok(self):
        return self.error is None

    def same_result(self, other):
        """The paper's mutation-success criterion: both runs succeed and
        print the same thing."""
        return self.ok and other.ok and self.output == other.output


class ExecState:
    """Registers, memory, condition codes and control state."""

    def __init__(self, isa, memory):
        self.isa = isa
        self.mem = memory
        self.word_bits = isa.word_bits
        self.word_bytes = isa.word_bits // 8
        self.word_mask = (1 << isa.word_bits) - 1
        self._read_map = isa.reg_read_map
        self._write_map = isa.reg_write_map
        self.regs = {
            r.name: 0 if r.hardwired is None else wordops.mask(r.hardwired, isa.word_bits)
            for r in isa.registers
        }
        # Signed comparison outcome, in the style every target's condition
        # codes can be projected onto: set by compare-like instructions.
        self.cc = {"lt": False, "eq": True, "gt": False}
        self.pc = 0
        self.output = []
        self.halted = False
        self.exit_code = 0
        self.steps = 0
        self._pending_target = None
        self._pending_delay = 0

    # -- registers ---------------------------------------------------

    def get_reg(self, name):
        try:
            return self.regs[self._read_map[name]]
        except KeyError:
            raise ExecutionError(f"unknown register {name!r}") from None

    def set_reg(self, name, value):
        canonical = self._write_map.get(name)
        if canonical is None:
            if name in self._read_map:
                return  # writes to hardwired registers are discarded
            raise ExecutionError(f"unknown register {name!r}")
        if type(value) is int:
            self.regs[canonical] = value & self.word_mask
        else:
            self.regs[canonical] = wordops.mask(value, self.word_bits)

    # -- control flow ------------------------------------------------

    def branch(self, target, delay=0):
        """Transfer control to instruction index *target* after *delay*
        further instructions (SPARC-style delay slots)."""
        if not isinstance(target, int):
            raise ExecutionError(f"unresolved branch target {target!r}")
        if delay <= 0:
            self.pc = target
        else:
            self._pending_target = target
            # +1 because the run loop decrements once at the end of the
            # branching instruction itself.
            self._pending_delay = delay + 1

    def compare_signed(self, a, b):
        a = wordops.to_signed(a, self.word_bits)
        b = wordops.to_signed(b, self.word_bits)
        self.cc = {"lt": a < b, "eq": a == b, "gt": a > b}


# -- operand access helpers (used by every target's semantics hooks) ---
#
# Each branches once on the operand's exact type, most frequent kind
# first; no class derives from Reg, Mem, Imm or Lab.


def effaddr(state, op):
    """Effective address of a memory operand."""
    if type(op) is not Mem:
        raise ExecutionError(f"not a memory operand: {op!r}")
    disp = op.disp
    if not isinstance(disp, int):
        raise ExecutionError(f"unresolved displacement {disp!r}")
    addr = state.get_reg(op.base) + disp if op.base else disp
    if type(addr) is int:
        return addr & state.word_mask
    return wordops.mask(addr, state.word_bits)


def read(state, op, size=None):
    """Read the value of an operand (register, immediate, or memory)."""
    kind = type(op)
    if kind is Reg:
        return state.get_reg(op.name)
    if kind is Mem:
        return state.mem.load(effaddr(state, op), size or state.word_bytes)
    if kind is Imm:
        value = op.value
        if type(value) is int:
            return value & state.word_mask
        if not isinstance(value, int) and not hasattr(value, "__sym_apply__"):
            raise ExecutionError(f"unresolved immediate {value!r}")
        return wordops.mask(value, state.word_bits)
    if kind is Lab:
        if not isinstance(op.target, int):
            raise ExecutionError(f"unresolved label {op.target!r}")
        return op.target
    raise ExecutionError(f"cannot read operand {op!r}")


def write(state, op, value, size=None):
    """Write *value* to a register or memory operand."""
    kind = type(op)
    if kind is Reg:
        state.set_reg(op.name, value)
    elif kind is Mem:
        state.mem.store(effaddr(state, op), value, size or state.word_bytes)
    else:
        raise ExecutionError(f"cannot write operand {op!r}")


def run(program, fuel=DEFAULT_FUEL):
    """Execute a linked program; never raises, returns :class:`ExecResult`."""
    isa = program.isa
    state = ExecState(isa, program.memory_image.copy())
    state.set_reg(isa.abi.stack_pointer, isa.stack_start)
    try:
        entry = program.labels["main"]
    except KeyError:
        return ExecResult(output="", error="undefined entry point 'main'")
    isa.abi.setup_entry(state, entry, HALT_INDEX)
    try:
        _run_loop(program, state, fuel)
    except ExecutionError as exc:
        return ExecResult(
            output="".join(state.output),
            exit_code=state.exit_code,
            steps=state.steps,
            error=str(exc),
        )
    return ExecResult(
        output="".join(state.output),
        exit_code=state.exit_code,
        steps=state.steps,
        error=None,
    )


def _run_loop(program, state, fuel):
    instrs = program.instrs
    builtins = program.builtins
    while not state.halted:
        state.steps += 1
        if state.steps > fuel:
            raise ExecutionError("out of fuel (runaway execution)")
        pc = state.pc
        if pc == HALT_INDEX:
            state.halted = True
            break
        if pc < 0:
            handler = builtins.get(pc)
            if handler is None:
                raise ExecutionError(f"jump to invalid builtin index {pc}")
            handler(state)
            state.isa.abi.do_return(state)
            continue
        if pc >= len(instrs):
            raise ExecutionError(f"execution fell off the program (pc={pc})")
        instr = instrs[pc]
        state.pc = pc + 1
        instr.form.execute(state, instr.operands)
        if state._pending_target is not None:
            state._pending_delay -= 1
            if state._pending_delay <= 0:
                state.pc = state._pending_target
                state._pending_target = None
