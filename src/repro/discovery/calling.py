"""Calling-convention discovery from the P/P2 call samples.

Register conventions (SPARC %o0/%o1, MIPS $4/$5, Alpha $16/$17) fall out
of the Preprocessor's implicit-argument detection plus value tracing
(which argument register receives ``b``); push conventions (x86, VAX)
are recovered from the pre-call instruction pattern whose repetition
count scales with the argument count -- including the stack clean-up
whose immediate scales likewise (paper Figure 4(a/b), Figure 15(e)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.discovery.asmmodel import DImm, DMem, DReg, DSym, Slot
from repro.discovery.branches import _operand_var
from repro.errors import DiscoveryError


@dataclass
class CallProtocol:
    kind: str = "reg"  # "reg" | "push"
    arg_regs: list = field(default_factory=list)  # in argument order
    push_instr: object = None  # template with Slot("value")
    first_arg_pushed_last: bool = True
    call_instr: object = None  # template with Slot("target") [, Slot("nargs")]
    nargs_slot: bool = False
    cleanup_instr: object = None  # template with Slot("cleanup")
    cleanup_stride: int = 0
    result_reg: str | None = None
    delay_filler: object = None  # glued instruction after the call, if any
    notes: list = field(default_factory=list)

    def describe(self):
        if self.kind == "reg":
            args = ", ".join(self.arg_regs)
            head = f"arguments in registers [{args}]"
        else:
            head = (
                "arguments pushed "
                + ("right-to-left" if self.first_arg_pushed_last else "left-to-right")
            )
            if self.cleanup_instr is not None:
                head += f", caller pops {self.cleanup_stride}/arg"
        return f"{head}; result in {self.result_reg}"


def _call_index(sample):
    """Index of the call in region_original (found by symbol reference;
    call_like indices refer to the post-elimination region)."""
    for index, instr in enumerate(sample.region_original):
        for op in instr.operands:
            if isinstance(op, DSym) and not op.prefix and op.name in ("P", "P2"):
                return index
    raise DiscoveryError(f"{sample.name}: call instruction not found")


class CallAnalysis:
    def __init__(self, engine, addr_map):
        self.engine = engine
        self.corpus = engine.corpus
        self.addr_map = addr_map

    def analyse(self):
        one = self._sample("a=P(b)")
        two = self._sample("a=P2(b,c)")
        protocol = CallProtocol()
        info = two.info
        call_idx_cur = self._current_call_index(two)
        outs = sorted(info.implicit_out.get(call_idx_cur, ()))
        if len(outs) == 1:
            protocol.result_reg = outs[0]
        ins = sorted(info.implicit_in.get(call_idx_cur, ()))
        # A register that also serves as a memory base in the region is a
        # stack pointer feeding *memory*-passed arguments (the paper's
        # unhandled fourth communication channel); it is not an argument
        # register itself.
        bases = {
            op.base
            for instr in two.region
            for op in instr.operands
            if isinstance(op, DMem) and op.base
        }
        ins = [reg for reg in ins if reg not in bases]
        if ins:
            self._register_protocol(protocol, two, call_idx_cur, ins)
        else:
            self._push_protocol(protocol, one, two)
        self._call_template(protocol, one, two)
        return protocol

    def _sample(self, shape):
        for sample in self.corpus.usable_samples(kind="call"):
            if sample.shape == shape and sample.info is not None:
                return sample
        raise DiscoveryError(f"call sample {shape} unavailable")

    @staticmethod
    def _current_call_index(sample):
        if not sample.info.call_like:
            raise DiscoveryError(f"{sample.name}: no call in region")
        return sample.info.call_like[0]

    # -- register conventions ---------------------------------------------

    def _register_protocol(self, protocol, two, call_idx, ins):
        protocol.kind = "reg"
        by_var = {}
        for reg in ins:
            var = self._arg_source_var(two, call_idx, reg)
            if var:
                by_var[var] = reg
        if "b" in by_var and "c" in by_var:
            protocol.arg_regs = [by_var["b"], by_var["c"]]
        else:
            protocol.arg_regs = list(ins)
            protocol.notes.append("argument order assumed from register order")
        extrapolated = _extrapolate_regs(protocol.arg_regs, self.corpus.syntax.registers)
        if extrapolated:
            protocol.arg_regs = extrapolated
            protocol.notes.append(f"register family extrapolated: {extrapolated}")

    def _arg_source_var(self, sample, call_idx, reg):
        """Trace an implicit call-argument register to the variable whose
        value it carries (the def instruction's memory/imm source)."""
        for live in sample.info.ranges:
            if live.reg == reg and live.flavor == "def":
                def_idx, _k = live.occurrences[0]
                if def_idx < call_idx:
                    source = _operand_var(sample, self.addr_map, def_idx, self._use_operand(sample, def_idx))
                    if source and source[0] == "var":
                        return source[1]
        return None

    @staticmethod
    def _use_operand(sample, instr_idx):
        instr = sample.region[instr_idx]
        for k, op in enumerate(instr.operands):
            kind = sample.info.visible_kinds.get((instr_idx, k))
            if kind in ("use", "usedef"):
                return k
            if isinstance(op, (DMem, DImm)):
                return k
        return 0

    # -- push conventions ------------------------------------------------------

    def _push_protocol(self, protocol, one, two):
        protocol.kind = "push"
        call1 = _call_index(one)
        call2 = _call_index(two)
        pre1 = [i.mnemonic for i in one.region_original[:call1]]
        pre2 = [i.mnemonic for i in two.region_original[:call2]]
        # Several mnemonics may scale with the argument count (the value
        # loads do, and a push may be a multi-instruction sequence like
        # the 68000's sub.l/move.l pair); the push proper is the scaling
        # mnemonic executed last before the call.
        candidates = [m for m in sorted(set(pre2)) if pre2.count(m) > pre1.count(m)]
        if not candidates:
            raise DiscoveryError("no per-argument push instruction found")
        push_mnemonic = max(
            candidates, key=lambda m: max(i for i, x in enumerate(pre2) if x == m)
        )

        def is_push(instr):
            """The push proper stores outside the variable frame (68000:
            ``move.l d0, (sp)``) or is a one-operand instruction with no
            memory reference (x86 ``pushl %eax``); plain variable loads
            and register moves share the mnemonic but don't qualify."""
            if instr.mnemonic != push_mnemonic:
                return False
            mems = [op for op in instr.operands if isinstance(op, DMem)]
            if mems:
                return any(self.addr_map.var_of(op) is None for op in mems)
            return len(instr.operands) == 1

        all_matching = [
            i
            for i, instr in enumerate(two.region_original[:call2])
            if instr.mnemonic == push_mnemonic
        ]
        filtered = [i for i in all_matching if is_push(two.region_original[i])]
        # VAX-style pushes read the variable slots directly; fall back to
        # every matching instruction when the filter removes them all.
        pushes = filtered or all_matching
        if not pushes:
            raise DiscoveryError("push instructions vanished under filtering")
        template = two.region_original[pushes[0]].clone(labels=[])
        template.operands = [
            Slot("value") if isinstance(op, (DReg, DMem, DImm)) else op
            for op in template.operands
        ]
        protocol.push_instr = template
        # Which push carries b (the first argument)?
        b_push = self._push_of_var(two, pushes, "b")
        protocol.first_arg_pushed_last = b_push == pushes[-1]
        # Clean-up: an instruction after the call whose immediate scales
        # with the argument count.
        self._cleanup(protocol, one, two, call1, call2)

    def _push_of_var(self, sample, pushes, var):
        for idx in pushes:
            instr = sample.region_original[idx]
            for k, op in enumerate(instr.operands):
                if isinstance(op, DMem) and self.addr_map.var_of(op) == var:
                    return idx
                if isinstance(op, DReg):
                    source = _operand_var(sample, self.addr_map, *self._region_original_occ(sample, idx, k))
                    if source == ("var", var):
                        return idx
        return None

    @staticmethod
    def _region_original_occ(sample, idx, k):
        # region_original and region agree up to removed instructions;
        # trace on the current region when the instruction survived.
        # Identical instructions (two `pushl %eax`) are matched by their
        # ordinal so each push keeps its own identity.
        instr = sample.region_original[idx]

        def same(other):
            return other.mnemonic == instr.mnemonic and other.operands == instr.operands

        ordinal = sum(1 for i in range(idx) if same(sample.region_original[i]))
        seen = 0
        for j, current in enumerate(sample.region):
            if same(current):
                if seen == ordinal:
                    return j, k
                seen += 1
        return idx, k

    def _cleanup(self, protocol, one, two, call1, call2):
        post1 = one.region_original[call1 + 1 :]
        post2 = two.region_original[call2 + 1 :]
        for instr2 in post2:
            imm2 = [op.value for op in instr2.operands if isinstance(op, DImm)]
            if not imm2:
                continue
            for instr1 in post1:
                if instr1.mnemonic != instr2.mnemonic:
                    continue
                imm1 = [op.value for op in instr1.operands if isinstance(op, DImm)]
                if len(imm1) == 1 and len(imm2) == 1 and imm2[0] == 2 * imm1[0] and imm1[0] > 0:
                    template = instr2.clone(labels=[])
                    template.operands = [
                        Slot("cleanup") if isinstance(op, DImm) else op
                        for op in template.operands
                    ]
                    protocol.cleanup_instr = template
                    protocol.cleanup_stride = imm1[0]
                    return

    # -- the call instruction itself ----------------------------------------------

    def _call_template(self, protocol, one, two):
        call1 = one.region_original[_call_index(one)]
        call2 = two.region_original[_call_index(two)]
        operands = []
        for op1, op2 in zip(call1.operands, call2.operands):
            if isinstance(op2, DSym):
                operands.append(Slot("target"))
            elif (
                isinstance(op1, DImm)
                and isinstance(op2, DImm)
                and (op1.value, op2.value) == (1, 2)
            ):
                operands.append(Slot("nargs"))
                protocol.nargs_slot = True
            else:
                operands.append(op2)
        protocol.call_instr = call2.clone(labels=[], operands=operands)
        # A glued successor is the delay-slot filler the Preprocessor
        # inserted when normalising (SPARC).
        idx = self._current_call_index(two)
        if idx + 1 < len(two.region) and two.region[idx + 1].glued:
            protocol.delay_filler = two.region[idx + 1].clone(labels=[], glued=False)


def _extrapolate_regs(arg_regs, universe, count=6):
    """[%o0, %o1] -> [%o0..%o5] when the family exists in the universe."""
    if len(arg_regs) < 2:
        return None
    head = arg_regs[0].rstrip("0123456789")
    try:
        numbers = [int(r[len(head):]) for r in arg_regs]
    except ValueError:
        return None
    if any(not r.startswith(head) for r in arg_regs):
        return None
    step = numbers[1] - numbers[0]
    if step == 0:
        return None
    out = []
    n = numbers[0]
    for _ in range(count):
        name = f"{head}{n}"
        if name not in universe:
            break
        out.append(name)
        n += step
    return out if len(out) >= len(arg_regs) else None
