"""The Synthesizer (paper section 6): gather everything into a machine
description.

Emission rules are distilled from each operator's canonical sample: the
pure loads of ``@L1.b``/``@L1.c`` and the store of ``@L1.a`` are peeled
off, the remaining core becomes a template over ``left``/``right``/
``result``/``scratch`` placeholders, and the Combiner verifies that the
core's *composed semantics* equals the intermediate-code operator on
fresh value vectors -- multi-instruction rules (the VAX remainder
expansion, the Alpha compare+branch pair, SPARC ``call .mul``) fall out
of the same machinery, exactly the problem the paper's Combiner solves.
Immediate-operand rules carry the assembler-probed range CONDITION of
Figure 15(d); chain rules relate the discovered addressing modes.
"""

from __future__ import annotations

import random

from repro import wordops
from repro.beg.codegen import BackendError, RegisterClasses, bind_rule
from repro.beg.ir import OPERATOR_TABLE
from repro.beg.spec import MachineSpec, OpRule
from repro.discovery import probe
from repro.discovery.asmmodel import DImm, DMem, DReg, DSym, Slot, instantiate, template_slots
from repro.discovery.reverse_interp import interpret_region, opkey
from repro.errors import AssemblerError, DiscoveryError, LinkerError

#: ``Synthesizer._baseline_steps`` before the bare scaffold has run
_UNMEASURED = object()


class Synthesizer:
    def __init__(self, engine, addr_map, extraction, enq, log=None, seed=0x5EED):
        self.engine = engine
        self.corpus = engine.corpus
        self.syntax = engine.corpus.syntax
        self.machine = engine.corpus.machine
        self.addr_map = addr_map
        self.extraction = extraction
        self.sem = extraction.effects_map()
        self.enq = enq
        self.bits = enq.word_bits
        self.log = log or probe.ProbeLog()
        self.seed = seed
        self.rng = random.Random(seed)
        #: keys of the round-tripped load and store (see _move_templates)
        self._trusted_moves = None
        self._baseline_steps = _UNMEASURED
        self._common_safe_cache = None

    # ------------------------------------------------------------------

    def synthesize(self, branch_model=None, call_protocol=None, frame_model=None):
        spec = MachineSpec(
            target=self.machine.target,
            syntax=self.syntax,
            word_bits=self.bits,
            endian=self.enq.endian,
            int_size=self.enq.int_size,
            pointer_size=self.enq.pointer_size,
        )
        spec.semantics = dict(self.extraction.semantics)
        spec.branch = branch_model
        spec.call = call_protocol
        spec.frame = frame_model
        self._move_templates(spec)
        spec.reg_move = [self.reg_move_template(spec)]
        self._op_rules(spec)
        self._imm_rules(spec)
        self._break_cost_ties(spec)
        self._chain_rules(spec)
        self._allocatable(spec)
        self._register_classes(spec)
        return spec

    @staticmethod
    def _break_cost_ties(spec):
        """An operator with both a register rule and an *unrestricted*
        immediate rule at equal cost leaves instruction selection
        ambiguous (speclint SPEC033).  Break the tie with a documented
        secondary key: the rule-table name.  ``"rules"`` sorts after
        ``"imm_rules"``, so the register rule takes a ``cost_bias`` of
        +1 and the immediate rule wins the tie reproducibly.  The bias
        only affects the rendered COST (and the lint's cost model):
        the code generator prefers the immediate rule for any in-range
        constant operand regardless of cost, so emitted code is
        unchanged."""
        for ir_op in sorted(set(spec.rules) & set(spec.imm_rules)):
            reg_rule = spec.rules[ir_op]
            imm_rule = spec.imm_rules[ir_op]
            if imm_rule.imm_range is not None:
                continue
            if reg_rule.cost == imm_rule.cost:
                reg_rule.cost_bias = 1

    def _register_classes(self, spec):
        """Register classes for the branch rules and move templates,
        restricted to the final allocatable set."""
        allocatable = set(spec.allocatable)

        def restrict(classes):
            return {
                name: [r for r in allowed if r in allocatable]
                for name, allowed in classes.items()
            }

        if spec.branch:
            for rule in spec.branch.rules.values():
                classes = self._template_classes(rule.instrs)
                if classes is not None:
                    rule.slot_classes = restrict(classes)
        for templates, attr, slot in (
            (spec.load_template, "load_dest_class", "dest"),
            (spec.store_template, "store_src_class", "src"),
        ):
            classes = self._template_classes(templates)
            if classes is None:
                continue
            allowed = [r for r in classes.get(slot, []) if r in allocatable]
            setattr(spec, attr, allowed or None)
        loadimm_ok = [
            reg
            for reg in spec.allocatable
            if self._assembles_instantiated(
                [self.syntax.load_imm_instr(5, reg)], {}
            )
        ]
        spec.loadimm_class = loadimm_ok or None
        # Restrict op-rule classes to the allocatable set as well.
        for rule in list(spec.rules.values()) + list(spec.imm_rules.values()):
            if rule.slot_classes:
                rule.slot_classes = restrict(rule.slot_classes)

    # -- load/store/move templates -------------------------------------------

    def _move_templates(self, spec):
        loads = self._move_candidates(want_mem_source=True)
        stores = self._move_candidates(want_mem_source=False)
        if not loads or not stores:
            raise DiscoveryError("no load/store move instructions discovered")
        # A pure-move semantics extracted from a multi-instruction core
        # can be wrong in isolation (the VAX mcoml/bicl3 AND expansion
        # makes mcoml look like an identity move): validate the chosen
        # pair by a runtime round trip through a frame slot.
        for load in loads:
            for store in stores:
                load_tpl = [self._slotify_move(load, "slot", "dest")]
                store_tpl = [self._slotify_move(store, "src", "slot")]
                if self._moves_round_trip(spec, load_tpl, store_tpl):
                    spec.load_template = load_tpl
                    spec.store_template = store_tpl
                    # Only these *validated* moves may be peeled off a
                    # sample region as pure loads/stores when rules are
                    # distilled; a look-alike identity (VAX mcoml) must
                    # stay inside the computational core.
                    self._trusted_moves = {load.key, store.key}
                    return
        raise DiscoveryError("no load/store template pair survives the round trip")

    def _move_candidates(self, want_mem_source):
        """Instructions whose discovered semantics is a pure value move;
        for loads the source is memory, for stores the target is."""
        candidates = []
        for _key, op_sem in self.sem_items():
            if len(op_sem.effects) != 1:
                continue
            (target, term), = op_sem.effects
            if term[0] != "val":
                continue
            source_op = op_sem.example.operands[term[1]]
            if want_mem_source:
                if target[0] in ("op", "mem") and isinstance(source_op, DMem):
                    rank = 1 if target[0] == "op" else 0  # prefer reg dest
                    candidates.append((rank, len(op_sem.samples), op_sem))
            else:
                if target[0] == "mem":
                    rank = 1 if isinstance(source_op, DReg) else 0
                    candidates.append((rank, len(op_sem.samples), op_sem))
        candidates.sort(key=lambda item: (-item[0], -item[1]))
        return [op_sem for _r, _n, op_sem in candidates]

    def _moves_round_trip(self, spec, load_tpl, store_tpl):
        """Execute loadimm -> store -> load -> store-to-print-slot ->
        print on the target; the probe value must come back unchanged."""
        frame = spec.frame
        if frame is None or len(frame.slots) < 2 or not frame.print_template:
            return True  # no runtime scaffold available; trust the ranking
        pool = self._register_pool()
        if len(pool) < 2:
            return True
        value = 30313
        body = [self.syntax.load_imm_instr(value, pool[0])]
        body += instantiate(store_tpl, {"src": DReg(pool[0]), "slot": frame.slots[0]})
        body += instantiate(load_tpl, {"slot": frame.slots[0], "dest": DReg(pool[1])})
        result = self._run_scaffold(frame, store_tpl, body, pool[1])
        return _printed(result, value)

    def sem_items(self):
        return sorted(self.extraction.semantics.items())

    def _slotify_move(self, op_sem, source_slot, target_slot):
        (target, term), = op_sem.effects
        instr = op_sem.example.clone(labels=[])
        operands = list(instr.operands)
        operands[term[1]] = Slot(source_slot)
        if target[0] in ("op", "mem"):
            operands[target[1]] = Slot(target_slot)
        instr.operands = operands
        return instr

    def reg_move_template(self, spec):
        """A register-to-register move: a discovered identity
        instruction, or an add-immediate-zero fallback.  Reverse
        interpretation can mistake a non-move for an identity when the
        samples never separate the two readings (the VAX ``subl3 src,
        $imm, dest`` shape looks like ``dest = src`` in every sample
        that contains it), so no candidate is accepted on its extracted
        semantics alone: each must survive a runtime round trip with
        register operands substituted in."""
        candidates = []
        for _key, op_sem in self.sem_items():
            if len(op_sem.effects) != 1:
                continue
            (target, term), = op_sem.effects
            if term[0] != "val" or target[0] not in ("op", "mem"):
                continue
            if target[1] == term[1]:
                continue
            instr = op_sem.example.clone(labels=[])
            ops = list(instr.operands)
            ops[term[1]] = Slot("src")
            ops[target[1]] = Slot("dest")
            instr.operands = ops
            # Prefer examples that already used a register source; the
            # others only work if the instruction's forms also accept
            # registers, which the round-trip assembly step checks.
            rank = 0 if isinstance(op_sem.example.operands[term[1]], DReg) else 1
            candidates.append((rank, instr))
        # Fallback: dest = add(src, 0).
        for _key, op_sem in self.sem_items():
            if len(op_sem.effects) != 1:
                continue
            (target, term), = op_sem.effects
            if target[0] != "op" or term[0] != "add":
                continue
            leaves = term[1:]
            imm_positions = [
                leaf
                for leaf in leaves
                if leaf[0] == "val"
                and isinstance(op_sem.example.operands[leaf[1]], DImm)
            ]
            reg_positions = [
                leaf
                for leaf in leaves
                if leaf[0] == "val"
                and isinstance(op_sem.example.operands[leaf[1]], DReg)
            ]
            if len(imm_positions) == 1 and len(reg_positions) == 1:
                instr = op_sem.example.clone(labels=[])
                ops = list(instr.operands)
                ops[imm_positions[0][1]] = DImm(0, self.syntax.imm_prefix)
                ops[reg_positions[0][1]] = Slot("src")
                ops[target[1]] = Slot("dest")
                instr.operands = ops
                candidates.append((2, instr))
        if not candidates:
            raise DiscoveryError("no register-move instruction derivable")
        candidates.sort(key=lambda item: item[0])
        for _rank, instr in candidates:
            if self._reg_move_round_trip(spec, [instr]):
                return instr
        raise DiscoveryError("no register-move template survives the round trip")

    def _reg_move_round_trip(self, spec, move_tpl):
        """Execute loadimm -> candidate move -> store -> print on the
        target; the probe value must come back unchanged."""
        frame = spec.frame
        if frame is None or not frame.slots or not frame.print_template:
            return True  # no runtime scaffold available; trust the ranking
        pool = self._register_pool()
        if len(pool) < 2:
            return True
        value = 46279
        body = [self.syntax.load_imm_instr(value, pool[0])]
        try:
            body += instantiate(move_tpl, {"src": DReg(pool[0]), "dest": DReg(pool[1])})
        except KeyError:
            return False  # template never consumed the source register
        result = self._run_scaffold(frame, spec.store_template, body, pool[1])
        return _printed(result, value)

    # -- operator rules ---------------------------------------------------------

    def _op_rules(self, spec):
        binary = [row for row in OPERATOR_TABLE if row.arity == 2]
        for row in binary:
            sample = self._rule_sample("binary", row.spelling, "a=b@c")
            if sample is None:
                spec.notes.append(f"no usable sample for {row.ir}")
                continue
            try:
                rule = self._build_rule(sample, row.ir)
            except DiscoveryError as exc:
                spec.notes.append(f"{row.ir}: {exc}")
                continue
            self._verify_rule(rule, sample, row)
            if self._probe_rule(spec, rule) and self._runtime_check_rule(spec, rule, row):
                spec.rules[row.ir] = rule
                continue
            # Register-constrained scratch positions (the x86 shift count
            # must be %ecx): fall back to literal scratch registers.
            literal = self._build_rule(sample, row.ir, keep_scratch_literal=True)
            literal.verified = rule.verified
            if self._probe_rule(spec, literal) and self._runtime_check_rule(spec, literal, row):
                spec.rules[row.ir] = literal
            else:
                spec.notes.append(f"{row.ir}: template failed probing")
        # Operators with no usable sample fall back to the Combiner's
        # exhaustive combination search over the semantics table.
        missing = [row for row in binary if row.ir not in spec.rules]
        if missing:
            from repro.discovery.combiner import Combiner

            combiner = Combiner(self.extraction.semantics, bits=self.bits, seed=self.seed)
            for row in missing:
                rule = combiner.as_rule(row.ir)
                if rule is None:
                    continue
                if self._probe_rule(spec, rule) and self._runtime_check_rule(
                    spec, rule, row
                ):
                    spec.rules[row.ir] = rule
                    spec.notes.append(f"{row.ir}: rule found by the Combiner")
        for row in OPERATOR_TABLE:
            if row.arity != 1:
                continue
            sample = self._rule_sample("unary", row.spelling, f"a={row.spelling}b")
            if sample is None:
                continue
            try:
                rule = self._build_rule(sample, row.ir)
            except DiscoveryError as exc:
                spec.notes.append(f"{row.ir}: {exc}")
                continue
            self._verify_rule(rule, sample, row)
            if self._probe_rule(spec, rule) and self._runtime_check_rule(spec, rule, row):
                spec.rules[row.ir] = rule

    def _imm_rules(self, spec):
        for row in OPERATOR_TABLE:
            if row.arity != 2:
                continue
            sample = self._rule_sample("binary", row.spelling, "a=b@K")
            if sample is None:
                continue
            try:
                rule = self._build_rule(sample, row.ir, imm_right=True)
            except DiscoveryError:
                continue
            if "imm" not in rule.slots_used():
                continue
            self._verify_rule(rule, sample, row)
            if not self._probe_rule(spec, rule):
                continue
            if not self._runtime_check_rule(spec, rule, row, imm=sample_konst(sample)):
                continue
            rule.imm_range = self._rule_imm_range(spec, sample, rule)
            spec.imm_rules[row.ir] = rule

    def _rule_sample(self, kind, c_op, shape):
        for sample in self.corpus.usable_samples(kind=kind):
            if sample.op == c_op and sample.shape == shape:
                if all(opkey(i) in self.sem for i in sample.region if i.mnemonic):
                    return sample
        return None

    # -- rule construction -------------------------------------------------------

    def _classify_region(self, sample):
        """Split the region into pure loads of b/c, the pure store of a,
        and the computational core."""
        loads = {}
        store_idx = None
        core = []
        trusted = self._trusted_moves
        for index, instr in enumerate(sample.region):
            if not instr.mnemonic:
                continue
            effects = self.sem.get(opkey(instr))
            role = None
            if trusted is not None and opkey(instr) not in trusted:
                effects = None  # only validated moves are peeled
            if effects is not None and len(effects) == 1:
                (target, term), = effects
                if target[0] == "op" and term[0] == "val":
                    src = instr.operands[term[1]]
                    if isinstance(src, DMem):
                        var = self.addr_map.var_of(src)
                        if var in ("b", "c", "a"):
                            loads[index] = var
                            role = "load"
                if target[0] == "mem" and term[0] == "val":
                    dst = instr.operands[target[1]]
                    src = instr.operands[term[1]] if term[1] < len(instr.operands) else None
                    if (
                        isinstance(dst, DMem)
                        and self.addr_map.var_of(dst) == "a"
                        and isinstance(src, DReg)
                    ):
                        store_idx = index
                        role = "store"
            if role is None:
                core.append(index)
        return loads, store_idx, core

    def _range_of(self, sample, occ):
        for live in sample.info.ranges:
            if occ in live.occurrences:
                return live
        return None

    def _build_rule(self, sample, ir_op, imm_right=False, keep_scratch_literal=False):
        loads, store_idx, core = self._classify_region(sample)
        if not core:
            raise DiscoveryError("empty computation core")
        info = sample.info

        # Name each live range.
        range_names = {}
        scratch_count = 0
        result_literal = None

        def range_key(live):
            return (live.reg, tuple(live.occurrences))

        for live in info.ranges:
            if not live.resolved:
                continue
            def_occ = live.occurrences[0]
            use_occs = live.occurrences[1:]
            name = None
            if def_occ[0] in loads:
                var = loads[def_occ[0]]
                name = {"b": "left", "c": "right", "a": "left"}[var]
            if store_idx is not None and any(o[0] == store_idx for o in use_occs):
                # feeds the store: this is the result (possibly also left
                # on two-address machines).
                name = "result"
            if name is not None:
                range_names[range_key(live)] = name
        two_address = False
        for live in info.ranges:
            if not live.resolved:
                continue
            if range_key(live) in range_names:
                if (
                    range_names[range_key(live)] == "result"
                    and live.occurrences[0][0] in loads
                ):
                    two_address = True
                continue
            if keep_scratch_literal:
                continue  # the register stays literal in the template
            range_names[range_key(live)] = f"scratch{scratch_count}"
            scratch_count += 1

        # The store may read a register never defined by a visible range
        # (the x86 idivl result): keep it literal and record it.
        if store_idx is not None:
            store = sample.region[store_idx]
            for k, op in enumerate(store.operands):
                if isinstance(op, DReg):
                    live = self._range_of(sample, (store_idx, k))
                    if live is None or not live.resolved:
                        result_literal = op.name

        # Build the template from the core.
        template = []
        for index in core:
            instr = sample.region[index]
            operands = []
            for k, op in enumerate(instr.operands):
                slot = None
                if isinstance(op, DReg):
                    live = self._range_of(sample, (index, k))
                    if live is not None and range_key(live) in range_names:
                        slot = Slot(range_names[range_key(live)])
                elif isinstance(op, DMem):
                    var = self.addr_map.var_of(op)
                    if var == "b":
                        slot = Slot("left")
                    elif var == "c":
                        slot = Slot("right")
                    elif var == "a":
                        slot = Slot("result")
                elif isinstance(op, DImm) and imm_right and op.value == sample_konst(sample):
                    slot = Slot("imm")
                operands.append(slot if slot is not None else op)
            template.append(instr.clone(labels=[], operands=operands, glued=False))

        return OpRule(
            ir_op=ir_op,
            instrs=template,
            right_imm=imm_right,
            scratches=scratch_count,
            source_sample=sample.name,
            two_address=two_address,
            result_literal=result_literal,
        )

    # -- the Combiner's semantic verification -----------------------------------

    def _verify_rule(self, rule, sample, row):
        """Interpret the sample region under fresh initialisation values;
        the composed semantics must match the IR operator *row* (3
        random vectors)."""
        from repro.discovery import values as mc

        checks = 0
        for _ in range(8):
            if row.arity == 1:
                b = mc.choose_single(self.rng, self.bits)
                values = {"a": 11, "b": b, "c": 7}
                expected = row.word(b, self.bits)
            else:
                try:
                    b, c = mc.choose_pair(
                        self.rng,
                        self.bits,
                        constraint=_op_constraint(row),
                        op=row.spelling,
                    )
                except RuntimeError:
                    continue
                values = {"a": 11, "b": b, "c": c}
                right = sample_konst(sample) if rule.right_imm else c
                expected = row.word(b, right, self.bits)
            try:
                state = interpret_region(
                    _with_values(sample, values), self.sem, self.addr_map, self.bits
                )
            except Exception:
                return
            if state.mem.get(("var", "a")) != wordops.mask(expected, self.bits):
                return
            checks += 1
            if checks >= 3:
                rule.verified = True
                return

    # -- assembler probing of instantiated templates ------------------------------

    def _probe_rule(self, spec, rule):
        classes = self._template_classes(rule.instrs)
        if classes is None:
            return False
        rule.slot_classes = classes
        return True

    def _register_pool(self):
        return [
            r
            for r in self.engine.functional_registers()
            if r in self._common_safe()
        ]

    def _assembles_instantiated(self, templates, mapping):
        body = [
            self.syntax.render_instr(instr)
            for instr in instantiate(templates, mapping)
        ]
        # Lprobe hosts any Slot("label") reference; defining it is
        # harmless when unused.
        program = ".text\n.globl main\nmain:\nLprobe:\n" + "\n".join(body) + "\n"
        return self.machine.assembles_ok(program)

    def _template_classes(self, templates):
        """Probe which allocatable registers each register slot of
        *templates* accepts -- the register classes a BEG description
        must declare -- varying one slot at a time from a baseline
        assignment; None when no assignment assembles at all."""
        baseline = self._baseline_assignment(templates)
        if baseline is None:
            return None
        pool = self._register_pool()
        classes = {}
        for name in sorted(baseline):
            if not isinstance(baseline[name], DReg):
                continue
            allowed = []
            for reg in pool:
                mapping = dict(baseline)
                mapping[name] = DReg(reg)
                if self._assembles_instantiated(templates, mapping):
                    allowed.append(reg)
            classes[name] = allowed
        return classes

    def _fixed_operands(self, slots):
        """The probe operand of each slot that never takes a register:
        an immediate, the ``Lprobe`` label, a frame slot."""
        fixed = {}
        if "imm" in slots:
            fixed["imm"] = DImm(3, self.syntax.imm_prefix)
        if "label" in slots:
            fixed["label"] = DSym("Lprobe")
        if "slot" in slots:
            fixed["slot"] = DMem(*self.addr_map.slots["a"])
        return fixed

    def _baseline_assignment(self, templates, rotations=8):
        """An assignment of operands to every slot of *templates* the
        assembler accepts -- register-class targets reject some register
        choices, so several rotations of the pool are tried."""
        pool = self._register_pool()
        if not pool:
            return None
        slots = template_slots(templates)
        fixed = self._fixed_operands(slots)
        register_slots = sorted(slots - fixed.keys())
        for offset in range(min(len(pool), rotations)):
            mapping = dict(fixed)
            for index, name in enumerate(register_slots, offset):
                mapping[name] = DReg(pool[index % len(pool)])
            if self._assembles_instantiated(templates, mapping):
                return mapping
        return None

    #: per-operator probe vectors for runtime rule verification
    _CHECK_VECTORS = {
        "/": (34117, 109),
        "%": (34118, 109),
        "<<": (503, 3),
        ">>": (-3907, 3),
    }

    def _runtime_check_rule(self, spec, rule, row, imm=None):
        """Execute the instantiated rule on the target and compare with
        the intermediate-code operator -- the Combiner's last word.  The
        rule's slots are bound as the back end binds them, over this
        Synthesizer's register pool."""
        frame = spec.frame
        if frame is None or not frame.print_template or not spec.load_template:
            return True  # no runtime scaffold; accept the semantic check
        literal_regs = _rule_literal_regs(rule)
        pool = [r for r in self._register_pool() if r not in literal_regs]
        needed = rule.slots_used()
        regs_needed = sum(1 for n in needed if n not in ("imm", "label"))
        if rule.two_address and "result" not in needed:
            regs_needed += 1
        if len(pool) < regs_needed + 1:
            return True
        left, right = self._CHECK_VECTORS.get(row.spelling, (60, 23))
        if imm is not None:
            right = imm
        operands = (left, right)[: row.arity]
        expected = wordops.to_signed(row.word(*operands, self.bits), self.bits)
        try:
            binding = bind_rule(
                rule,
                RegisterClasses(pool),
                right=True,
                imm=None if imm is None else DImm(imm, self.syntax.imm_prefix),
            )
        except BackendError:
            return False
        if binding.out_reg is None:
            return True
        inputs = binding.input_regs
        body = [
            self.syntax.load_imm_instr(value, inputs[name])
            for name, value in (("left", left), ("right", right))
            if name in inputs
        ]
        body.extend(instantiate(rule.instrs, binding.mapping))
        result = self._run_scaffold(frame, spec.store_template, body, binding.out_reg)
        ok = _printed(result, expected)
        if ok:
            rule.runtime_verified = True
            # "At the present time only crude instruction timings are
            # performed" (paper section 7.2.1): the rule's COST is the
            # measured execution-step delta over an empty scaffold.
            baseline = self._scaffold_baseline_steps(spec)
            if baseline is not None and result.steps > baseline:
                rule.cost_steps = result.steps - baseline
        return ok

    def _scaffold_baseline_steps(self, spec):
        """Steps of the bare store+print+exit scaffold (cached)."""
        if self._baseline_steps is _UNMEASURED:
            frame = spec.frame
            pool = self._register_pool()
            result = None
            if frame is not None and pool:
                body = [self.syntax.load_imm_instr(1, pool[0])]
                result = self._run_scaffold(frame, spec.store_template, body, pool[0])
            self._baseline_steps = result.steps if result is not None and result.ok else None
        return self._baseline_steps

    def _run_scaffold(self, frame, store_template, body, out_reg):
        """Run a scaffold on the target: *frame*'s data and prologue, the
        *body* instructions, a store of *out_reg* to the print slot
        through *store_template*, the print idiom and the exit idiom.

        Returns the execution result, or None when the assembler or the
        linker rejects the program.  A target failure propagates: an
        outage interrupts synthesis instead of dropping the rule a
        scaffold was checking."""
        print_slot = frame.slots[-1]
        instrs = list(body)
        instrs += instantiate(store_template, {"src": DReg(out_reg), "slot": print_slot})
        instrs += instantiate(frame.print_template, {"print_slot": print_slot})
        instrs += instantiate(frame.exit_template, {})
        lines = [self.syntax.render_instr(instr) for instr in instrs]
        program = "\n".join(frame.data_lines + frame.prologue_lines + lines) + "\n"
        try:
            return self.machine.run_asm([program])
        except (AssemblerError, LinkerError):
            return None

    def _rule_imm_range(self, spec, sample, rule):
        """Probe the accepted range of the rule's immediate operand and
        record it in the spec's per-instruction range table."""
        for instr in rule.instrs:
            for k, op in enumerate(instr.operands):
                if isinstance(op, Slot) and op.name == "imm":
                    mapping = self._baseline_assignment(rule.instrs)
                    if mapping is None:
                        return None
                    concrete = instantiate([instr], mapping)[0]
                    base_imm = sample_konst(sample)
                    concrete.operands[k] = DImm(
                        base_imm if base_imm is not None else 0,
                        self.syntax.imm_prefix,
                    )
                    try:
                        lo, hi = probe.immediate_range(
                            self.machine, self.syntax, concrete, k, self.log
                        )
                    except DiscoveryError:
                        return None
                    limit = 2**31
                    if lo <= -limit and hi >= limit - 1:
                        return None  # unrestricted
                    spec.imm_ranges[(instr.mnemonic, k)] = (lo, hi)
                    return (lo, hi)
        return None

    # -- chain rules ----------------------------------------------------------------

    def _chain_rules(self, spec):
        """Addressing-mode equivalences by small-constant assignment
        (paper Figure 15(b,c)): disp(base) with disp=0 is plain (base);
        mode semantics in the style of Figure 13's ``d_r+c``."""
        modes = set()
        for _key, op_sem in self.sem_items():
            for op in op_sem.example.operands:
                if isinstance(op, DMem):
                    modes.add(op.mode_id())
        semantics_of = {
            "paren+disp": "loadAddr(add(reg, disp))",
            "paren": "loadAddr(reg)",
            "bracket+disp": "loadAddr(add(reg, disp))",
            "bracket": "loadAddr(reg)",
            "abs": "loadAddr(disp)",
        }
        for mode in sorted(modes):
            spec.addressing_modes[mode] = semantics_of.get(mode, "loadAddr(?)")
        if any("+disp" in mode for mode in modes):
            base_mode = next(m for m in sorted(modes) if "+disp" in m)
            bare = base_mode.replace("+disp", "")
            # The chain rule introduces the bare mode even when no sample
            # exercised it; declare its semantics so the description stays
            # closed under its own rewrite rules.
            spec.addressing_modes.setdefault(
                bare, semantics_of.get(bare, "loadAddr(?)")
            )
            spec.chain_rules.append(
                f"AddrMode[{base_mode}].a -> AddrMode[{bare}]  CONDITION {{ a.disp = 0 }};"
            )
            spec.chain_rules.append(
                f"AddrMode[{bare}].a -> AddrMode[{base_mode}]  EVAL {{ disp := 0 }};"
            )

    # -- allocatable registers ----------------------------------------------------------

    def _common_safe(self):
        if self._common_safe_cache is None:
            sets = []
            for sample in self.corpus.usable_samples(kind="literal"):
                sets.append(set(self.engine.clobber_safe_registers(sample)))
                break
            self._common_safe_cache = set.intersection(*sets) if sets else set()
        return self._common_safe_cache

    def _allocatable(self, spec):
        literal_regs = set()
        for rule in list(spec.rules.values()) + list(spec.imm_rules.values()):
            literal_regs |= _rule_literal_regs(rule)
        if spec.branch:
            for brule in spec.branch.rules.values():
                for instr in brule.instrs:
                    literal_regs.update(
                        op.name for op in instr.operands if isinstance(op, DReg)
                    )
        protocol_regs = set()
        if spec.call:
            protocol_regs.update(spec.call.arg_regs or ())
            if spec.call.result_reg:
                protocol_regs.add(spec.call.result_reg)
            for template in (
                spec.call.push_instr,
                spec.call.call_instr,
                spec.call.cleanup_instr,
                spec.call.delay_filler,
            ):
                if template is not None:
                    protocol_regs.update(_instr_regs(template))
        if spec.frame:
            from repro.discovery.lexer import tokenize_region

            for instr in tokenize_region(spec.frame.prologue_lines, self.syntax):
                protocol_regs.update(_instr_regs(instr))
            for instr in spec.frame.print_template + spec.frame.exit_template:
                protocol_regs.update(_instr_regs(instr))
        base_regs = set()
        for sample in self.corpus.usable_samples():
            for instr in sample.region:
                for op in instr.operands:
                    if isinstance(op, DMem) and op.base:
                        base_regs.add(op.base)
            break
        if spec.frame:
            for mem in spec.frame.slots:
                if mem.base:
                    base_regs.add(mem.base)
        functional = set(self.engine.functional_registers())
        safe = self._common_safe()
        allocatable = sorted(
            functional & safe - literal_regs - protocol_regs - base_regs
        )
        spec.allocatable = allocatable
        # The paper: "we currently do not test for registers with
        # hardwired values (register %g0 is always 0 on the Sparc), and
        # so the BEG specification fails to indicate that such registers
        # are not available for allocation."  We do test, and also probe
        # the constant itself.
        for reg in sorted(set(self.syntax.registers) - functional):
            value = self.engine.hardwired_value(reg)
            if value is not None:
                spec.register_notes[reg] = f"hardwired to {value}"
            else:
                spec.register_notes[reg] = "fails the value-holding probe"

    # -- report -------------------------------------------------------------------


def _printed(result, value):
    """Did a scaffold run cleanly and print exactly *value*?"""
    return result is not None and result.ok and result.output == f"{value}\n"


def _rule_literal_regs(rule):
    regs = set()
    for instr in rule.instrs:
        regs |= _instr_regs(instr)
    if rule.result_literal:
        regs.add(rule.result_literal)
    return regs


def _instr_regs(instr):
    regs = set()
    for op in instr.operands:
        if isinstance(op, DReg):
            regs.add(op.name)
        elif isinstance(op, DMem) and op.base:
            regs.add(op.base)
    return regs


def sample_konst(sample):
    """The literal constant appearing in a K-shaped sample statement."""
    import re

    match = re.search(r"-?\d+", sample.statement.replace("a", " ").replace("b", " ").replace("c", " "))
    return int(match.group()) if match else None


def _with_values(sample, values):
    clone = type(sample)(
        name=sample.name,
        kind=sample.kind,
        op=sample.op,
        shape=sample.shape,
        statement=sample.statement,
        values=values,
    )
    clone.region = sample.region
    clone.info = sample.info
    clone.expected_output = sample.expected_output
    return clone


def _op_constraint(row):
    if row.divisor:
        return lambda x, y: x > y * 3 and x % y != 0
    if row.shift:
        return lambda x, y: 2 <= y <= 8 and x > 300
    return None
