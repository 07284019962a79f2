"""The Preprocessor: mutation-analysis passes (paper section 4).

Four passes turn a raw tokenized region into a form the Extractor can
interpret:

1. **Delay-slot normalisation** -- the SPARC moves an argument set-up
   instruction into the call's delay slot (Figure 4c); detected by
   showing that separating call and successor with a filler changes the
   result, and repaired by hoisting the successor back above the call.
2. **Redundant-instruction elimination** (Figure 6) -- delete each
   instruction under register clobbering; remove it permanently when
   every variant matches the original output.
3. **Live-range splitting** (Figure 7) -- partition each register's
   occurrences into ranges by growing rename regions backwards; ranges
   whose definition (or use) is invisible expose implicit arguments.
4. **Implicit-argument detection and def/use computation** (Figures 8
   and 9) -- renameAll independence tests, clobber liveness profiles,
   and copy-chain mutations classify every register occurrence and
   attach implicit inputs/outputs (or candidates for the reverse
   interpreter to resolve) to each instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.discovery import mutation as mut
from repro.discovery.asmmodel import DReg, DSym, split_lines


@dataclass
class LiveRange:
    """A maximal set of same-register occurrences connected def-to-use."""

    reg: str
    occurrences: list  # [(instr_idx, operand_idx)] in program order
    resolved: bool = True
    #: for unresolved singletons: "use" (definition is invisible) or
    #: "def" (the consumer is invisible)
    flavor: str | None = None


@dataclass
class RegionInfo:
    """Everything the Preprocessor learned about one sample's region."""

    clobber_safe: list = field(default_factory=list)
    call_like: list = field(default_factory=list)
    removed: list = field(default_factory=list)  # redundant instrs (text)
    normalised_delay_slots: int = 0
    ranges: list = field(default_factory=list)
    #: (instr_idx, operand_idx) -> "def" | "use" | "usedef"
    visible_kinds: dict = field(default_factory=dict)
    implicit_in: dict = field(default_factory=dict)  # instr_idx -> set(reg)
    implicit_out: dict = field(default_factory=dict)
    #: instr_idx -> set(reg): involvement proven, direction unknown; the
    #: reverse interpreter resolves these (x86 cltd/idivl)
    implicit_maybe: dict = field(default_factory=dict)
    dependent_regs: list = field(default_factory=list)

    def all_implicit_candidates(self, index):
        out = set(self.implicit_in.get(index, ()))
        out |= self.implicit_out.get(index, set())
        out |= self.implicit_maybe.get(index, set())
        return out


class Preprocessor:
    def __init__(self, engine):
        self.engine = engine
        self.corpus = engine.corpus
        self.syntax = engine.corpus.syntax

    # ------------------------------------------------------------------

    def process(self, sample):
        """Run all passes; attaches a RegionInfo to the sample (or
        discards it when analysis cannot proceed)."""
        info = RegionInfo()
        sample.info = info
        outside = self._outside_labels(sample)
        info.call_like = self._find_call_like(sample, outside)
        info.clobber_safe = self.engine.clobber_safe_registers(sample)
        self._normalise_delay_slots(sample, info)
        # The calling-convention analysis wants the region before
        # redundant-instruction elimination (stack clean-up instructions
        # are "redundant" for the sample but part of the protocol).
        sample.region_original = [instr.clone() for instr in sample.region]
        self._eliminate_redundant(sample, info)
        info.call_like = self._find_call_like(sample, outside)
        self._split_live_ranges(sample, info)
        self._implicit_arguments(sample, info)
        self._def_use(sample, info)
        return info

    # -- call-like detection ------------------------------------------------

    def _outside_labels(self, sample):
        """The labels defined outside the region; only a region that
        references a bare symbol needs them (the preprocessing passes
        never add one)."""
        defined = set()
        if not any(
            isinstance(op, DSym) and not op.prefix
            for instr in sample.region
            for op in instr.operands
        ):
            return defined
        text = "\n".join(sample.pre_lines + sample.post_lines)
        for line in split_lines(text, self.syntax.comment_char):
            defined.update(line.labels)
        return defined

    def _find_call_like(self, sample, outside):
        """Instructions referencing a symbol not defined in this file
        (*outside* holds the labels defined outside the region) transfer
        control to external code (call/jal/jsr/calls)."""
        defined = set(outside)
        for instr in sample.region:
            defined.update(instr.labels)
        call_like = []
        for index, instr in enumerate(sample.region):
            for op in instr.operands:
                if isinstance(op, DSym) and not op.prefix and op.name not in defined:
                    call_like.append(index)
                    break
        return call_like

    # -- pass 1: delay slots -----------------------------------------------

    def _normalise_delay_slots(self, sample, info):
        for index in reversed(info.call_like):
            succ = index + 1
            if succ >= len(sample.region):
                continue
            successor = sample.region[succ]
            if succ in info.call_like or successor.labels or not successor.mnemonic:
                continue
            scratch = self.engine.fresh_registers(sample, 1)
            if not scratch:
                continue
            filler = self.engine.clobber_instr(scratch[0]).clone(glued=True)
            separated = mut.insert(sample.region, succ, [filler])
            if self.engine.succeeds_static(sample, separated):
                continue  # no delay slot here
            hoisted = mut.insert(
                mut.move(sample.region, succ, index), index + 2, [filler]
            )
            if self.engine.succeeds_static(sample, hoisted):
                sample.region = hoisted
                info.normalised_delay_slots += 1
                sample.notes.append(
                    f"hoisted delay-slot instruction above call at {index}"
                )

    # -- pass 2: redundant instructions --------------------------------------

    def _eliminate_redundant(self, sample, info):
        index = len(sample.region) - 1
        while index >= 0:
            instr = sample.region[index]
            if not instr.mnemonic or instr.glued:
                index -= 1
                continue

            def build(rng, index=index):
                mutated = mut.delete(sample.region, index)
                return mut.insert(mutated, 0, self.engine.clobber_all_prefix(sample))

            if self.engine.succeeds(sample, build):
                # Check the deletion also stands without the clobbers.
                plain = mut.delete(sample.region, index)
                if self.engine.succeeds_static(sample, plain):
                    info.removed.append(self.syntax.render_instr(instr).strip())
                    sample.region = plain
            index -= 1

    # -- pass 3: live ranges ---------------------------------------------------

    def _region_registers(self, sample):
        regs = []
        for instr in sample.region:
            for op in instr.operands:
                if isinstance(op, DReg) and op.name not in regs:
                    regs.append(op.name)
        safe = set(self.engine.clobber_safe_registers(sample))
        return [r for r in regs if r in safe]

    def _occurrences(self, sample, reg):
        occs = []
        for i, instr in enumerate(sample.region):
            for k, op in enumerate(instr.operands):
                if isinstance(op, DReg) and op.name == reg:
                    occs.append((i, k))
        return occs

    def _range_ok(self, sample, reg, chunk):
        fresh = self.engine.rename_targets(sample, reg, chunk)
        if not fresh:
            return False
        first_instr = chunk[0][0]

        def build(rng):
            new_reg = rng.choice(fresh)
            mutated = mut.rename(sample.region, reg, new_reg, chunk)
            clob = self.engine.clobber_instr(new_reg)
            insert_at = first_instr
            if mutated[insert_at].glued:
                insert_at -= 1  # never separate a delay pair
            mutated = mut.insert(mutated, insert_at, [clob])
            # Clobber everything at region start (Figure 6's discipline):
            # a stale register left over from Init could otherwise make
            # the mutation succeed by coincidence.
            return mut.insert(mutated, 0, self.engine.clobber_all_prefix(sample))

        return self.engine.succeeds(sample, build)

    def _split_live_ranges(self, sample, info):
        for reg in self._region_registers(sample):
            occs = self._occurrences(sample, reg)
            ranges = []
            end = len(occs) - 1
            while end >= 0:
                found = None
                for start in range(end, -1, -1):
                    if self._range_ok(sample, reg, occs[start : end + 1]):
                        found = start
                        break
                if found is None:
                    ranges.append(
                        LiveRange(reg, [occs[end]], resolved=False)
                    )
                    end -= 1
                else:
                    ranges.append(LiveRange(reg, occs[found : end + 1]))
                    end = found - 1
            ranges.reverse()
            info.ranges.extend(ranges)

    # -- pass 4a: implicit arguments ---------------------------------------------

    def _clobber_at(self, sample, reg, position):
        """Does clobbering *reg* just before *position* leave the output
        unchanged?  (position == len(region) clobbers after everything.)"""
        if 0 < position <= len(sample.region) - 1 and sample.region[position].glued:
            position += 1  # keep delay pairs intact

        def build(rng):
            mutated = mut.insert(
                sample.region, position, [self.engine.clobber_instr(reg)]
            )
            return mut.insert(mutated, 0, self.engine.clobber_all_prefix(sample))

        return self.engine.succeeds(sample, build)

    def _dependence(self, sample, reg):
        """Fig 8 step 1: rename every visible occurrence of *reg* and
        poison the original; if the sample still works, nothing depends
        on *reg* invisibly."""
        all_occs = self._occurrences(sample, reg)
        fresh = self.engine.rename_targets(sample, reg, all_occs)
        if not fresh:
            return True  # cannot test: assume dependent (conservative)

        def build(rng):
            new_reg = rng.choice(fresh)
            mutated = mut.rename_all(sample.region, reg, new_reg)
            prefix = self.engine.clobber_all_prefix(sample)
            return mut.insert(mutated, 0, prefix + [self.engine.clobber_instr(reg)])

        return not self.engine.succeeds(sample, build)

    def _implicit_arguments(self, sample, info):
        unresolved = [r for r in info.ranges if not r.resolved]
        if not unresolved:
            return
        dependent = set()
        for reg in sorted({r.reg for r in unresolved}):
            if self._dependence(sample, reg):
                dependent.add(reg)
        info.dependent_regs = sorted(dependent)
        for live in unresolved:
            reg = live.reg
            index, _ = live.occurrences[0]
            # Direction: if the value of reg is dead right after this
            # instruction, the occurrence was the last (visible) reader.
            if self._clobber_at(sample, reg, index + 1):
                live.flavor = "use"
                self._attach_implicit_out(sample, info, reg, index)
            else:
                live.flavor = "def"
                self._attach_implicit_in(sample, info, reg, index)

    def _attach_implicit_out(self, sample, info, reg, use_index):
        """Find the invisible producer of the value read at use_index."""
        span = range(use_index - 1, -1, -1)
        for i in span:
            if i in info.call_like:
                info.implicit_out.setdefault(i, set()).add(reg)
                return
            if self._writes_visibly(sample.region[i], reg):
                break
        for i in span:
            if self._writes_visibly(sample.region[i], reg):
                break
            info.implicit_maybe.setdefault(i, set()).add(reg)

    def _attach_implicit_in(self, sample, info, reg, def_index):
        """Find the invisible consumer of the value defined at def_index."""
        span = range(def_index + 1, len(sample.region))
        for i in span:
            if i in info.call_like:
                info.implicit_in.setdefault(i, set()).add(reg)
                return
            if self._writes_visibly(sample.region[i], reg):
                break
        for i in span:
            if self._writes_visibly(sample.region[i], reg):
                break
            info.implicit_maybe.setdefault(i, set()).add(reg)

    @staticmethod
    def _writes_visibly(instr, reg):
        # Without def/use info yet, "mentions the register directly".
        return any(isinstance(op, DReg) and op.name == reg for op in instr.operands)

    # -- pass 4b: def/use (Figure 9) ----------------------------------------------

    def _def_use(self, sample, info):
        for live in info.ranges:
            if not live.resolved:
                kind = live.flavor or "use"
                info.visible_kinds[live.occurrences[0]] = kind
                continue
            occs = live.occurrences
            info.visible_kinds[occs[0]] = "def"
            if len(occs) == 1:
                continue
            info.visible_kinds[occs[-1]] = "use"
            for middle in range(1, len(occs) - 1):
                kind = self._middle_kind(sample, live, middle)
                info.visible_kinds[occs[middle]] = kind

    def _middle_kind(self, sample, live, middle):
        """Fig 9: duplicate the def-chain up to this occurrence under a
        fresh register; a pure use leaves the original chain intact, a
        use-def breaks it."""
        reg = live.reg
        occs = live.occurrences
        fresh = self.engine.rename_targets(sample, reg, occs[: middle + 1])
        if not fresh:
            return "usedef"  # conservative

        target = occs[middle]
        chain_instrs = sorted({i for i, _k in occs[: middle + 1]})

        def build(rng):
            new_reg = rng.choice(fresh)
            insert_at = target[0]
            copies = []
            for i in chain_instrs:
                if i == target[0]:
                    continue
                copies.append(
                    sample.region[i].rename_register(reg, new_reg).clone(labels=[], glued=False)
                )
            # Rename the tested occurrence itself.
            renamed = mut.rename(sample.region, reg, new_reg, [target])
            if renamed[insert_at].glued:
                insert_at -= 1
            renamed = mut.insert(renamed, insert_at, copies)
            return mut.insert(renamed, 0, self.engine.clobber_all_prefix(sample))

        return "use" if self.engine.succeeds(sample, build) else "usedef"
