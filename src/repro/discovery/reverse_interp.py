"""Reverse interpretation (paper sections 5.2--5.2.3).

Given a sample's preprocessed region, the initial environment (the
initialisation values the Generator hid inside ``Init``) and the final
environment (the value the sample printed), search for a semantic
interpretation of every unknown instruction and addressing mode that
makes the region evaluate correctly -- preferring the simplest
interpretations, ordered by the likelihood model.

Registers start as unique symbolic values (``$sp <- $sp0``), addresses
are symbolic ``base+offset`` pairs, and the variable slots discovered by
:mod:`~repro.discovery.addresses` hold the known initialisation values;
the final check requires ``M[@L1.a]`` to equal the printed result.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from repro import wordops
from repro.discovery import likelihood
from repro.discovery.asmmodel import DImm, DMem, DReg, DSym
from repro.discovery.primitives import DIVISOR_PRIMS, TERM_PRIMS
from repro.discovery.terms import TermTable, enumerate_terms, render_effects, term_size
from repro.errors import DiscoveryError


class InterpFail(Exception):
    """The region cannot be interpreted under this hypothesis."""


# -- value domain -------------------------------------------------------


@dataclass(frozen=True)
class Addr:
    """A symbolic address: an opaque base plus a concrete offset."""

    base: str
    off: int


@dataclass(frozen=True)
class Junk:
    """An unconstrained value (uninitialised register or overflowed
    symbolic arithmetic)."""

    tag: str


def _is_int(value):
    return isinstance(value, int)


# -- op keys -------------------------------------------------------------


def opkey(instr):
    """Signature-based identity of an instruction as an extraction
    unknown; call-like instructions are keyed by their target symbol so
    ``call .mul`` and ``call .div`` stay distinct."""
    key = instr.signature()
    targets = [op.name for op in instr.operands if isinstance(op, DSym) and not op.prefix]
    if targets:
        key += "@" + ",".join(targets)
    return key


def parse_opkey(key):
    """Split an :func:`opkey` into (mnemonic, operand parts, call
    targets)."""
    body, _at, targets = key.partition("@")
    mnemonic, _paren, parts = body.partition("(")
    parts = parts.rstrip(")")
    return (
        mnemonic,
        tuple(parts.split(",")) if parts else (),
        tuple(targets.split(",")) if targets else (),
    )


class KeyedRegion(NamedTuple):
    """A preprocessed region's extraction unknowns, worked out once."""

    #: (instr, opkey) for each instruction with a mnemonic, in order
    steps: tuple
    #: opkey -> index of its first instance; the keys are the sample's
    #: extraction unknowns, in region order
    first: dict


def keyed_region(sample):
    steps, first = [], {}
    for index, instr in enumerate(sample.region):
        if instr.mnemonic:
            key = opkey(instr)
            steps.append((instr, key))
            first.setdefault(key, index)
    return KeyedRegion(tuple(steps), first)


class RegionTable(dict):
    """sample name -> :class:`KeyedRegion`, each built on first use.
    Valid while the regions stay fixed, i.e. for one extraction."""

    def of(self, sample):
        region = self.get(sample.name)
        if region is None:
            region = self[sample.name] = keyed_region(sample)
        return region


# -- machine state ---------------------------------------------------------


class MachineState:
    def __init__(self, addr_map, values, bits):
        self.addr_map = addr_map
        self.bits = bits
        self.regs = {}
        self.mem = {}
        for var, value in values.items():
            self.mem[("var", var)] = wordops.mask(value, bits)

    def reg(self, name):
        if name not in self.regs:
            self.regs[name] = Addr(f"{name}0", 0)
        return self.regs[name]

    def set_reg(self, name, value):
        self.regs[name] = value

    def mem_key(self, mem_op):
        var = self.addr_map.var_of(mem_op) if self.addr_map else None
        if var is not None:
            return ("var", var)
        if mem_op.base is None:
            return ("abs", mem_op.disp)
        base_value = self.reg(mem_op.base)
        if isinstance(base_value, Addr) and isinstance(mem_op.disp, int):
            return ("addr", base_value.base, base_value.off + mem_op.disp)
        raise InterpFail("memory access through a non-address base")

    def load(self, mem_op):
        key = self.mem_key(mem_op)
        if key in self.mem:
            return self.mem[key]
        return Junk(f"M{key!r}")

    def store(self, mem_op, value):
        self.mem[self.mem_key(mem_op)] = value


# -- interpreting one instruction under a hypothesis -----------------------


def _leaf_reader(state, instr):
    def read(leaf):
        if leaf[0] == "val":
            op = instr.operands[leaf[1]]
            if isinstance(op, DReg):
                return state.reg(op.name)
            if isinstance(op, DImm):
                return wordops.mask(op.value, state.bits)
            if isinstance(op, DMem):
                return state.load(op)
            raise InterpFail(f"uninterpretable leaf operand {op!r}")
        if leaf[0] == "ireg":
            return state.reg(leaf[1])
        if leaf[0] == "const":
            return leaf[1]
        raise InterpFail(f"unknown leaf {leaf!r}")

    return read


def eval_term(term, read, bits):
    """Evaluate a term; *read(leaf)* supplies the value of each ``val``
    or ``ireg`` leaf.  Over integers this is word arithmetic, and a zero
    divisor raises :class:`InterpFail`.  Identity terms pass any value
    through; arithmetic over non-integers yields Junk, except
    address+constant which stays an address."""
    if term[0] in ("val", "ireg"):
        return read(term)
    if term[0] == "const":
        return term[1]
    args = [eval_term(arg, read, bits) for arg in term[1:]]
    if all(_is_int(a) for a in args):
        if term[0] in DIVISOR_PRIMS and args[1] % (1 << bits) == 0:
            raise InterpFail("division by zero")
        return TERM_PRIMS[term[0]][1](bits, *args)
    if term[0] == "add" and len(args) == 2:
        first, second = args
        if isinstance(first, Addr) and _is_int(second):
            return Addr(first.base, first.off + wordops.to_signed(second, bits))
        if isinstance(second, Addr) and _is_int(first):
            return Addr(second.base, second.off + wordops.to_signed(first, bits))
    if term[0] == "sub" and isinstance(args[0], Addr) and _is_int(args[1]):
        return Addr(args[0].base, args[0].off - wordops.to_signed(args[1], bits))
    return Junk("sym-arith")


def apply_effects(state, instr, effects):
    """Reads happen against the pre-state; writes land afterwards."""
    read = _leaf_reader(state, instr)
    pending = []
    for target, term in effects:
        pending.append((target, eval_term(term, read, state.bits)))
    for target, value in pending:
        if target[0] == "op":
            op = instr.operands[target[1]]
            if not isinstance(op, DReg):
                raise InterpFail("register write target is not a register")
            state.set_reg(op.name, value)
        elif target[0] == "mem":
            op = instr.operands[target[1]]
            if not isinstance(op, DMem):
                raise InterpFail("memory write target is not a memory operand")
            state.store(op, value)
        elif target[0] == "ireg":
            state.set_reg(target[1], value)
        else:
            raise InterpFail(f"unknown target {target!r}")


def interpret_region(sample, sem, addr_map, bits, region=None):
    """Run the whole region; returns the final MachineState.  *region*
    is the sample's :class:`KeyedRegion`, when the caller holds one."""
    state = MachineState(addr_map, sample.values, bits)
    region = keyed_region(sample) if region is None else region
    for instr, key in region.steps:
        effects = sem.get(key)
        if effects is None:
            raise InterpFail(f"no semantics for {key}")
        apply_effects(state, instr, effects)
    return state


def check_sample(sample, sem, addr_map, bits, region=None):
    """Does the region, under *sem*, leave the expected value in @L1.a?"""
    try:
        state = interpret_region(sample, sem, addr_map, bits, region)
    except InterpFail:
        return False
    expected = wordops.mask(int(sample.expected_output.strip()), bits)
    return state.mem.get(("var", "a")) == expected


# -- hypothesis generation ----------------------------------------------------


MAX_MAYBE_REGS = 2
MAX_TERMS_PER_OUTPUT = 500
MAX_CANDIDATES = 3000


def _visible_partition(sample, index):
    info = sample.info
    instr = sample.region[index]
    reg_defs, value_leaves, mem_ops, usedefs = [], [], [], []
    for k, op in enumerate(instr.operands):
        if isinstance(op, DReg):
            kind = info.visible_kinds.get((index, k), "use")
            if kind in ("def", "usedef"):
                reg_defs.append(k)
            if kind in ("use", "usedef"):
                value_leaves.append(("val", k))
            if kind == "usedef":
                usedefs.append(k)
        elif isinstance(op, DImm):
            value_leaves.append(("val", k))
        elif isinstance(op, DMem):
            mem_ops.append(k)
    return reg_defs, value_leaves, mem_ops, usedefs


def _respects_usedef(effects, usedefs, terms):
    """A use-def operand was *proven* (Figure 9) to be both read and
    observably rewritten: its leaf must appear somewhere, and its write
    must not be a plain pass-through of its own old value."""
    if not usedefs:
        return True
    leaves = frozenset().union(*(terms[term].leaves for _target, term in effects))
    for k in usedefs:
        if ("val", k) not in leaves:
            return False
        for target, term in effects:
            if target == ("op", k) and term == ("val", k):
                return False
    return True


def hypotheses(sample, index, role):
    """Scored, likelihood-ordered semantics candidates for one
    instruction instance.  Yields (score, effects) best first."""
    info = sample.info
    instr = sample.region[index]
    reg_defs, value_leaves, mem_ops, usedefs = _visible_partition(sample, index)
    implicit_in = sorted(info.implicit_in.get(index, ()))
    implicit_out = sorted(info.implicit_out.get(index, ()))
    maybes = sorted(info.implicit_maybe.get(index, ()))[:MAX_MAYBE_REGS]

    terms = TermTable()
    score = likelihood.Scorer(sample, instr, role)
    scored = []
    for maybe_roles in itertools.product(("none", "in", "out", "inout"), repeat=len(maybes)):
        extra_in = [r for r, m in zip(maybes, maybe_roles) if m in ("in", "inout")]
        extra_out = [r for r, m in zip(maybes, maybe_roles) if m in ("out", "inout")]
        base_targets = (
            [("op", k) for k in reg_defs]
            + [("ireg", r) for r in implicit_out + extra_out]
        )
        leaves = (
            list(value_leaves)
            + [("ireg", r) for r in implicit_in + extra_in]
        )
        target_options = []
        if base_targets:
            target_options.append((base_targets, list(mem_ops)))
        else:
            for mem_out in mem_ops:
                ins = [k for k in mem_ops if k != mem_out]
                target_options.append(([("mem", mem_out)], ins))
            target_options.append(([], list(mem_ops)))  # effect-free
        for targets, mem_ins in target_options:
            all_leaves = leaves + [("val", k) for k in mem_ins]
            if not targets:
                effects = ()
                scored.append((score(effects, terms), effects))
                continue
            if not all_leaves:
                continue
            # An identity in disguise (mul(x, 1)...) would smuggle an
            # identity past the use-def constraint.
            term_stream = (
                t
                for t in enumerate_terms(all_leaves, max_size=3)
                if not terms[t].disguised
            )
            per_output = list(itertools.islice(term_stream, MAX_TERMS_PER_OUTPUT))
            if len(targets) == 1:
                for term in per_output:
                    effects = ((targets[0], term),)
                    if not _respects_usedef(effects, usedefs, terms):
                        continue
                    scored.append((score(effects, terms), effects))
            else:
                # Multiple outputs: bound the cross product by size.
                short = per_output[:60]
                for combo in itertools.product(short, repeat=len(targets)):
                    effects = tuple(zip(targets, combo))
                    if not _respects_usedef(effects, usedefs, terms):
                        continue
                    scored.append((score(effects, terms), effects))
    scored.sort(key=lambda item: -item[0])
    seen = set()
    out = []
    for score_value, effects in scored:
        if effects in seen:
            continue
        seen.add(effects)
        out.append((score_value, effects))
        if len(out) >= MAX_CANDIDATES:
            break
    return out


# -- hypothesis memoization ---------------------------------------------------


def hypothesis_shape_key(sample, index, role, bits):
    """Everything :func:`hypotheses` actually depends on, as a hashable
    key: candidate effects reference operands by *position* (never by
    register name or immediate value), so two instruction instances with
    the same signature, visible def/use kinds, implicit-register sets
    and likelihood inputs (sample operator/kind, graph role) enumerate
    identical candidate lists."""
    info = sample.info
    instr = sample.region[index]
    visible = tuple(
        (k, info.visible_kinds.get((index, k), "use"))
        for k, op in enumerate(instr.operands)
        if isinstance(op, DReg)
    )
    return (
        opkey(instr),
        role,
        visible,
        tuple(sorted(info.implicit_in.get(index, ()))),
        tuple(sorted(info.implicit_out.get(index, ()))),
        tuple(sorted(info.implicit_maybe.get(index, ()))[:MAX_MAYBE_REGS]),
        sample.op,
        sample.kind,
        bits,
    )


class HypothesisMemo:
    """Per-process cache of :func:`hypotheses` results keyed by
    instruction signature shape.  Purely an accelerator: a lookup
    computes exactly what the direct call would, so the extraction is
    bit-for-bit identical with the memo on or off -- only the hit/miss
    counters change."""

    def __init__(self, bits):
        self.bits = bits
        self.table = {}
        self.hits = 0
        self.misses = 0

    def key(self, sample, index, role):
        return hypothesis_shape_key(sample, index, role, self.bits)

    def lookup(self, sample, index, role):
        key = self.key(sample, index, role)
        cached = self.table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        cands = hypotheses(sample, index, role)
        self.table[key] = cands
        return cands

    def seed(self, key, cands):
        """Install a candidate list computed elsewhere (a precompute
        worker); counts as a miss -- the enumeration work happened."""
        if key not in self.table:
            self.misses += 1
            self.table[key] = cands


# -- deterministic joint-assignment enumeration -------------------------------


class VectorEnumerator:
    """Lazy best-first enumeration of joint candidate vectors (one
    position per unknown key), highest total likelihood first.

    The visit order is a pure function of the candidate scores --
    evaluation outcomes never feed back into it -- which is what lets a
    *wave* of vectors be checked in parallel (or out of order) without
    changing which assignment the search commits: the winner is always
    the first passing vector in this enumeration order, exactly the one
    the sequential search would have stopped at."""

    def __init__(self, lists):
        self.lists = lists
        start = (0,) * len(lists)
        self._heap = [(-self._total(start), start)]
        self._seen = {start}

    def _total(self, vector):
        return sum(self.lists[i][pos][0] for i, pos in enumerate(vector))

    def take(self, count):
        """The next up-to-*count* vectors in search order."""
        out = []
        while self._heap and len(out) < count:
            _neg, vector = heapq.heappop(self._heap)
            out.append(vector)
            for i in range(len(self.lists)):
                if vector[i] + 1 < len(self.lists[i]):
                    successor = vector[:i] + (vector[i] + 1,) + vector[i + 1:]
                    if successor not in self._seen:
                        self._seen.add(successor)
                        heapq.heappush(
                            self._heap, (-self._total(successor), successor)
                        )
        return out


def first_passing_index(sample, sem, extra_effects, solved_samples, assignments,
                        addr_map, bits, regions):
    """Index of the first assignment under which the sample interprets
    correctly *and* every already-solved sample still validates, or
    None.  Pure in all arguments -- the parallel evaluator ships this
    exact computation to worker processes.  *regions* is the caller's
    :class:`RegionTable`."""
    region = regions.of(sample)
    for j, assignment in enumerate(assignments):
        trial = dict(sem)
        trial.update(assignment)
        if not check_sample(sample, trial, addr_map, bits, region):
            continue
        # A revised semantics must still explain every solved sample.
        trial.update({k: v for k, v in extra_effects.items() if k not in trial})
        ok = True
        for solved_sample in solved_samples:
            solved_region = regions.of(solved_sample)
            if not trial.keys() >= solved_region.first.keys():
                continue
            if not check_sample(solved_sample, trial, addr_map, bits, solved_region):
                ok = False
                break
        if ok:
            return j
    return None


class InlineEvaluator:
    """Evaluates assignment waves in the calling process.  ``wave`` only
    bounds how many vectors are enumerated ahead of evaluation; the
    first passing vector wins regardless, so any wave size yields the
    same extraction."""

    wave = 32

    def __init__(self, addr_map, bits, regions):
        self.addr_map = addr_map
        self.bits = bits
        self.regions = regions

    def next_wave(self, consumed):
        return self.wave

    def first_passing(self, sample, sem, extra_effects, solved_samples, assignments):
        return first_passing_index(
            sample, sem, extra_effects, solved_samples, assignments,
            self.addr_map, self.bits, self.regions,
        )


# -- the extractor driver -------------------------------------------------------


@dataclass
class OpSemantics:
    key: str
    effects: tuple
    example: object  # a DInstr for rendering
    tries: int = 0
    samples: list = field(default_factory=list)

    def render(self):
        names = [f"arg{i}" for i in range(len(self.example.operands))]
        return f"{self.example.mnemonic}: {render_effects(self.effects, names)}"


@dataclass
class ExtractionResult:
    semantics: dict = field(default_factory=dict)  # key -> OpSemantics
    solved: list = field(default_factory=list)
    failed: list = field(default_factory=list)
    interpretations_tried: int = 0

    def effects_map(self):
        return {key: op.effects for key, op in self.semantics.items()}


class ReverseInterpreter:
    """Probabilistic best-first search for the semantics of one shard's
    instructions: the extraction engine's shard solver.  All solves
    together spend at most *budget* interpretations.  A sample no
    assignment explains lands in ``failed``; the engine discards it when
    it merges the shards."""

    RI_KINDS = ("binary", "unary", "literal", "copy")

    def __init__(self, samples, budget, addr_map, word_bits, regions, graph_roles,
                 use_likelihood=True, memo=None, evaluator=None, prefetch=None):
        self.samples = list(samples)
        self.by_name = {s.name: s for s in self.samples}
        self.budget = budget
        #: interpretations charged so far; never more than ``budget``
        self.spent = 0
        self.addr_map = addr_map
        self.bits = word_bits
        #: sample name -> KeyedRegion, shared with the default evaluator
        self.regions = regions
        self.graph_roles = graph_roles
        self.use_likelihood = use_likelihood
        self.memo = memo
        self.evaluator = evaluator or InlineEvaluator(addr_map, word_bits, regions)
        #: optional hook called before each solve with (upcoming pending
        #: samples, result) -- lets a parallel engine warm the memo with
        #: hypothesis lists the next few solves will ask for
        self.prefetch = prefetch

    def extract(self):
        result = ExtractionResult()
        pending = list(self.samples)
        progress = True
        while pending and progress:
            progress = False
            # Degenerate shapes (a=b/b, a=a&a) admit chance mutation
            # successes (x/x is 1 for *every* clobber value), so they are
            # interpreted last, once the sound shapes pinned the table.
            pending.sort(
                key=lambda s: (
                    _is_degenerate(s),
                    self._unknown_count(s, result),
                    len(s.region),
                )
            )
            still = []
            for pos, sample in enumerate(pending):
                if self.prefetch is not None:
                    self.prefetch(pending[pos:], result, revision=False)
                if self._solve(sample, result):
                    result.solved.append(sample.name)
                    progress = True
                else:
                    still.append(sample)
            pending = still
        for pos, sample in enumerate(pending):
            if self.prefetch is not None:
                # Revision re-enumerates each key of the sample in turn,
                # known or not -- warm them all.
                self.prefetch(pending[pos:], result, revision=True)
            if not _is_degenerate(sample) and self._solve_with_revision(sample, result):
                result.solved.append(sample.name)
            else:
                # Degenerate shapes never justify revising the semantics
                # table; the paper discards samples its interpreter
                # cannot finish.
                result.failed.append(sample.name)
        return result

    def _solve_with_revision(self, sample, result):
        """A failing sample may contradict an over-committed semantics
        (x86 ``idivl`` first seen in a division sample lacks its ``%edx``
        remainder output); retry, revising one already-known key at a
        time and re-validating every solved sample.

        An earlier revision may already explain the sample, so one whose
        keys are all known is first checked as it stands.  Keys are then
        revised least-supported first: a key that many solved samples
        rely on rarely has another reading that keeps them all, and each
        failed revision exhausts its search.  A sample no single revision
        explains fails."""
        keys = self._keys(sample)
        known = [k for k in keys if k in result.semantics]
        if len(known) == len(keys) and self._solve(sample, result):
            return True
        known.sort(key=lambda k: len(result.semantics[k].samples))
        for key in known:
            saved = result.semantics.pop(key)
            if self._solve(sample, result):
                return True
            result.semantics[key] = saved
        return False

    # ------------------------------------------------------------------

    def _keys(self, sample):
        return self.regions.of(sample).first

    def _hypotheses(self, sample, index, role):
        if self.memo is None:
            return hypotheses(sample, index, role)
        return self.memo.lookup(sample, index, role)

    def _unknown_count(self, sample, result):
        return sum(1 for k in self._keys(sample) if k not in result.semantics)

    def _first_instance(self, sample, key):
        index = self.regions.of(sample).first.get(key)
        if index is None:
            raise DiscoveryError(f"lost instruction {key}")
        return index

    def _solve(self, sample, result):
        sem = result.effects_map()
        keys = self._keys(sample)
        unknown = [k for k in keys if k not in sem]
        if not unknown:
            result.interpretations_tried += 1
            ok = check_sample(sample, sem, self.addr_map, self.bits, self.regions.of(sample))
            if ok:
                for key in keys:
                    result.semantics[key].samples.append(sample.name)
            return ok

        candidate_lists = []
        for key in unknown:
            index = self._first_instance(sample, key)
            role = self.graph_roles.get((sample.name, index))
            cands = self._hypotheses(sample, index, role if self.use_likelihood else None)
            if not self.use_likelihood:
                # Ablation mode: blind shortest-first enumeration.
                cands = [
                    (-float(_effects_size(eff)), eff)
                    for _s, eff in sorted(
                        cands, key=lambda item: _effects_size(item[1])
                    )
                ]
            candidate_lists.append((key, index, cands))

        lists = [options for _k, _i, options in candidate_lists]
        if any(not options for options in lists):
            return False

        solved_samples = [self.by_name[name] for name in dict.fromkeys(result.solved)]
        extra_effects = {k: v.effects for k, v in result.semantics.items()}

        # Probabilistic best-first search (paper section 5.2.2): joint
        # assignments are tried in order of decreasing total likelihood,
        # so one instruction's plausible-but-wrong candidate cannot lock
        # out a globally better interpretation.  Vectors are drawn from
        # the enumerator in waves and checked by the evaluator (inline,
        # or fanned over worker processes); the committed assignment is
        # the first passing vector in enumeration order either way, and
        # only the vectors up to that winner count against the shard's
        # budget.
        enumerator = VectorEnumerator(lists)
        budget_cap = self.budget - self.spent
        consumed = 0
        assignment = None
        winning_vector = None
        while consumed < budget_cap:
            wave = max(1, self.evaluator.next_wave(consumed))
            vectors = enumerator.take(min(wave, budget_cap - consumed))
            if not vectors:
                break
            assignments = [
                {
                    candidate_lists[i][0]: lists[i][pos][1]
                    for i, pos in enumerate(vector)
                }
                for vector in vectors
            ]
            hit = self.evaluator.first_passing(
                sample, sem, extra_effects, solved_samples, assignments
            )
            if hit is None:
                consumed += len(vectors)
                continue
            consumed += hit + 1
            winning_vector = vectors[hit]
            assignment = assignments[hit]
            break
        result.interpretations_tried += consumed
        self.spent += consumed
        if assignment is None:
            return False
        tries_log = {
            candidate_lists[i][0]: pos + 1 for i, pos in enumerate(winning_vector)
        }

        for key, index, _options in candidate_lists:
            # A revised key keeps the solved samples it was re-validated
            # on (every solved sample holding it), then gains this one.
            support = [s.name for s in solved_samples if key in self.regions.of(s).first]
            result.semantics[key] = OpSemantics(
                key=key,
                effects=assignment[key],
                example=sample.region[index],
                tries=tries_log.get(key, 0),
                samples=support + [sample.name],
            )
        for key in keys:
            if key in result.semantics and sample.name not in result.semantics[key].samples:
                result.semantics[key].samples.append(sample.name)
        return True


def _effects_size(effects):
    return sum(term_size(term) for _target, term in effects)


def _is_degenerate(sample):
    """Shapes whose operands coincide (a=b/b, a=a&a) cannot pin operand
    order or, sometimes, even def/use -- handle them last."""
    if "@" not in sample.shape:
        return False
    rhs = sample.shape.split("=")[1]
    left, right = rhs.split("@")
    return left == right
