"""Assembler-syntax discovery by scanning and accept/reject probing.

Implements the paper's two "fully automated techniques for discovering
the details of a particular assembler" (section 3.1): textually scanning
compiler output for known constants, and submitting deliberately
mutated programs to the assembler for acceptance or rejection.  The
linker joins in for one trick of our own in the same spirit: an
undefined-symbol link error separates register names from symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counters import Counters
from repro.errors import (
    AssemblerError,
    DiscoveryError,
    LinkerError,
    TransientTargetError,
)
from repro.discovery.asmmodel import is_identifier, split_lines
from repro.discovery.lexer import parse
from repro.discovery.syntax import LoadImmTemplate

#: comment characters tried, most common first (the paper starts from the
#: assembly of `main(){}` and appends an obviously erroneous line)
COMMENT_CANDIDATES = "#!;|@*"

_ERRONEOUS = "~~this is not an instruction~~ ((,]"

#: how a known constant may be spelled, per base
def _base_spellings(value):
    return {
        "decimal": str(value),
        "hex-lower": f"0x{value:x}",
        "hex-upper": f"0X{value:X}",
        "octal": f"0{value:o}",
    }


_PROBE_VALUE = 1235


@dataclass
class ProbeLog(Counters):
    """Counts of probe interactions: the summary's ``probe`` block and
    the cost benchmarks.  Register probing fans out over the connection
    pool, so its counters move through ``bump``."""

    comment_probes: int = 0
    literal_probes: int = 0
    register_probes: int = 0
    range_probes: int = 0
    #: register candidates left unconfirmed after a transient target error
    registers_skipped: int = 0


def _assembles(machine, body):
    return machine.assembles_ok(".text\n.globl main\nmain:\n" + body + "\n")


def _assembles_and_links(machine, body):
    source = ".text\n.globl main\nmain:\n" + body + "\n"
    try:
        obj = machine.assemble(source)
        machine.link([obj])
    except (AssemblerError, LinkerError):
        return False
    return True


def discover_comment_char(machine, log=None):
    """Append an erroneous line behind each candidate comment character
    to the assembly of ``main(){}`` until the assembler accepts it."""
    base_asm = machine.compile_c("main(){}")
    for candidate in COMMENT_CANDIDATES:
        if log:
            log.comment_probes += 1
        probe = base_asm + f"\n{candidate} {_ERRONEOUS}\n"
        if machine.assembles_ok(probe):
            return candidate
    raise DiscoveryError("could not discover the assembler's comment character")


def _scan_for_constant(asm_text, comment_char, value):
    """Find (line, token, prefix, spelling) of an operand token holding
    *value* in any common spelling, optionally behind an immediate prefix."""
    spellings = _base_spellings(value)
    for line in split_lines(asm_text, comment_char):
        if line.mnemonic is None or line.is_directive:
            continue
        for token in line.operand_texts:
            for prefix in ("", "$", "#"):
                for name, spelled in spellings.items():
                    if token == prefix + spelled:
                        return line, token, prefix, name
    return None


def discover_literal_syntax(machine, syntax, log=None):
    """Which immediate prefix does the compiler emit, and which literal
    bases does the assembler accept?  (Paper: compile ``main(){int
    a=1235;}`` and scan for 1235 in all the common bases.)"""
    asm = machine.compile_c(f"main(){{int a={_PROBE_VALUE};}}")
    found = _scan_for_constant(asm, syntax.comment_char, _PROBE_VALUE)
    if found is None:
        raise DiscoveryError(f"constant {_PROBE_VALUE} not found in compiler output")
    line, token, prefix, spelling = found
    syntax.imm_prefix = prefix
    syntax.emitted_base = {"decimal": 10, "octal": 8}.get(spelling, 16)

    # Accept/reject probing: rewrite the literal in every base.
    for name, spelled in _base_spellings(_PROBE_VALUE).items():
        replacement = line.text.replace(token, prefix + spelled)
        if log:
            log.literal_probes += 1
        syntax.accepted_bases[name] = _assembles(machine, replacement)
    if not syntax.accepted_bases.get("decimal"):
        raise DiscoveryError("assembler rejected a decimal literal the compiler emitted")
    return syntax


_LOADIMM_VALUE = -1234567


def discover_loadimm(machine, syntax, log=None):
    """Find the instruction that loads an arbitrary immediate into a
    register; it seeds the register set and powers clobber mutations."""
    asm = machine.compile_c(f"main(){{int a={_LOADIMM_VALUE};}}")
    for line in split_lines(asm, syntax.comment_char):
        if line.mnemonic is None or line.is_directive:
            continue
        imm_index = None
        for i, token in enumerate(line.operand_texts):
            if token == f"{syntax.imm_prefix}{_LOADIMM_VALUE}":
                imm_index = i
        if imm_index is None or len(line.operand_texts) != 2:
            continue
        reg_index = 1 - imm_index
        reg_token = line.operand_texts[reg_index]
        if not is_identifier(reg_token):
            continue
        template = LoadImmTemplate(line.mnemonic, imm_index, reg_index)
        syntax.loadimm = template
        syntax.registers.add(reg_token)
        # Verify the template takes the full signed word range.
        for value in (0, 1, -1, 127, -4097, 70000, 2**31 - 1, -(2**31)):
            instr = template.instr(value, reg_token, syntax.imm_prefix)
            if log:
                log.literal_probes += 1
            if not _assembles(machine, syntax.render_instr(instr)):
                raise DiscoveryError(
                    f"load-immediate template {line.mnemonic} rejected value {value}"
                )
        return syntax
    raise DiscoveryError("could not find a load-immediate instruction")


def _probe_register(machine, syntax, candidate, log=None):
    """A register candidate must assemble in the load-immediate slot AND
    survive linking (symbols die with an undefined-symbol error)."""
    if log:
        log.bump(register_probes=1)
    instr = syntax.load_imm_instr(5, candidate)
    return _assembles_and_links(machine, syntax.render_instr(instr))


import re as _re

_PAREN_TOKEN = _re.compile(r"^-?\w*\(([^()]+)\)$")
_BRACKET_TOKEN = _re.compile(r"^\[\s*([^\[\]+-]+?)\s*(?:[+-]\w+)?\]$")


def _register_seeds(syntax, parsed_texts):
    """Candidate register tokens gathered by scanning sample assembly:
    memory-operand base registers, load-immediate destinations, and
    tokens co-occurring with already-confirmed candidates.  Each of
    *parsed_texts* is a text's (index, :class:`RawLine`) list."""
    seeds = set(syntax.registers)
    kinds = {}  # operand token -> (base register or None, is an identifier)
    groups = {}  # the identifiers of one instruction line, in order -> None
    for parsed in parsed_texts:
        for _index, line in parsed:
            if line.mnemonic is None or line.is_directive:
                continue
            idents = []
            for token in line.operand_texts:
                kind = kinds.get(token)
                if kind is None:
                    kind = kinds[token] = _token_kind(syntax, token)
                base, ident = kind
                if base is not None:
                    seeds.add(base)
                if ident:
                    idents.append(token)
            if idents:
                groups[tuple(idents)] = None
    # Transitive closure of "appears in an instruction with a register":
    # each group is opened once, by the first of its tokens to become a seed.
    groups_of = {}
    for group in groups:
        for token in group:
            groups_of.setdefault(token, []).append(group)
    work = [token for token in groups_of if token in seeds]
    opened = set()
    while work:
        for group in groups_of[work.pop()]:
            if group not in opened:
                opened.add(group)
                for token in group:
                    if token not in seeds:
                        seeds.add(token)
                        work.append(token)
    return seeds


def _token_kind(syntax, token):
    """``(base, ident)`` for one operand token: the identifier inside its
    parentheses or brackets (a base register), or None; and whether the
    token itself is an identifier, not an immediate or integer."""
    base = None
    for pattern in (_PAREN_TOKEN, _BRACKET_TOKEN):
        match = pattern.match(token)
        if match and is_identifier(match.group(1)):
            base = match.group(1)
    if syntax.imm_prefix and token.startswith(syntax.imm_prefix):
        return base, False
    return base, syntax.parse_int(token) is None and is_identifier(token)


def _expansion_candidates(confirmed):
    """Generalise confirmed register names: numeric suffixes 0..31 and
    single-letter substitutions (so %eax also proposes %ebx, %ecx...)."""
    candidates = set()
    for name in confirmed:
        head = name.rstrip("0123456789")
        if head != name:  # numeric family: r0, $8, %l0, ...
            for n in range(32):
                candidates.add(f"{head}{n}")
            if head and head[-1].isalpha():
                # Sibling families: %l0 proposes %g0..%g31, %i0, %o0...
                for letter in "abcdefghijklmnopqrstuvwxyz":
                    for n in range(32):
                        candidates.add(f"{head[:-1]}{letter}{n}")
        body_start = 0
        while body_start < len(name) and not name[body_start].isalnum():
            body_start += 1
        body = name[body_start:]
        prefix = name[:body_start]
        if body.isalpha() and len(body) <= 3:
            for pos in range(len(body)):
                for letter in "abcdefghijklmnopqrstuvwxyz":
                    candidate = prefix + body[:pos] + letter + body[pos + 1:]
                    candidates.add(candidate)
            if len(body) == 3:
                # Two-letter substitutions catch families like %esi/%edi
                # that differ from %eax in more than one position.
                for p1 in range(3):
                    for p2 in range(p1 + 1, 3):
                        for l1 in "abcdefghijklmnopqrstuvwxyz":
                            for l2 in "abcdefghijklmnopqrstuvwxyz":
                                chars = list(body)
                                chars[p1] = l1
                                chars[p2] = l2
                                candidates.add(prefix + "".join(chars))
    return candidates


def discover_registers(
    machine, syntax, asm_texts, log=None, scheduler=None, progress=None, parses=None
):
    """Build the register universe: seed by scanning, confirm by probing,
    then expand each confirmed name's family and probe those too.

    Scanning parses each text with :func:`~repro.discovery.lexer.parse`.
    Pass a dict as *parses* to keep those parses, keyed by text: region
    extraction, the next phase, reads the same lines.

    A candidate whose probe fails *terminally* (the retry policy gave
    up on the target) is left unconfirmed and counted in the log's
    ``registers_skipped`` -- a smaller register universe degrades
    coverage but never corrupts it, whereas aborting here would kill
    the whole run.

    Candidate probes are independent accept/reject interactions, so a
    :class:`~repro.discovery.scheduler.ProbeScheduler` fans each batch
    out over the connection pool; the confirmed set is merged from
    results in candidate order, making the outcome identical for any
    worker count.

    Pass a :class:`~repro.discovery.durable.PhaseProgress` to probe in
    checkpointed chunks: each chunk's confirmed subset is recorded under
    a position-stable key, and a resumed run replays recorded chunks
    from the checkpoint instead of re-probing the target.  Candidate
    lists are sorted, so chunk boundaries -- and the replay -- are
    identical across runs.
    """

    def probes_ok(candidate, conn=machine):
        try:
            return _probe_register(conn, syntax, candidate, log)
        except TransientTargetError:
            if log:
                log.bump(registers_skipped=1)
            return False

    def probe_chunk(candidates, phase):
        if scheduler is not None:
            # Non-transient errors (e.g. an open circuit breaker) abort
            # the phase exactly as they would in the sequential loop.
            outcomes = scheduler.map_values(
                lambda cand, conn: probes_ok(cand, conn), candidates, phase=phase
            )
            return {cand for cand, ok in zip(candidates, outcomes) if ok}
        return {cand for cand in candidates if probes_ok(cand)}

    def probe_batch(candidates, phase):
        if progress is None:
            return probe_chunk(candidates, phase)
        from repro.discovery.durable import chunked

        confirmed = set()
        for position, chunk in enumerate(chunked(candidates, progress.chunk)):
            key = f"{phase}:{position:05d}"
            replay = progress.recorded(key)
            if replay is not None:
                confirmed.update(replay)
                continue
            got = probe_chunk(chunk, phase)
            confirmed.update(got)
            progress.record(key, sorted(got))
        return confirmed

    parses = {} if parses is None else parses
    for text in asm_texts:
        parses[text] = parse(text, syntax.comment_char)
    seeds = _register_seeds(syntax, [parses[text][1] for text in asm_texts])
    confirmed = probe_batch(sorted(seeds), "register seeds")
    expansion = [
        cand
        for cand in sorted(_expansion_candidates(confirmed))
        if cand not in confirmed
    ]
    confirmed |= probe_batch(expansion, "register expansion")
    syntax.registers = confirmed
    return syntax


# -- immediate range probing ---------------------------------------------


def _probe_instr_variant(machine, syntax, instr, log=None):
    """Assemble one instruction in a scaffold defining any symbols it
    references, so only operand legality decides acceptance."""
    body_lines = []
    for op in instr.operands:
        name = getattr(op, "name", None)
        if op.key()[0] == "sym" and not getattr(op, "prefix", ""):
            body_lines.append(f"{name}:")
    body_lines.append(syntax.render_instr(instr))
    if log:
        log.range_probes += 1
    return _assembles(machine, "\n".join(body_lines))


def immediate_range(machine, syntax, instr, operand_index, log=None, limit=2**31):
    """Binary-search the accepted range of one immediate operand.

    The search grows outward from the immediate observed in compiler
    output (a shift count's range may exclude 0: the 68000 takes 1..8),
    then bisects between the last accepted and first rejected values.
    Returns an inclusive ``(lo, hi)`` range; ``(-limit, limit - 1)``
    means unrestricted at word width.  This reproduces the paper's SPARC
    result: ``add``'s immediate is restricted to ``[-4096, 4095]``.
    """
    from dataclasses import replace as _replace

    def accepts(value):
        op = instr.operands[operand_index]
        variant = instr.clone()
        variant.operands[operand_index] = _replace(op, value=value)
        return _probe_instr_variant(machine, syntax, variant, log)

    base = instr.operands[operand_index].value
    if not isinstance(base, int) or not accepts(base):
        raise DiscoveryError(f"baseline immediate rejected for {instr.mnemonic}")

    def search_bound(direction):
        # Exponential growth away from the baseline, then bisect.
        step = 1
        last_ok = base
        while True:
            value = base + direction * step
            if abs(value) >= limit:
                return (limit - 1) if direction > 0 else -limit
            if not accepts(value):
                rejected = value
                break
            last_ok = value
            step *= 2
        lo, hi = sorted((last_ok, rejected))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if accepts(mid):
                if direction > 0:
                    lo = mid
                else:
                    hi = mid
            else:
                if direction > 0:
                    hi = mid
                else:
                    lo = mid
        return lo if direction > 0 else hi

    return search_bound(-1), search_bound(+1)
