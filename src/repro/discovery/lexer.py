"""The Lexer's extraction half: find and tokenize the relevant region.

Paper Figure 3: the sample statement sits between two labels (`Begin`
and `End`), each referenced at least three times thanks to the
conditional-goto maze, which also stops an optimizer from removing them.
"These labels will be easy to identify since they each must be
referenced at least three times."
"""

from __future__ import annotations

from repro.discovery.asmmodel import DInstr, number_lines
from repro.errors import DiscoveryError


def parse(asm_text, comment_char):
    """The raw lines, and an (index of the raw line, :class:`RawLine`)
    pair for each line that is not blank or comment-only."""
    raw_lines = asm_text.splitlines()
    return raw_lines, number_lines(raw_lines, comment_char)


def find_delimiters(asm_text, comment_char):
    """Return (begin_label, end_label): the two labels referenced at
    least three times, in definition order."""
    return _delimiters(parse(asm_text, comment_char)[1])


def _delimiters(parsed):
    defined = {}  # label -> definition line index (in raw text lines)
    references = {}
    for index, line in parsed:
        for label in line.labels:
            defined.setdefault(label, index)
    for _index, line in parsed:
        if line.mnemonic is None or line.is_directive:
            continue
        for token in line.operand_texts:
            if token in defined:
                references[token] = references.get(token, 0) + 1
    hot = sorted(
        (label for label, count in references.items() if count >= 3),
        key=lambda label: defined[label],
    )
    if len(hot) != 2:
        raise DiscoveryError(
            f"expected exactly 2 heavily-referenced labels, found {hot!r}"
        )
    return hot[0], hot[1]


def extract_region(sample, syntax, parsed_text=None):
    """Split the sample's assembly into (pre_lines, region, post_lines)
    and tokenize the region instructions; fills the sample in place.
    *parsed_text* is the text's :func:`parse`, when the caller holds
    one."""
    if parsed_text is None:
        parsed_text = parse(sample.asm_text, syntax.comment_char)
    raw_lines, parsed = parsed_text
    begin, end = _delimiters(parsed)

    def def_line(label):
        for index, line in parsed:
            if label in line.labels:
                return index
        raise DiscoveryError(f"label {label!r} vanished")

    begin_index = def_line(begin)
    end_index = def_line(end)
    if end_index <= begin_index:
        raise DiscoveryError("End label precedes Begin label")

    sample.pre_lines = raw_lines[: begin_index + 1]
    sample.post_lines = raw_lines[end_index:]
    sample.region = _tokenize(
        [line for index, line in parsed if begin_index < index < end_index], syntax
    )
    sample.notes.append(f"delimiters: {begin}..{end}")
    return sample


def tokenize_region(raw_lines, syntax):
    """Tokenize assembly lines into :class:`DInstr` records."""
    return _tokenize(
        [line for _index, line in number_lines(raw_lines, syntax.comment_char)], syntax
    )


def _tokenize(lines, syntax):
    """Tokenize :class:`RawLine` records."""
    instrs = []
    pending_labels = []
    for line in lines:
        pending_labels.extend(line.labels)
        if line.mnemonic is None:
            continue
        if line.is_directive:
            # Directives inside a region are kept as opaque zero-cost
            # instructions so they survive re-rendering.
            instrs.append(
                DInstr(line.mnemonic, [], labels=pending_labels, raw=line.text)
            )
            pending_labels = []
            continue
        operands = [syntax.classify(token) for token in line.operand_texts]
        instrs.append(
            DInstr(line.mnemonic, operands, labels=pending_labels, raw=line.text)
        )
        pending_labels = []
    if pending_labels:
        # Trailing labels: attach to a synthetic no-op so they re-render.
        instrs.append(DInstr("", [], labels=pending_labels))
    return instrs
