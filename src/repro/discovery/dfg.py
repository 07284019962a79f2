"""Data-flow graph construction (paper Figure 10) and DOT export.

The graph makes explicit "the exact flow of information between
individual instructions in a sample", including implicit arguments
recovered by the Preprocessor.  Nodes are instructions, source variables
(``@L1.a`` data descriptors) and anonymous memory slots; edges carry the
register (or variable) the value travels through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.discovery.asmmodel import DMem, DReg


@dataclass
class Dfg:
    """A small dependency graph over instruction indices and variables.

    Node names: ``("instr", i)``, ``("var", name)``, ``("slot", key)``.
    """

    nodes: dict = field(default_factory=dict)  # node -> label
    edges: list = field(default_factory=list)  # (src, dst, tag)

    def add_node(self, node, label):
        self.nodes.setdefault(node, label)

    def add_edge(self, src, dst, tag=""):
        if (src, dst, tag) not in self.edges:
            self.edges.append((src, dst, tag))

    def successors(self, node):
        return [dst for src, dst, _t in self.edges if src == node]

    def descendants(self, node):
        seen = set()
        stack = [node]
        while stack:
            current = stack.pop()
            for nxt in self.successors(current):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def to_dot(self, title="dfg"):
        """Render in Graphviz DOT (the paper generated its figures this
        way as part of the produced documentation)."""
        lines = [f"digraph {title} {{"]
        for node, label in self.nodes.items():
            shape = {
                "instr": "box",
                "var": "ellipse",
                "slot": "ellipse",
            }[node[0]]
            name = _dot_name(node)
            lines.append(f'  {name} [label="{label}", shape={shape}];')
        for src, dst, tag in self.edges:
            attr = f' [label="{tag}"]' if tag else ""
            lines.append(f"  {_dot_name(src)} -> {_dot_name(dst)}{attr};")
        lines.append("}")
        return "\n".join(lines)


def _dot_name(node):
    text = "_".join(str(part) for part in node)
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in text)


def _reads_var(sample, var):
    shape = sample.shape
    rhs = shape.split("=")[1] if "=" in shape else shape
    return var in rhs


def build_dfg(sample, addr_map):
    """Build the data-flow graph from the preprocessed region."""
    info = sample.info
    graph = Dfg()
    for var in ("a", "b", "c"):
        graph.add_node(("var", var), f"@L1.{var}")
    for i, instr in enumerate(sample.region):
        if not instr.mnemonic:
            continue
        graph.add_node(("instr", i), f"{instr.mnemonic}_{i}")

    # Memory operands connect instructions to variables (or plain slots).
    for i, instr in enumerate(sample.region):
        has_reg_def = any(
            info.visible_kinds.get((i, k)) in ("def", "usedef")
            for k, op in enumerate(instr.operands)
            if isinstance(op, DReg)
        )
        for k, op in enumerate(instr.operands):
            if not isinstance(op, DMem):
                continue
            var = addr_map.var_of(op) if addr_map else None
            node = ("var", var) if var else ("slot", (op.kind, op.base, op.disp))
            if node[0] == "slot":
                graph.add_node(node, f"M[{op.base}{op.disp:+}]" if op.base else f"M[{op.disp}]")
            if var == "a" and not _reads_var(sample, "a"):
                graph.add_edge(("instr", i), node, "store")
            elif var == "a":
                # a is both read and written in this sample; decide by
                # whether the instruction defines a register from it.
                if has_reg_def:
                    graph.add_edge(node, ("instr", i), "load")
                else:
                    graph.add_edge(("instr", i), node, "store")
                    graph.add_edge(node, ("instr", i), "load")
            elif var is not None:
                graph.add_edge(node, ("instr", i), "load")
            else:
                # Anonymous slot: direction unknown; record both.
                graph.add_edge(node, ("instr", i), "")

    # Register edges follow the live-range chunks.
    for live in info.ranges:
        occs = live.occurrences
        for (i1, _k1), (i2, _k2) in zip(occs, occs[1:]):
            if i1 != i2:
                graph.add_edge(("instr", i1), ("instr", i2), live.reg)

    # Implicit-argument edges recovered by the Preprocessor; unresolved
    # candidates ("maybe" registers, e.g. %eax around cltd/idivl) are
    # included so the paths of Figure 10(d) stay connected.
    def _in_candidates(i, reg):
        return reg in info.implicit_in.get(i, ()) or reg in info.implicit_maybe.get(i, ())

    def _out_candidates(i, reg):
        return reg in info.implicit_out.get(i, ()) or reg in info.implicit_maybe.get(i, ())

    for live in info.ranges:
        if live.resolved:
            continue
        reg = live.reg
        index = live.occurrences[0][0]
        if live.flavor == "def":
            for i in range(index + 1, len(sample.region)):
                if _in_candidates(i, reg):
                    graph.add_edge(("instr", index), ("instr", i), reg)
        elif live.flavor == "use":
            for i in range(index - 1, -1, -1):
                if _out_candidates(i, reg):
                    graph.add_edge(("instr", i), ("instr", index), reg)
    # Chains *between* implicated instructions (cltd -> idivl) keep the
    # dependent register flowing forward.
    for reg in info.dependent_regs:
        implicated = sorted(
            i
            for i in range(len(sample.region))
            if _in_candidates(i, reg) or _out_candidates(i, reg)
        )
        for i1, i2 in zip(implicated, implicated[1:]):
            graph.add_edge(("instr", i1), ("instr", i2), reg)
    return graph
