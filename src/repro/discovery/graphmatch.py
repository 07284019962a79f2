"""Graph matching (paper section 5.1, Figure 11).

For a binary sample ``a = b (+) c`` the data-flow graph has paths P_b and
P_c from ``@L1.b`` and ``@L1.c`` meeting at some node P -- the point
where the operation is performed -- and a further path to the point Q
where the result reaches ``@L1.a``.  The roles assigned here feed the
M(S, I, R) component of the reverse interpreter's likelihood function.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MatchResult:
    """Per-instruction roles: "load" (on P_b/P_c), "compute" (the P
    node), "store" (writes @L1.a), "forward" (between P and Q)."""

    roles: dict = field(default_factory=dict)
    p_node: object = None
    q_node: object = None

    def role(self, index):
        return self.roles.get(index)


def _instr_indices(nodes):
    return {node[1] for node in nodes if node[0] == "instr"}


def match_binary(sample, graph):
    """Locate P and Q for a binary (or unary/copy) sample."""
    result = MatchResult()
    sources = []
    shape_rhs = sample.shape.split("=")[1] if "=" in sample.shape else ""
    for var in ("a", "b", "c"):
        if var in shape_rhs and ("var", var) in graph.nodes:
            sources.append(("var", var))
    target = ("var", "a")
    if target not in graph.nodes:
        return result

    descendant_sets = [graph.descendants(src) for src in sources]
    if not descendant_sets:
        return result
    common = set.intersection(*descendant_sets) if descendant_sets else set()
    common_instrs = _instr_indices(common)
    if not common_instrs:
        return result

    # P is the earliest instruction reachable from every source.
    p_index = min(common_instrs)
    result.p_node = ("instr", p_index)
    result.roles[p_index] = "compute"

    # Everything on a source path before P loads an operand value.
    for src, desc in zip(sources, descendant_sets):
        for node in desc:
            if node[0] == "instr" and node[1] < p_index:
                result.roles.setdefault(node[1], "load")

    # The store: the instruction with an edge into @L1.a.
    store_instrs = [
        src[1] for src, dst, _t in graph.edges if dst == target and src[0] == "instr"
    ]
    if store_instrs:
        q_index = max(store_instrs)
        result.q_node = ("instr", q_index)
        if q_index != p_index:
            result.roles[q_index] = "store"
        # Instructions strictly between P and Q forward the value.
        p_desc = graph.descendants(result.p_node)
        for node in p_desc:
            if node[0] == "instr" and p_index < node[1] < q_index:
                result.roles.setdefault(node[1], "forward")
    return result
