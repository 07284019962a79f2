"""Sample data model and the Corpus (target-interaction helper).

A :class:`Sample` is one tiny C program (paper Figure 3): a `main` whose
interesting statement sits between the `Begin`/`End` label maze, plus a
separately compiled `Init` hiding the initialisation values from the
compiler.  The :class:`Corpus` owns the machine connection and knows how
to re-run a sample -- original or mutated, under the original or fresh
initialisation values -- which is the primitive operation of mutation
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AssemblerError, LinkerError


@dataclass
class Sample:
    """One generated sample and everything learned about it so far."""

    name: str
    kind: str  # "binary" | "unary" | "literal" | "copy" | "cond" | "truth" | "call"
    op: str | None
    shape: str
    statement: str
    values: dict
    main_c: str = ""
    asm_text: str = ""
    expected_output: str | None = None
    # Filled by the Lexer:
    pre_lines: list = field(default_factory=list)
    region: list = field(default_factory=list)
    post_lines: list = field(default_factory=list)
    # Filled by the Preprocessor:
    info: object = None  # preprocess.RegionInfo
    #: the region before redundant-instruction elimination (the
    #: calling-convention analysis reads stack clean-ups from it)
    region_original: list | None = None
    dfg: object = None
    notes: list = field(default_factory=list)
    discarded: str | None = None  # reason, if analysis gave up on it

    @property
    def usable(self):
        return self.discarded is None and self.expected_output is not None

    def discard(self, reason):
        self.discarded = reason


INIT_HEADER = "extern int z1, z2, z3, z4, z5, z6;\n"

INIT_TEMPLATE = """\
int z1, z2, z3, z4, z5, z6;
void Init(int *n, int *o, int *p)
{{
    z1 = 1; z2 = 1; z3 = 1;
    z4 = 1; z5 = 1; z6 = 1;
    *n = {a};
    *o = {b};
    *p = {c};
}}
int P(int x)
{{
    return x - 17;
}}
int P2(int x, int y)
{{
    return x - 2 * y;
}}
"""

MAIN_TEMPLATE = """\
#include "init.h"
main()
{{
    int a, b, c;
    Init(&a, &b, &c);
    if (z1) goto Begin;
    if (z2) goto End;
    if (z3) goto Begin;
    if (z4) goto End;
    if (z5) goto Begin;
    if (z6) goto End;
Begin:
    {statement}
End:
    printf("%i\\n", a);
    exit(0);
}}
"""


def make_main_source(statement):
    return MAIN_TEMPLATE.format(statement=statement)


def make_init_source(values):
    return INIT_TEMPLATE.format(
        a=values.get("a", 0), b=values.get("b", 0), c=values.get("c", 0)
    )


class Corpus:
    """The sample set plus the machinery to (re-)execute samples."""

    def __init__(self, machine, syntax):
        self.machine = machine
        self.syntax = syntax
        self.samples = []
        self._init_cache = {}

    def bind(self, machine):
        """A view of this corpus over another target connection.

        Samples and syntax are shared (scheduler tasks each own their
        sample, so concurrent mutation of *different* samples is safe);
        the connection and the init-object cache are private, because
        assembled handles belong to the connection that made them.
        """
        if machine is self.machine:
            return self
        view = Corpus(machine, self.syntax)
        view.samples = self.samples
        return view

    # -- target interaction ------------------------------------------------

    def init_object(self, values):
        """Assembled init.o for the given initialisation values (cached)."""
        key = (values.get("a", 0), values.get("b", 0), values.get("c", 0))
        if key not in self._init_cache:
            asm = self.machine.compile_c(make_init_source(values))
            self._init_cache[key] = self.machine.assemble(asm)
        return self._init_cache[key]

    def render_main(self, sample, instrs=None):
        """Reassemble the sample's main.s text, optionally with the
        region replaced by (mutated) instructions."""
        region = sample.region if instrs is None else instrs
        body = self.syntax.render_instrs(region)
        return "\n".join(sample.pre_lines + [body] + sample.post_lines) + "\n"

    def run(self, sample, instrs=None, values=None):
        """Assemble/link/execute; returns an ExecResult or None when the
        mutated text does not even assemble (a failed mutation)."""
        values = values if values is not None else sample.values
        text = self.render_main(sample, instrs)
        try:
            main_obj = self.machine.assemble(text)
            init_obj = self.init_object(values)
            exe = self.machine.link([main_obj, init_obj])
        except (AssemblerError, LinkerError):
            return None
        return self.machine.execute(exe)

    def run_raw(self, sample, values=None):
        """Run the sample exactly as compiled (no region re-rendering)."""
        values = values if values is not None else sample.values
        try:
            main_obj = self.machine.assemble(sample.asm_text)
            init_obj = self.init_object(values)
            exe = self.machine.link([main_obj, init_obj])
        except (AssemblerError, LinkerError):
            return None
        return self.machine.execute(exe)

    def usable_samples(self, kind=None):
        for sample in self.samples:
            if not sample.usable:
                continue
            if kind is not None and sample.kind != kind:
                continue
            yield sample
