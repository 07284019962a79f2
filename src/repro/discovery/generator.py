"""The Generator: produce the sample programs (paper section 3).

"We must therefore produce as many simple samples as possible.  For
example, for subtraction we generate: a=b-c, a=a-b, a=b-a, a=a-a, a=b-b,
a=7-b, a=b-7, a=7-a, and a=a-7.  This means that we will be left with a
large number of samples, typically around 150 for each numeric type."
"""

from __future__ import annotations

import random

from repro.beg.ir import OPERATOR_TABLE, RELATION_TABLE
from repro.discovery import values as mc
from repro.discovery.samples import INIT_HEADER, Corpus, Sample, make_main_source
from repro.errors import TargetError

#: the operator rows of the binary and unary samples, in table order
BINARY_ROWS = tuple(row for row in OPERATOR_TABLE if row.arity == 2)
UNARY_ROWS = tuple(row for row in OPERATOR_TABLE if row.arity == 1)

#: the paper's nine operand shapes for a binary operator
BINARY_SHAPES = [
    "a=b@c",
    "a=c@b",
    "a=a@b",
    "a=b@a",
    "a=a@a",
    "a=b@b",
    "a=K@b",
    "a=b@K",
    "a=a@K",
]

LITERALS = [1235, 1462, -1, 0, 34117]


class SampleGenerator:
    """Generates, compiles and pre-runs the sample corpus."""

    def __init__(self, machine, syntax, seed=1997):
        self.machine = machine
        self.syntax = syntax
        self.rng = random.Random(seed)
        self.word_bits = None  # filled from enquire, defaults to 32

    def generate(self, word_bits=32, extra_value_rounds=1, scheduler=None):
        """Build the full corpus: every sample compiled and executed once
        to record its expected output.

        Spec construction draws from the seeded rng strictly in order
        (so the sample set is a pure function of the seed); realisation
        -- one compile and one run per sample -- is independent per
        sample and fans out over *scheduler*'s connection pool when one
        is given.  Samples are appended in spec order either way.
        """
        corpus = self.build_corpus(
            word_bits=word_bits, extra_value_rounds=extra_value_rounds
        )
        specs = corpus.samples
        if scheduler is not None:
            scheduler.map_values(
                lambda sample, conn: realise_sample(corpus.bind(conn), sample),
                specs,
                phase="sample generation",
            )
        else:
            for sample in specs:
                realise_sample(corpus, sample)
        return corpus

    def build_corpus(self, word_bits=32, extra_value_rounds=1):
        """Spec construction only: the corpus with every sample appended
        in spec order but none realised (``expected_output`` unset).

        The driver realises in checkpointed chunks via
        :func:`realise_sample`; splitting the phases this way makes the
        sample *set* durable the moment the corpus exists, so a crashed
        run resumes with exactly the unrealised suffix.
        """
        self.word_bits = word_bits
        corpus = Corpus(self.machine, self.syntax)
        specs = []
        specs.extend(self._binary_specs())
        if extra_value_rounds:
            for round_number in range(extra_value_rounds):
                for row in BINARY_ROWS:
                    extra = self._binary_spec(row, "a=b@c")
                    extra.name += f"_v{round_number + 2}"
                    specs.append(extra)
        specs.extend(self._unary_specs())
        specs.extend(self._literal_specs())
        specs.extend(self._copy_specs())
        specs.extend(self._cond_specs())
        specs.extend(self._call_specs())
        corpus.samples.extend(specs)
        return corpus

    # -- sample specs -----------------------------------------------------

    def _binary_specs(self):
        return [
            self._binary_spec(row, shape)
            for row in BINARY_ROWS
            for shape in BINARY_SHAPES
        ]

    def _binary_spec(self, row, shape):
        """Choose initialisation values that make *this statement's*
        effective operand pair unambiguous (section 5.2.1); a value set
        good for ``a=b/c`` may leave ``a=c/b`` printing a degenerate 0."""
        op = row.spelling
        konst = 3 if row.shift else 7
        if shape == "a=K@b" and row.shift:
            konst = 503
        rhs = shape.split("=")[1]
        left_name, right_name = rhs.split("@")
        if row.divisor and left_name == "K":
            konst = 97811  # a dividend large enough for any divisor draw
        values = None
        for _attempt in range(2000):
            trial = {
                "a": mc.choose_single(self.rng, self.word_bits),
                "b": mc.choose_single(self.rng, self.word_bits),
                "c": mc.choose_single(self.rng, self.word_bits),
            }
            # Shift counts must stay small wherever they are read from.
            if row.shift and right_name != "K":
                if left_name == right_name:
                    # b>>b needs a value that is large yet shifts by a
                    # small count (counts are taken mod the word width).
                    trial[right_name] = (
                        self.rng.randint(300, 5000) * 64 + self.rng.randint(2, 8)
                    )
                else:
                    trial[right_name] = self.rng.randint(2, 8)
                    if left_name != "K":
                        trial[left_name] = self.rng.randint(300, 5000)
            env = dict(trial)
            env["K"] = konst
            lv, rv = env[left_name], env[right_name]
            if left_name == right_name:
                if row.divisor and rv == 0:
                    continue
                values = trial  # degenerate shape; nothing to pin
                break
            if row.divisor:
                if rv == 0 or lv <= rv * 3 or lv % rv == 0:
                    continue
            if mc.values_distinct(lv, rv, self.word_bits, op):
                values = trial
                break
        if values is None:
            raise RuntimeError(f"no usable values for {op} {shape}")
        statement = (
            shape.replace("@", f" {op} ")
            .replace("K", str(konst))
            .replace("=", " = ")
            + ";"
        )
        name = f"int_{row.stem}_{shape.replace('@', 'OP').replace('=', '_')}"
        return Sample(
            name=name,
            kind="binary",
            op=op,
            shape=shape,
            statement=statement,
            values=values,
        )

    def _unary_specs(self):
        specs = []
        for row in UNARY_ROWS:
            op = row.spelling
            for operand in ("b", "a"):
                b, c = mc.choose_pair(self.rng, self.word_bits)
                a = mc.choose_single(self.rng, self.word_bits)
                specs.append(
                    Sample(
                        name=f"int_{row.stem}_{operand}",
                        kind="unary",
                        op=op,
                        shape=f"a={op}{operand}",
                        statement=f"a = {op}{operand};",
                        values={"a": a, "b": b, "c": c},
                    )
                )
        return specs

    def _literal_specs(self):
        specs = []
        for lit in LITERALS:
            specs.append(
                Sample(
                    name=f"int_lit_{lit}",
                    kind="literal",
                    op=None,
                    shape="a=K",
                    statement=f"a = {lit};",
                    values={"a": 5, "b": 313, "c": 109},
                )
            )
        return specs

    def _copy_specs(self):
        specs = []
        for src in ("b", "c"):
            b, c = mc.choose_pair(self.rng, self.word_bits)
            specs.append(
                Sample(
                    name=f"int_copy_{src}",
                    kind="copy",
                    op=None,
                    shape=f"a={src}",
                    statement=f"a = {src};",
                    values={"a": 9, "b": b, "c": c},
                )
            )
        return specs

    def _cond_specs(self):
        specs = []
        for row in RELATION_TABLE:
            rel = row.spelling
            b, c = mc.choose_pair(self.rng, self.word_bits)
            if b == c:
                c = b + 11
            specs.append(
                Sample(
                    name=f"int_cond_{row.stem}",
                    kind="cond",
                    op=rel,
                    shape=f"if(b{rel}c)",
                    statement=f"if (b {rel} c) a = 8;",
                    values={"a": 7, "b": min(b, c), "c": max(b, c)},
                )
            )
        specs.append(
            Sample(
                name="int_truth",
                kind="truth",
                op=None,
                shape="if(b)",
                statement="if (b) a = 8;",
                values={"a": 7, "b": 5, "c": 6},
            )
        )
        return specs

    def _call_specs(self):
        b, c = mc.choose_pair(self.rng, self.word_bits)
        return [
            Sample(
                name="int_call_P_b",
                kind="call",
                op=None,
                shape="a=P(b)",
                statement="a = P(b);",
                values={"a": 2, "b": b, "c": c},
            ),
            Sample(
                name="int_call_P2_bc",
                kind="call",
                op=None,
                shape="a=P2(b,c)",
                statement="a = P2(b, c);",
                values={"a": 2, "b": b, "c": c},
            ),
            Sample(
                name="int_call_P_34",
                kind="call",
                op=None,
                shape="a=P(34)",
                statement="a = P(34);",
                values={"a": 2, "b": b, "c": c},
            ),
        ]

def realise_sample(corpus, sample):
    """Compile the sample and run it once to record its output.

    Module-level (not a generator method) so the driver can realise a
    resumed corpus without reconstructing the generator or replaying its
    rng.  A target that stays unreachable through the retry policy costs
    only this sample (quarantine), not the whole generation phase.
    """
    sample.main_c = make_main_source(sample.statement)
    try:
        sample.asm_text = corpus.machine.compile_c(
            sample.main_c, headers={"init.h": INIT_HEADER}
        )
        result = corpus.run_raw(sample)
    except TargetError as exc:
        sample.discard(f"quarantined (generation): {exc}")
        return
    if result is None or not result.ok:
        sample.discard(
            f"original run failed: {result.error if result else 'assembly/link error'}"
        )
        return
    sample.expected_output = result.output
