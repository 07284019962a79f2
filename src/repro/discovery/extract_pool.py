"""Process-parallel extraction engine.

The probe scheduler (PR 2) overlaps remote round-trips, but the two
CPU-bound phases -- graph matching and reverse interpretation -- are
serialised by the GIL.  This module fans them out over a
``ProcessPoolExecutor`` while keeping the discovered description
**bit-for-bit identical for any process count**:

- The corpus is partitioned into *shards* by ``opkey`` connectivity
  (union-find): two samples land in the same shard iff they share an
  extraction unknown, so shards never interact through the semantics
  table and can be solved in any order, in any process.
- Small shards are dispatched whole to worker processes; a shard too
  large to dispatch (most targets compile every sample through the same
  load/store moves, producing one giant component) is solved in the
  parent, with its inner best-first search parallelised instead: the
  joint-assignment *enumeration order* is a pure function of the
  candidate scores (see ``VectorEnumerator``), so waves of candidate
  vectors are checked concurrently and the committed assignment is the
  first passing vector in enumeration order -- exactly the one a
  sequential search finds.
- Results merge in shard-index order.  A sample that failed inside its
  shard is discarded: its unknowns are closed within the shard, so no
  other shard's semantics could ever solve it.
- The global interpretation budget is split across shards
  proportionally to shard size (remainder to the earliest shards).
  Each shard's solver holds its share and counts what it spends; the
  stats carry the total and the sum of the spends.
- ``hypotheses()`` candidate lists are memoised per-process by
  instruction signature shape (:func:`hypothesis_shape_key`) and, for
  parent-solved shards, speculatively enumerated on the pool a bounded
  lookahead ahead of their solve (:class:`HypothesisPrefetcher`).

Every shard, dispatched or inline, is solved by one function,
:func:`_solve_shard`, over one :class:`ReverseInterpreter`.  At
``procs=1`` every stage runs inline through the same code paths, so the
single-process run is the plain in-process extraction -- identical
output, same budget policy.
"""

from __future__ import annotations

import multiprocessing
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.counters import Counters
from repro.discovery.dfg import build_dfg
from repro.discovery.graphmatch import match_binary
from repro.discovery.reverse_interp import (
    ExtractionResult,
    HypothesisMemo,
    InlineEvaluator,
    RegionTable,
    ReverseInterpreter,
    first_passing_index,
    hypotheses,
    hypothesis_shape_key,
)

#: shards at most this large are dispatched whole to a worker; larger
#: ones are solved in the parent with wave-parallel candidate checking
DISPATCH_MAX_SHARD = 12

#: per-worker chunk of candidate vectors in one pooled wave
EVAL_CHUNK = 96


# -- statistics ---------------------------------------------------------------


@dataclass
class ExtractionStats(Counters):
    """Counters for the process-parallel extraction of one target."""

    DERIVED = ("memo_hit_rate", "budget_unspent")

    procs: int = 1
    memo_enabled: bool = True
    shards: int = 0
    shard_sizes: list = field(default_factory=list)
    dispatched_shards: int = 0
    inline_shards: int = 0
    graph_tasks: int = 0
    hyp_tasks: int = 0
    eval_tasks: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    budget_total: int = 0
    budget_spent: int = 0

    @property
    def budget_unspent(self):
        return max(0, self.budget_total - self.budget_spent)

    @property
    def memo_hit_rate(self):
        looked = self.memo_hits + self.memo_misses
        return self.memo_hits / looked if looked else 0.0


# -- sharding -----------------------------------------------------------------


def partition_shards(samples, regions=None):
    """Group samples into opkey-connected components (union-find).

    Samples sharing any extraction unknown must see each other's
    commitments and revisions, so they stay together; disjoint groups
    are independent by construction.  Shards are returned ordered by
    their first sample's corpus position -- a pure function of the
    corpus, identical for every process count."""
    regions = RegionTable() if regions is None else regions
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    roots = []
    for position, sample in enumerate(samples):
        mine = ("sample", position)
        parent[mine] = mine
        roots.append(mine)
        for key in regions.of(sample).first:
            kid = ("key", key)
            if kid not in parent:
                parent[kid] = kid
            union(mine, kid)

    grouped = {}
    first_position = {}
    for position, sample in enumerate(samples):
        root = find(roots[position])
        if root not in grouped:
            grouped[root] = []
            first_position[root] = position
        grouped[root].append(sample)
    return [grouped[root] for root in sorted(grouped, key=first_position.get)]


def split_budget(total, sizes):
    """Deterministic proportional split of the global interpretation
    budget: ``total * size_i // sum(sizes)`` each, with the rounding
    remainder handed out one unit at a time to the earliest shards."""
    weight = sum(sizes)
    if not sizes or weight == 0:
        return []
    shares = [total * size // weight for size in sizes]
    remainder = total - sum(shares)
    for i in range(len(shares)):
        if remainder <= 0:
            break
        shares[i] += 1
        remainder -= 1
    return shares


# -- worker-process plumbing --------------------------------------------------


@dataclass
class WorkerContext:
    """Everything the pure per-shard computations need, installed once
    per process (inherited over ``fork``, or unpickled by the spawn
    initializer).  Graph roles are *not* frozen here -- they are
    computed after the pool may already exist -- so tasks that need
    them carry them in their payload."""

    samples_by_name: dict
    addr_map: object
    bits: int
    #: each sample's KeyedRegion, built once the regions are final
    regions: RegionTable
    use_likelihood: bool
    memo_enabled: bool


@dataclass
class ShardOutcome:
    """A solved shard, reduced to picklable payloads."""

    index: int
    semantics: list = field(default_factory=list)  # OpSemantics payloads
    solved: list = field(default_factory=list)
    failed: list = field(default_factory=list)
    tried: int = 0
    spent: int = 0
    memo_hits: int = 0
    memo_misses: int = 0


_CTX = None  # WorkerContext, in workers and in the parent (inline path)
_MEMO = None  # per-process HypothesisMemo, when enabled


def _install_context(ctx):
    global _CTX, _MEMO
    _CTX = ctx
    _MEMO = HypothesisMemo(ctx.bits) if ctx.memo_enabled else None


def _install_context_bytes(payload):
    _install_context(pickle.loads(payload))


def _memo_counters():
    if _MEMO is None:
        return 0, 0
    return _MEMO.hits, _MEMO.misses


def _task_graph_roles(names):
    """Graph-match a batch of samples; pure per sample."""
    ctx = _CTX
    out = []
    for name in names:
        sample = ctx.samples_by_name[name]
        graph = build_dfg(sample, ctx.addr_map)
        matched = match_binary(sample, graph)
        for index, role in matched.roles.items():
            out.append((name, index, role))
    return out


def _task_hypotheses(jobs):
    """Enumerate candidate lists for a batch of (sample, index, role)
    jobs; returns (shape_key, candidates) pairs for the parent memo."""
    ctx = _CTX
    out = []
    for name, index, role in jobs:
        sample = ctx.samples_by_name[name]
        if _MEMO is not None:
            cands = _MEMO.lookup(sample, index, role)
            key = _MEMO.key(sample, index, role)
        else:
            key = hypothesis_shape_key(sample, index, role, ctx.bits)
            cands = hypotheses(sample, index, role)
        out.append((key, cands))
    return out


def _task_first_passing(name, sem, extra_effects, solved_names, assignments):
    """Check one chunk of candidate vectors; returns the chunk-local
    index of the first passing assignment, or None."""
    ctx = _CTX
    sample = ctx.samples_by_name[name]
    solved = [ctx.samples_by_name[n] for n in solved_names]
    return first_passing_index(
        sample, sem, extra_effects, solved, assignments, ctx.addr_map, ctx.bits,
        ctx.regions,
    )


def _solve_shard(index, names, budget, graph_roles, evaluator=None, prefetch=None):
    """Solve one shard with the reverse interpreter and reduce it to its
    :class:`ShardOutcome`.  A worker runs this for a dispatched shard,
    the parent for an inline one; the memo counts are the process
    memo's deltas over the solve."""
    ctx = _CTX
    hits0, misses0 = _memo_counters()
    interpreter = ReverseInterpreter(
        [ctx.samples_by_name[name] for name in names],
        budget,
        ctx.addr_map,
        ctx.bits,
        ctx.regions,
        graph_roles,
        use_likelihood=ctx.use_likelihood,
        memo=_MEMO if prefetch is None else prefetch.memo,
        evaluator=evaluator,
        prefetch=prefetch,
    )
    result = interpreter.extract()
    hits1, misses1 = _memo_counters()
    return ShardOutcome(
        index=index,
        semantics=list(result.semantics.values()),
        solved=result.solved,
        failed=result.failed,
        tried=result.interpretations_tried,
        spent=interpreter.spent,
        memo_hits=hits1 - hits0,
        memo_misses=misses1 - misses0,
    )


# -- the pool and the pooled evaluator ----------------------------------------


class ExtractPool:
    """A lazily created process pool.  Prefers the ``fork`` start
    method so workers inherit the installed :class:`WorkerContext` (and
    the warm memo) without pickling; falls back to an explicit spawn
    initializer elsewhere."""

    def __init__(self, procs):
        self.procs = procs
        self._executor = None

    def _ensure(self):
        if self._executor is None:
            methods = multiprocessing.get_all_start_methods()
            if "fork" in methods:
                mp_ctx = multiprocessing.get_context("fork")
                initializer, initargs = None, ()
            else:
                mp_ctx = multiprocessing.get_context()
                initializer = _install_context_bytes
                initargs = (pickle.dumps(_CTX),)
            # Workers only run pure functions over the inherited
            # context; the interpreter's fork-with-threads caution does
            # not apply to them.
            warnings.filterwarnings(
                "ignore",
                message=".*use of fork\\(\\) may lead to deadlocks.*",
                category=DeprecationWarning,
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.procs,
                mp_context=mp_ctx,
                initializer=initializer,
                initargs=initargs,
            )
        return self._executor

    def submit(self, fn, *args):
        return self._ensure().submit(fn, *args)

    def run_ordered(self, fn, payloads):
        """Submit one task per payload; results in payload order."""
        futures = [self.submit(fn, *payload) for payload in payloads]
        return [future.result() for future in futures]

    def close(self):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def _split_even(items, parts):
    """Contiguous split into at most *parts* non-empty batches."""
    if not items:
        return []
    parts = max(1, min(parts, len(items)))
    size, extra = divmod(len(items), parts)
    batches, start = [], 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        batches.append(items[start:end])
        start = end
    return batches


class PooledEvaluator(InlineEvaluator):
    """Checks candidate-vector waves across the process pool.  The
    first wave of a solve is the inline evaluator's (most solves finish
    there, and an IPC round-trip for them would cost more than it
    saves); a solve that outlives it escalates to ``procs``-wide waves.
    Venue never affects the outcome: the winner is the first passing
    vector in enumeration order, wherever each chunk was checked."""

    def __init__(self, pool, addr_map, bits, stats, regions):
        super().__init__(addr_map, bits, regions)
        self.pool = pool
        self.stats = stats

    def next_wave(self, consumed):
        if consumed < self.wave:
            return self.wave
        return EVAL_CHUNK * self.pool.procs

    def first_passing(self, sample, sem, extra_effects, solved_samples, assignments):
        if len(assignments) <= self.wave:
            return super().first_passing(
                sample, sem, extra_effects, solved_samples, assignments
            )
        solved_names = [s.name for s in solved_samples]
        chunks = _split_even(assignments, self.pool.procs)
        futures = [
            self.pool.submit(
                _task_first_passing,
                sample.name, sem, extra_effects, solved_names, chunk,
            )
            for chunk in chunks
        ]
        self.stats.eval_tasks += len(futures)
        offset = 0
        hit = None
        # Every chunk is awaited (cheap: they run concurrently), and the
        # earliest chunk with a pass wins -- later chunks' passes are
        # vectors the sequential search would never have reached.
        for chunk, future in zip(chunks, futures):
            local = future.result()
            if hit is None and local is not None:
                hit = offset + local
            offset += len(chunk)
        return hit


# -- speculative hypothesis prefetch ------------------------------------------

#: how many upcoming pending samples to enumerate hypotheses for ahead
#: of their solve; bounds the speculative waste when an earlier solve
#: commits a key the lookahead already enqueued work for
PREFETCH_WINDOW = 8


class _PrefetchedMemo:
    """The memo facade the inline shard solver sees: hits serve from the
    shared table, misses first collect an in-flight prefetch future, and
    only then fall back to inline enumeration.  Every path returns the
    exact :func:`hypotheses` result, so this is invisible to the search."""

    def __init__(self, memo, prefetcher):
        self.base = memo
        self.prefetcher = prefetcher

    def lookup(self, sample, index, role):
        key = self.base.key(sample, index, role)
        cached = self.base.table.get(key)
        if cached is not None:
            self.base.hits += 1
            return cached
        cands = self.prefetcher.resolve(key)
        if cands is not None:
            # The enumeration work happened, in a worker: a miss.
            self.base.seed(key, cands)
            return cands
        return self.base.lookup(sample, index, role)


class HypothesisPrefetcher:
    """Bounded-lookahead speculative hypothesis enumeration.

    Before each solve, the interpreter hands over the upcoming pending
    samples; shapes for their still-unknown keys are enqueued on the
    pool so the lists are (being) computed by the time their solve asks.
    The issued set is a pure function of the deterministic solve order
    and semantics state -- and prefetching only ever warms the memo --
    so results are bit-for-bit those of the serial path."""

    window = PREFETCH_WINDOW

    def __init__(self, pool, memo, graph_roles, use_likelihood, bits, stats, regions):
        self.pool = pool
        self.base = memo
        self.memo = _PrefetchedMemo(memo, self)
        self.graph_roles = graph_roles
        self.use_likelihood = use_likelihood
        self.bits = bits
        self.stats = stats
        self.regions = regions
        self.futures = {}

    def __call__(self, upcoming, result, revision=False):
        for sample in upcoming[: self.window]:
            for key, index in self.regions.of(sample).first.items():
                if key in result.semantics and not revision:
                    continue
                role = (
                    self.graph_roles.get((sample.name, index))
                    if self.use_likelihood
                    else None
                )
                shape = hypothesis_shape_key(sample, index, role, self.bits)
                if shape in self.base.table or shape in self.futures:
                    continue
                self.futures[shape] = self.pool.submit(
                    _task_hypotheses, [(sample.name, index, role)]
                )
                self.stats.hyp_tasks += 1

    def resolve(self, shape):
        future = self.futures.pop(shape, None)
        if future is None:
            return None
        [(_shape, cands)] = future.result()
        return cands


# -- the engine ---------------------------------------------------------------


class ExtractionEngine:
    """Orchestrates the two CPU-bound phases for one discovery run."""

    def __init__(self, procs=1, memo=True):
        self.procs = max(1, int(procs))
        self.memo_enabled = bool(memo)
        self.pool = ExtractPool(self.procs) if self.procs > 1 else None
        self.stats = ExtractionStats(procs=self.procs, memo_enabled=self.memo_enabled)
        self._prepared = False
        self.addr_map = None
        self.bits = None
        self.use_likelihood = True
        self._samples = []
        self.regions = RegionTable()

    # -- lifecycle -----------------------------------------------------

    def prepare(self, corpus, addr_map, bits, use_likelihood=True):
        """Install the worker context.  Must happen before the first
        fan-out so forked workers inherit the fully preprocessed
        samples; graph roles, computed later, travel per task."""
        self.addr_map = addr_map
        self.bits = bits
        self.use_likelihood = use_likelihood
        self._samples = [
            s
            for s in corpus.usable_samples()
            if s.kind in ReverseInterpreter.RI_KINDS and s.info is not None
        ]
        self.regions = RegionTable()
        for sample in self._samples:
            self.regions.of(sample)
        _install_context(
            WorkerContext(
                samples_by_name={s.name: s for s in self._samples},
                addr_map=addr_map,
                bits=bits,
                use_likelihood=use_likelihood,
                memo_enabled=self.memo_enabled,
                regions=self.regions,
            )
        )
        self._prepared = True

    def close(self):
        if self.pool is not None:
            self.pool.close()

    # -- graph matching ------------------------------------------------

    def graph_roles(self):
        """Per-instruction roles for every eligible sample, fanned over
        the pool when ``procs > 1``; merge order (sample order, then
        match order) is venue-independent."""
        names = [s.name for s in self._samples]
        batches = _split_even(names, self.procs)
        if self.pool is not None and len(batches) > 1:
            results = self.pool.run_ordered(
                _task_graph_roles, [(batch,) for batch in batches]
            )
        else:
            results = [_task_graph_roles(batch) for batch in batches]
        self.stats.graph_tasks += len(batches)
        roles = {}
        for result in results:
            for name, index, role in result:
                roles[(name, index)] = role
        # Canonical (name, index) order: match_binary's per-sample role
        # dict iterates in hash order, which varies across interpreter
        # processes -- consumers look roles up by key, but this dict
        # rides the checkpoint, where insertion order is bytes.
        return dict(sorted(roles.items()))

    # -- reverse interpretation ----------------------------------------

    def extract(self, graph_roles, budget, completed=None, on_shard=None):
        """Shard, solve, merge.  Returns the merged
        :class:`ExtractionResult`; counters land in ``self.stats``.

        *completed* maps shard index -> :class:`ShardOutcome` from a
        resumed run's checkpoint: those shards are not re-solved, their
        recorded outcomes join the merge directly.  *on_shard* is called
        with each **newly** solved outcome (in shard-index order) --
        the driver's per-shard durable commit hook.  Shard budgets are
        seeded per index, so the merge cannot tell replay from solve.
        """
        by_name = {s.name: s for s in self._samples}
        shards = partition_shards(self._samples, self.regions)
        sizes = [len(shard) for shard in shards]
        shares = split_budget(budget, sizes)
        self.stats.shards = len(shards)
        self.stats.shard_sizes = sizes
        self.stats.budget_total = budget

        outcomes = dict(completed) if completed else {}
        dispatch, inline = [], []
        for index, (shard, share) in enumerate(zip(shards, shares)):
            if index in outcomes:
                continue
            names = [s.name for s in shard]
            member = set(names)
            roles = {
                (name, i): role
                for (name, i), role in graph_roles.items()
                if name in member
            }
            task = (index, names, share, roles)
            if self.pool is not None and len(names) <= DISPATCH_MAX_SHARD:
                dispatch.append(task)
            else:
                inline.append(task)
        self.stats.dispatched_shards = len(dispatch)
        self.stats.inline_shards = len(inline)

        futures = {
            task[0]: self.pool.submit(_solve_shard, *task) for task in dispatch
        }
        for index, names, share, roles in inline:
            outcomes[index] = _solve_shard(
                index, names, share, roles,
                self._parent_evaluator(), self._make_prefetcher(roles),
            )
            if on_shard is not None:
                on_shard(outcomes[index])
        for index in sorted(futures):
            outcomes[index] = futures[index].result()
            if on_shard is not None:
                on_shard(outcomes[index])

        # Deterministic ordered merge: shard-index order, regardless of
        # completion order or venue.
        merged = ExtractionResult()
        spent = 0
        for index in sorted(outcomes):
            outcome = outcomes[index]
            for op_sem in outcome.semantics:
                if op_sem.key not in merged.semantics:
                    merged.semantics[op_sem.key] = op_sem
            merged.solved.extend(outcome.solved)
            merged.interpretations_tried += outcome.tried
            spent += outcome.spent
            self.stats.memo_hits += outcome.memo_hits
            self.stats.memo_misses += outcome.memo_misses
            # failed in its shard is failed for good: a shard is closed
            # over its keys, so no other shard's semantics can solve it
            for name in outcome.failed:
                merged.failed.append(name)
                by_name[name].discard("reverse interpretation found no consistent semantics")
        self.stats.budget_spent = spent
        return merged

    def _parent_evaluator(self):
        if self.pool is None:
            return None  # the interpreter's own inline evaluator
        return PooledEvaluator(self.pool, self.addr_map, self.bits, self.stats, self.regions)

    def _make_prefetcher(self, roles):
        if self.pool is None or _MEMO is None:
            return None
        return HypothesisPrefetcher(
            self.pool, _MEMO, roles, self.use_likelihood, self.bits, self.stats,
            self.regions,
        )
