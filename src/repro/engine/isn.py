"""The index serving node (ISN).

The ISN owns a partitioned index and answers queries by fanning out to
all partitions — in parallel on a thread pool (the benchmark's
behaviour) or serially (for noise-free service-time characterization) —
and merging the shard top-k lists.

With a :class:`~repro.engine.hedging.HedgingPolicy` attached, the
fan-out becomes *tail-tolerant*: each shard request carries a deadline
budget, a straggling shard is hedged (a backup attempt races the
original, first answer wins, losers are cancelled), failed attempts are
retried with backoff, and a shard that misses its deadline is dropped
from the merge — the response then reports ``coverage < 1.0`` so
callers can plot the quality-vs-tail tradeoff.  Without a policy the
fan-out is the seed's plain gather, byte-for-byte.

When constructed with a :class:`~repro.obs.tracing.Tracer`, every query
emits a span tree (``isn.execute`` → ``parse``/``fanout``/``shard``/
``merge``) whose timestamps are the same measurements the response's
:class:`ComponentTimings` is built from — with tracing enabled the
timings *are* derived from the spans, so the two views cannot drift.
A :class:`~repro.obs.registry.MetricsRegistry` adds per-run counters
(queries served, postings traversed, hedges issued/won, deadline
misses).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.engine.execution import ExecutionConfig
from repro.engine.hedging import DISABLED_POLICY, HedgingPolicy, ShardLatencyTracker
from repro.engine.instrumentation import ComponentTimings
from repro.index.partitioner import PartitionedIndex
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Span, Tracer
from repro.predict.features import extract_features
from repro.resilience.admission import BlockingAdmissionGate, OverloadPolicy, ShedResponse
from repro.resilience.breaker import BreakerBoard, BreakerConfig, BreakerState
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.search.executor import (
    SearchCancelled,
    ShardSearcher,
    _normalize_algorithm,
)
from repro.search.global_stats import global_scorer_factory
from repro.search.strategy import TraversalStrategy
from repro.search.merger import merge_shard_results
from repro.search.query import DEFAULT_TOP_K, ParsedQuery, QueryMode, QueryParser
from repro.search.topk import SearchHit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.querycache import CachedPage, QueryResultCache
    from repro.index.store import TieredStorageConfig
    from repro.predict.scheduler import DeadlineScheduler

#: Linear bucket edges for the coverage histogram (fractions of shards).
COVERAGE_BUCKETS = tuple(i / 20.0 for i in range(21))

#: Crash re-dispatches per batch-execution chunk: a worker death moves
#: the chunk to a healthy worker instead of failing the whole batch.
_BATCH_CRASH_RETRIES = 2

#: Bucket edges for the admission-queue-depth histogram (queries waiting).
QUEUE_DEPTH_BUCKETS = tuple(float(i) for i in range(0, 65, 4))


@dataclass(frozen=True)
class IsnResponse:
    """One query's answer from an ISN.

    ``coverage`` is the fraction of shards whose answer made it into
    the merge: 1.0 on the plain path, possibly lower under a
    :class:`~repro.engine.hedging.HedgingPolicy` with deadlines.

    ``cached`` flags responses replayed from the result cache; their
    ``matched_volume`` is the volume recorded when the page was first
    computed (so work accounting stays truthful), not zero.
    """

    hits: Tuple[SearchHit, ...]
    timings: ComponentTimings
    matched_volume: int
    coverage: float = 1.0
    hedges_issued: int = 0
    hedges_won: int = 0
    deadline_misses: int = 0
    breaker_skips: int = 0
    cached: bool = False
    trace: Optional[Span] = field(default=None, compare=False)

    #: Served responses are never shed; ``getattr(outcome, "shed",
    #: False)`` is the idiomatic served/shed split across outcome types.
    shed = False

    @property
    def latency_s(self) -> float:
        """End-to-end service time in seconds (protocol accessor)."""
        return self.timings.total_seconds

    def doc_ids(self) -> List[int]:
        """Global doc ids of the hits, best first."""
        return [hit.doc_id for hit in self.hits]


@dataclass
class _FanoutOutcome:
    """What one fan-out produced: answered shards plus hedge accounting.

    ``answered`` holds ``(shard_index, kind, result, start, end)``
    tuples for shards whose winner made the merge; ``kind`` is the
    winning attempt's flavour (``"primary"``/``"hedge"``/``"retry"``).
    """

    answered: List[tuple]
    num_shards: int
    hedges_issued: int = 0
    hedges_won: int = 0
    deadline_misses: int = 0
    failures: int = 0
    retries: int = 0
    breaker_skips: int = 0
    missed_shards: Tuple[int, ...] = ()

    @property
    def coverage(self) -> float:
        if self.num_shards == 0:
            return 1.0
        return len(self.answered) / self.num_shards


class IndexServingNode:
    """Searches one server's partitioned index with intra-query parallelism.

    Parameters
    ----------
    partitioned:
        The server's index shards.
    execution:
        The :class:`~repro.engine.execution.ExecutionConfig` selecting
        the fan-out backend.  ``"threads"`` (default) fans out on a
        thread pool sized to the partition count — doubled when a
        hedging policy is attached so backup attempts are not starved
        by the primaries they are meant to overtake.  ``"processes"``
        exports the index hot state once into shared memory and scores
        on a GIL-free :class:`~repro.engine.mp.ProcessShardPool`;
        results stay bit-identical to the thread backend.
    shared_source:
        Resident index to export for process workers when
        ``partitioned`` itself is not exportable (tiered shards page
        blocks on demand and cannot be flattened).  Workers re-tier
        the attached shards with ``tiered``, so storage counters keep
        their semantics per worker.
    tiered:
        The :class:`~repro.index.store.TieredStorageConfig` process
        workers re-apply to the attached resident shards.  Ignored by
        the thread backend, which searches ``partitioned`` as given.
    algorithm:
        Traversal algorithm for shard searchers — an executor algorithm
        name or a :class:`~repro.search.strategy.TraversalStrategy`
        (``"exhaustive"``/``"wand"``/``"block-max-wand"`` spellings are
        normalized by the searcher).
    use_global_stats:
        Score shards with collection-global statistics (distributed
        idf).  On by default so results are partition-count invariant.
    cache:
        Optional result-page cache consulted by :meth:`execute` before
        the partition fan-out.  :meth:`execute_serial` bypasses it —
        characterization and calibration need raw service times.
    hedging:
        Optional :class:`~repro.engine.hedging.HedgingPolicy`.  None or
        an inert policy keeps the seed's plain fan-out path.
    overload:
        Optional :class:`~repro.resilience.admission.OverloadPolicy`.
        When set (and enabled), every :meth:`execute` call passes a
        bounded admission gate first; refused queries return a
        :class:`~repro.resilience.admission.ShedResponse` instead of
        being served.
    breakers:
        Optional :class:`~repro.resilience.breaker.BreakerConfig`.
        When set, each shard gets a circuit breaker fed by fan-out
        failures and deadline misses; an open shard is skipped,
        degrading coverage like a deadline miss.
    faults:
        Optional :class:`~repro.resilience.faults.FaultPlan` injected
        into shard searches (chaos testing): crashes and errors raise
        through the retry path, slowdowns pad service time.
    tracer:
        Optional span tracer.  None (the default) keeps the serving
        path span-free; a disabled tracer costs one branch per query.
    metrics:
        Optional metrics registry for serving-path counters.
    scheduler:
        Optional :class:`~repro.predict.scheduler.DeadlineScheduler`.
        When set, every admitted query is featurized from the resident
        dictionary (term count + summed posting-list lengths, no
        postings traversal) and its service time predicted;
        :meth:`execute_batch` dispatches longest-predicted-first, and
        with ``depth_from_budget`` a Block-Max WAND traversal gets a
        per-query ``max_docs_scored`` depth derived from the remaining
        deadline budget.  ``None`` — the default — keeps the seed's
        serving path bit for bit.
    """

    def __init__(
        self,
        partitioned: PartitionedIndex,
        algorithm: "str | TraversalStrategy" = "daat",
        use_global_stats: bool = True,
        cache: Optional["QueryResultCache"] = None,
        hedging: Optional[HedgingPolicy] = None,
        overload: Optional[OverloadPolicy] = None,
        breakers: Optional[BreakerConfig] = None,
        faults: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        execution: Optional[ExecutionConfig] = None,
        shared_source: Optional[PartitionedIndex] = None,
        tiered: Optional["TieredStorageConfig"] = None,
        scheduler: Optional["DeadlineScheduler"] = None,
    ):
        self._execution = (
            execution if execution is not None else ExecutionConfig()
        )
        self.partitioned = partitioned
        self.cache = cache
        self._tracer = tracer
        self._metrics = metrics
        self._hedging = (
            hedging if hedging is not None and hedging.enabled else None
        )
        self._gate = (
            BlockingAdmissionGate(overload)
            if overload is not None and overload.enabled
            else None
        )
        self._breakers = (
            BreakerBoard(breakers) if breakers is not None else None
        )
        self._faults = (
            FaultInjector(faults)
            if faults is not None and faults.enabled
            else None
        )
        self._scheduler = scheduler
        self._algorithm_name = _normalize_algorithm(algorithm)
        self._latency_tracker = ShardLatencyTracker()
        scorer_factory = (
            global_scorer_factory(partitioned) if use_global_stats else None
        )
        self._searchers = [
            ShardSearcher(
                shard,
                algorithm=algorithm,
                scorer_factory=scorer_factory,
                metrics=metrics,
            )
            for shard in partitioned
        ]
        analyzer = partitioned[0].index.analyzer
        self._parser = QueryParser(analyzer)
        if (
            self._execution.use_processes
            or self._execution.workers is None
        ):
            # Thread-backend default, and the coordinator pool size on
            # the process backend (where ``workers`` counts processes):
            # one thread per partition, doubled under hedging.
            workers = partitioned.num_partitions
            if self._hedging is not None and self._hedging.hedges_enabled:
                workers *= 2
        else:
            workers = self._execution.workers
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="isn-shard"
        )
        self._arena = None
        self._process_pool = None
        if self._execution.use_processes:
            from repro.engine.mp import ProcessShardPool, WorkerOptions
            from repro.index.shared import SharedIndexArena

            source = (
                shared_source if shared_source is not None else partitioned
            )
            self._arena = SharedIndexArena(source)
            self._process_pool = ProcessShardPool(
                self._arena.spec,
                workers=(
                    self._execution.workers
                    if self._execution.workers is not None
                    else partitioned.num_partitions
                ),
                options=WorkerOptions(
                    algorithm=algorithm,
                    use_global_stats=use_global_stats,
                    tiered=tiered,
                    collect_metrics=metrics is not None,
                ),
                metrics=metrics,
                start_method=self._execution.start_method,
                probe_interval_s=self._execution.probe_interval_s,
            )
        self._closed = False

    @property
    def num_partitions(self) -> int:
        """Partition count of the served index."""
        return self.partitioned.num_partitions

    @property
    def execution(self) -> ExecutionConfig:
        """The active execution-backend configuration."""
        return self._execution

    @property
    def process_pool(self):
        """The GIL-free worker pool (None on the thread backend)."""
        return self._process_pool

    @property
    def hedging(self) -> Optional[HedgingPolicy]:
        """The active tail-tolerance policy (None when inert)."""
        return self._hedging

    @property
    def scheduler(self) -> Optional["DeadlineScheduler"]:
        """The active deadline scheduler (None when unconfigured)."""
        return self._scheduler

    @property
    def parser(self) -> QueryParser:
        """The node's query parser (the shards' analyzer)."""
        return self._parser

    @property
    def admission_gate(self) -> Optional[BlockingAdmissionGate]:
        """The active admission gate (None when no overload policy)."""
        return self._gate

    @property
    def breaker_board(self) -> Optional[BreakerBoard]:
        """The per-shard circuit breakers (None when unconfigured)."""
        return self._breakers

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The active chaos injector (None when no fault plan)."""
        return self._faults

    def health(self) -> Dict:
        """Liveness view of the node (JSON-friendly).

        Always reports the backend and partition count; on the process
        backend it folds in the worker pool's probe snapshot (live
        workers, deaths detected, respawns), and with circuit breakers
        configured, each shard breaker's current state.  This is the
        surface :meth:`SearchService.health <repro.engine.service.
        SearchService.health>` and the ``repro health`` CLI read.
        """
        snapshot: Dict = {
            "backend": self._execution.backend,
            "partitions": self.num_partitions,
            "closed": self._closed,
            "healthy": not self._closed,
        }
        if self._process_pool is not None:
            pool = self._process_pool.health_snapshot()
            snapshot["pool"] = pool
            snapshot["healthy"] = (
                snapshot["healthy"]
                and pool["live_workers"] == len(pool["workers"])
            )
        if self._breakers is not None:
            now = time.perf_counter()
            snapshot["breakers"] = {
                str(shard): self._breakers.breaker(shard).state(now).name
                for shard in range(self.num_partitions)
            }
        return snapshot

    @property
    def _tracing(self) -> bool:
        return self._tracer is not None and self._tracer.enabled

    @property
    def _resilient_fanout(self) -> bool:
        """True when the fan-out must run the event-driven gather."""
        return (
            self._hedging is not None
            or self._breakers is not None
            or self._faults is not None
        )

    def execute(
        self,
        text: str,
        k: int = DEFAULT_TOP_K,
        mode: QueryMode = QueryMode.OR,
        budget_s: Optional[float] = None,
    ):
        """Answer ``text`` with parallel partition fan-out.

        Returns an :class:`IsnResponse` — or, when an overload policy
        is attached and refuses the query, a
        :class:`~repro.resilience.admission.ShedResponse`.

        ``budget_s`` is an optional per-call deadline budget (seconds)
        overriding the scheduler's ``deadline_s`` — the frontend passes
        each ISN its *remaining* budget so the whole dispatch shares
        one client deadline.  Ignored without a scheduler.
        """
        self._ensure_open()
        if self._gate is None:
            return self._execute_admitted(text, k, mode, budget_s)
        arrival = time.perf_counter()
        if self._metrics is not None:
            self._metrics.histogram(
                "isn.admission_queue_depth", bin_edges=QUEUE_DEPTH_BUCKETS
            ).observe(float(self._gate.controller.queue_depth))
        reason = self._gate.acquire()
        if reason is not None:
            return self._shed(text, reason, arrival)
        start = time.perf_counter()
        try:
            response = self._execute_admitted(text, k, mode, budget_s)
        finally:
            self._gate.release(time.perf_counter() - start)
        if self._metrics is not None:
            self._metrics.counter("isn.served").add()
        return response

    def _shed(self, text: str, reason: str, arrival: float) -> ShedResponse:
        """Build the typed refusal for a query the gate turned away."""
        now = time.perf_counter()
        if self._metrics is not None:
            self._metrics.counter("isn.shed").add()
            self._metrics.counter(f"isn.shed.{reason}").add()
        if self._tracing:
            self._tracer.record_span(
                "isn.execute", start=arrival, end=now,
                query=text, shed=True, shed_reason=reason,
            )
        return ShedResponse(
            reason=reason, latency_s=now - arrival, query=text
        )

    def _execute_admitted(
        self,
        text: str,
        k: int,
        mode: QueryMode,
        budget_s: Optional[float] = None,
    ) -> IsnResponse:
        total_start = time.perf_counter()

        parse_start = time.perf_counter()
        query = self._parser.parse(text, mode=mode, k=k)
        parse_end = time.perf_counter()

        if self.cache is not None:
            entry = self.cache.lookup_entry(query)
            if entry is not None:
                return self._respond_from_cache(
                    text, entry, total_start, parse_start, parse_end
                )

        max_docs = (
            self._depth_budget(query, total_start, budget_s)
            if self._scheduler is not None
            else None
        )

        fanout_start = time.perf_counter()
        if self._resilient_fanout:
            outcome = self._fanout_hedged(query, fanout_start)
        elif self._process_pool is not None:
            outcome = self._fanout_processes(query)
        else:
            futures = [
                self._pool.submit(
                    self._search_shard, searcher, query, max_docs
                )
                for searcher in self._searchers
            ]
            outcome = _FanoutOutcome(
                answered=[
                    (shard, "primary", *future.result())
                    for shard, future in enumerate(futures)
                ],
                num_shards=len(futures),
            )
        fanout_end = time.perf_counter()

        response = self._assemble(
            text, query, outcome,
            parse_start, parse_end, fanout_start, fanout_end, total_start,
        )
        if self.cache is not None and response.coverage >= 1.0:
            # Partial answers must not poison the cache with degraded
            # pages — only full-coverage responses are stored.
            self.cache.store(
                query, response.hits, matched_volume=response.matched_volume
            )
        return response

    def execute_serial(
        self,
        text: str,
        k: int = DEFAULT_TOP_K,
        mode: QueryMode = QueryMode.OR,
    ) -> IsnResponse:
        """Answer ``text`` searching partitions one after another.

        Serial execution removes thread-pool scheduling noise, which is
        what the service-time characterization and simulator calibration
        need: the sum of shard times *is* the query's CPU demand.  The
        hedging policy never applies here.
        """
        self._ensure_open()
        total_start = time.perf_counter()

        parse_start = time.perf_counter()
        query = self._parser.parse(text, mode=mode, k=k)
        parse_end = time.perf_counter()

        fanout_start = time.perf_counter()
        outcome = _FanoutOutcome(
            answered=[
                (shard, "primary", *self._search_shard(searcher, query))
                for shard, searcher in enumerate(self._searchers)
            ],
            num_shards=len(self._searchers),
        )
        fanout_end = time.perf_counter()

        return self._assemble(
            text, query, outcome,
            parse_start, parse_end, fanout_start, fanout_end, total_start,
        )

    def execute_batch(
        self,
        texts: List[str],
        k: int = DEFAULT_TOP_K,
        mode: QueryMode = QueryMode.OR,
    ) -> List:
        """Answer many queries in one fan-out wave.

        On the process backend, all pending ``(query, partition)`` work
        items are packed into dispatches of at most
        ``execution.batch_size`` so the IPC round-trip is amortized
        over many scoring calls — this is the path that exposes
        cross-query scaling.  On the thread backend every item is an
        independent pool task.  Either way each response is identical
        (ids *and* float scores) to what :meth:`execute` would return
        for that text, and the result cache is consulted and fed
        exactly as on the single-query path.

        Resilience features (hedging, breakers, faults, admission
        control) are per-query machinery, so when any is configured
        this method degrades to sequential :meth:`execute` calls.
        """
        self._ensure_open()
        if self._resilient_fanout or self._gate is not None:
            return [self.execute(text, k=k, mode=mode) for text in texts]

        n = self.num_partitions
        responses: List = [None] * len(texts)
        parsed: List[Optional[ParsedQuery]] = [None] * len(texts)
        windows: List[Tuple[float, float, float]] = []
        pending: List[int] = []
        for position, text in enumerate(texts):
            total_start = time.perf_counter()
            parse_start = time.perf_counter()
            query = self._parser.parse(text, mode=mode, k=k)
            parse_end = time.perf_counter()
            parsed[position] = query
            windows.append((total_start, parse_start, parse_end))
            if self.cache is not None:
                entry = self.cache.lookup_entry(query)
                if entry is not None:
                    responses[position] = self._respond_from_cache(
                        text, entry, total_start, parse_start, parse_end
                    )
                    continue
            pending.append(position)

        fanout_start = time.perf_counter()
        answered: Dict[int, List[tuple]] = {
            position: [] for position in pending
        }
        dispatch_order = pending
        if self._scheduler is not None and len(pending) > 1:
            # Longest-predicted-first dispatch: the predicted-expensive
            # queries start scoring first, so the batch straggler is a
            # query that started early rather than one that queued
            # behind cheap work (the native mirror of the DES router
            # shielding long queries).  Stable sort keeps determinism.
            predictions = {
                position: self._scheduler.predicted_seconds(
                    extract_features(self.partitioned, parsed[position])
                )
                for position in pending
            }
            if self._metrics is not None:
                self._metrics.counter("predict.queries").add(len(pending))
            dispatch_order = sorted(
                pending, key=lambda position: -predictions[position]
            )
        items = [
            (position, shard)
            for position in dispatch_order
            for shard in range(n)
        ]
        if self._process_pool is not None:
            from repro.engine.mp import WorkerCrashError

            batch = self._execution.batch_size
            dispatches = []
            for lo in range(0, len(items), batch):
                chunk = items[lo : lo + batch]
                dispatches.append(
                    (
                        chunk,
                        self._process_pool.submit_batch(
                            [
                                (shard, parsed[position])
                                for position, shard in chunk
                            ],
                            crash_retries=_BATCH_CRASH_RETRIES,
                        ),
                    )
                )
            for chunk, future in dispatches:
                try:
                    replies = future.result()
                except WorkerCrashError:
                    # Even the retries died.  Only the queries with an
                    # item in flight on the dead worker lose that shard
                    # (their coverage drops below 1.0); every other
                    # dispatch of this batch proceeds untouched.
                    continue
                for (position, _), (shard, result, start, end) in zip(
                    chunk, replies
                ):
                    answered[position].append(
                        (shard, "primary", result, start, end)
                    )
        else:
            futures = [
                (
                    position,
                    shard,
                    self._pool.submit(
                        self._search_shard,
                        self._searchers[shard],
                        parsed[position],
                    ),
                )
                for position, shard in items
            ]
            for position, shard, future in futures:
                answered[position].append(
                    (shard, "primary", *future.result())
                )
        fanout_end = time.perf_counter()

        for position in pending:
            shard_answers = sorted(
                answered[position], key=lambda item: item[0]
            )
            outcome = _FanoutOutcome(answered=shard_answers, num_shards=n)
            total_start, parse_start, parse_end = windows[position]
            response = self._assemble(
                texts[position], parsed[position], outcome,
                parse_start, parse_end, fanout_start, fanout_end,
                total_start,
            )
            if self.cache is not None and response.coverage >= 1.0:
                self.cache.store(
                    parsed[position],
                    response.hits,
                    matched_volume=response.matched_volume,
                )
            responses[position] = response
        return responses

    def close(self) -> None:
        """Shut down executors, worker processes, and shared memory.

        Deterministic teardown: the fan-out thread pool drains, the
        process pool (if any) joins its workers, and the shared-memory
        segment is unlinked.  Idempotent; the node rejects queries
        afterwards.
        """
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)
            if self._process_pool is not None:
                self._process_pool.close()
            if self._arena is not None:
                self._arena.close()

    def __enter__(self) -> "IndexServingNode":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("IndexServingNode is closed")

    @staticmethod
    def _search_shard(
        searcher: ShardSearcher,
        query: ParsedQuery,
        max_docs_scored: Optional[int] = None,
    ):
        """Search one shard; returns (result, start, end) timestamps."""
        start = time.perf_counter()
        result = searcher.search(query, max_docs_scored=max_docs_scored)
        return result, start, time.perf_counter()

    def _depth_budget(
        self,
        query: ParsedQuery,
        total_start: float,
        budget_s: Optional[float],
    ) -> Optional[int]:
        """Featurize at admission; map the deadline to a BMW depth.

        Returns the per-shard ``max_docs_scored`` cap, or ``None`` when
        no cap applies.  Depth capping is a plain-fan-out, thread-
        backend mechanism: the resilient gather has its own deadline
        machinery (drop-the-shard, not truncate-the-shard), and the
        process backend's dispatch protocol carries no per-query depth
        — those paths still get admission-time prediction metrics and
        batch ordering, just no truncation.
        """
        scheduler = self._scheduler
        features = extract_features(self.partitioned, query)
        if self._metrics is not None:
            self._metrics.counter("predict.queries").add()
            if scheduler.is_long(features):
                self._metrics.counter("predict.long_queries").add()
        deadline = budget_s if budget_s is not None else scheduler.deadline_s
        if (
            deadline is None
            or not scheduler.depth_from_budget
            or self._algorithm_name != "block_max_wand"
            or self._resilient_fanout
            or self._process_pool is not None
        ):
            return None
        remaining = deadline - (time.perf_counter() - total_start)
        max_docs = scheduler.max_docs_for(
            features,
            remaining,
            num_shards=self.num_partitions,
            floor=query.k,
        )
        if max_docs is not None and self._metrics is not None:
            self._metrics.counter("predict.depth_capped").add()
        return max_docs

    def _search_shard_attempt(
        self,
        shard: int,
        searcher: ShardSearcher,
        query: ParsedQuery,
        cancel: threading.Event,
    ):
        """One cancellable hedged attempt against one shard.

        With a fault plan attached, injected crashes/errors raise here
        (flowing through the fan-out's retry machinery) and slowdowns
        pad the measured service time.
        """
        if self._faults is not None:
            self._faults.before_search(shard)
        start = time.perf_counter()
        result = searcher.search(query, cancel=cancel)
        end = time.perf_counter()
        if self._faults is not None:
            self._faults.slowdown_sleep(shard, end - start)
            end = time.perf_counter()
        return result, start, end

    # ------------------------------------------------------------------
    # process-backend fan-out

    def _fanout_processes(self, query: ParsedQuery) -> _FanoutOutcome:
        """Plain fan-out over the worker-process pool.

        Shards are dealt round-robin into one batch dispatch per
        worker, so a single query still spreads across all processes
        while each worker receives exactly one IPC message.
        """
        n = self.num_partitions
        lanes = min(self._process_pool.num_workers, n)
        futures = [
            self._process_pool.submit_batch(
                [(shard, query) for shard in range(lane, n, lanes)]
            )
            for lane in range(lanes)
        ]
        answered = [
            (shard, "primary", result, start, end)
            for future in futures
            for shard, result, start, end in future.result()
        ]
        answered.sort(key=lambda item: item[0])
        return _FanoutOutcome(answered=answered, num_shards=n)

    def _search_shard_attempt_mp(
        self, shard: int, query: ParsedQuery, cancel: threading.Event
    ):
        """One hedged attempt dispatched to the worker-process pool.

        Runs on a coordinator thread: faults inject parent-side (so
        chaos plans keep their semantics on either backend), the
        cancellation token is honoured up to the dispatch (a worker
        already scoring cannot be interrupted — the gather discards the
        late answer instead), and a worker crash surfaces as a typed
        :class:`~repro.engine.mp.WorkerCrashError` that flows through
        the retry/breaker machinery like any shard failure.
        """
        if self._faults is not None:
            self._faults.before_search(shard)
        if cancel.is_set():
            raise SearchCancelled(
                f"attempt for shard {shard} cancelled before dispatch"
            )
        result, start, end = self._process_pool.submit_one(
            shard, query
        ).result()
        if self._faults is not None:
            self._faults.slowdown_sleep(shard, end - start)
            end = time.perf_counter()
        return result, start, end

    # ------------------------------------------------------------------
    # tail-tolerant fan-out

    def _fanout_hedged(
        self, query: ParsedQuery, fanout_start: float
    ) -> _FanoutOutcome:
        """Event-driven gather with deadlines, hedges, and retries.

        The loop waits on in-flight attempts with a timeout equal to
        the next timer (hedge fire, deadline, retry backoff), processes
        whichever happens first, and exits once every shard is decided
        — answered, deadline-missed, failed beyond the retry budget, or
        fenced off by an open circuit breaker.

        With only breakers/faults configured (no hedging policy) the
        inert :data:`~repro.engine.hedging.DISABLED_POLICY` drives the
        loop: no hedges, no deadlines, but the retry/failure machinery
        the injectors and breakers need still runs.
        """
        policy = self._hedging or DISABLED_POLICY
        n = len(self._searchers)
        delay = policy.resolve_hedge_delay(self._latency_tracker)
        deadline = policy.deadline_s

        answered: Dict[int, tuple] = {}
        missed: List[bool] = [False] * n
        hedge_counts = [0] * n
        retry_counts = [0] * n
        next_hedge_at: List[Optional[float]] = [
            fanout_start + delay if delay is not None else None
        ] * n
        deadline_at: List[Optional[float]] = [
            fanout_start + deadline if deadline is not None else None
        ] * n
        resubmit_at: Dict[int, float] = {}
        pending: Dict[Future, Tuple[int, str]] = {}
        cancel_tokens: Dict[Future, threading.Event] = {}
        shard_futures: Dict[int, List[Future]] = {i: [] for i in range(n)}
        outcome = _FanoutOutcome(answered=[], num_shards=n)

        def decided(shard: int) -> bool:
            return shard in answered or missed[shard]

        def submit(shard: int, kind: str) -> None:
            token = threading.Event()
            if self._process_pool is not None:
                future = self._pool.submit(
                    self._search_shard_attempt_mp, shard, query, token
                )
            else:
                future = self._pool.submit(
                    self._search_shard_attempt,
                    shard,
                    self._searchers[shard],
                    query,
                    token,
                )
            pending[future] = (shard, kind)
            cancel_tokens[future] = token
            shard_futures[shard].append(future)

        def cancel_shard(shard: int, keep: Optional[Future] = None) -> None:
            for future in shard_futures[shard]:
                if future is keep:
                    continue
                cancel_tokens[future].set()
                future.cancel()

        def breaker_allow(shard: int, now: float) -> bool:
            """Consult the shard's breaker (counting half-open probes)."""
            if self._breakers is None:
                return True
            breaker = self._breakers.breaker(shard)
            half_open = breaker.state(now) is BreakerState.HALF_OPEN
            if not breaker.allow(now):
                return False
            if half_open and self._metrics is not None:
                self._metrics.counter("isn.breaker_probes").add()
            return True

        def breaker_failure(shard: int, now: float) -> None:
            if self._breakers is not None:
                self._breakers.breaker(shard).record_failure(now)

        def breaker_success(shard: int, now: float) -> None:
            if self._breakers is not None:
                self._breakers.breaker(shard).record_success(now)

        for shard in range(n):
            if breaker_allow(shard, fanout_start):
                submit(shard, "primary")
            else:
                # Open breaker: skip the shard outright, degrading
                # coverage exactly like a deadline miss.
                missed[shard] = True
                outcome.breaker_skips += 1

        while not all(decided(shard) for shard in range(n)):
            now = time.perf_counter()
            timers: List[float] = []
            for shard in range(n):
                if decided(shard):
                    continue
                if shard in resubmit_at:
                    timers.append(resubmit_at[shard])
                if (
                    next_hedge_at[shard] is not None
                    and hedge_counts[shard] < policy.max_hedges
                ):
                    timers.append(next_hedge_at[shard])
                if deadline_at[shard] is not None:
                    timers.append(deadline_at[shard])
            live = [
                future
                for future, (shard, _) in pending.items()
                if not decided(shard)
            ]
            timeout = max(0.0, min(timers) - now) if timers else None
            if live:
                done, _ = futures_wait(
                    live, timeout=timeout, return_when=FIRST_COMPLETED
                )
            elif timers:
                time.sleep(timeout)
                done = set()
            else:
                # Defensive: no attempt in flight and no timer left —
                # give up on whatever is undecided rather than spin.
                for shard in range(n):
                    if not decided(shard):
                        missed[shard] = True
                        outcome.failures += 1
                break

            for future in done:
                shard, kind = pending.pop(future)
                if decided(shard):
                    continue  # a loser finishing after the verdict
                try:
                    result, start, end = future.result()
                except SearchCancelled:
                    continue
                except Exception:
                    breaker_failure(shard, time.perf_counter())
                    if retry_counts[shard] < policy.max_retries:
                        backoff = policy.retry_delay(retry_counts[shard])
                        retry_counts[shard] += 1
                        outcome.retries += 1
                        resubmit_at[shard] = time.perf_counter() + backoff
                    else:
                        missed[shard] = True
                        outcome.failures += 1
                        cancel_shard(shard)
                    continue
                breaker_success(shard, end)
                answered[shard] = (shard, kind, result, start, end)
                self._latency_tracker.observe(end - start)
                if kind == "hedge":
                    outcome.hedges_won += 1
                if policy.cancel_losers:
                    cancel_shard(shard, keep=future)

            now = time.perf_counter()
            for shard in range(n):
                if decided(shard):
                    continue
                if shard in resubmit_at and now >= resubmit_at[shard]:
                    del resubmit_at[shard]
                    if breaker_allow(shard, now):
                        submit(shard, "retry")
                    else:
                        # The failures that queued this retry tripped
                        # the breaker: give up on the shard instead of
                        # hammering it.
                        missed[shard] = True
                        outcome.breaker_skips += 1
                        cancel_shard(shard)
                        continue
                if deadline_at[shard] is not None and now >= deadline_at[shard]:
                    missed[shard] = True
                    outcome.deadline_misses += 1
                    breaker_failure(shard, now)
                    resubmit_at.pop(shard, None)
                    cancel_shard(shard)
                    continue
                if (
                    next_hedge_at[shard] is not None
                    and hedge_counts[shard] < policy.max_hedges
                    and now >= next_hedge_at[shard]
                ):
                    if not breaker_allow(shard, now):
                        # A tripped breaker retires this shard's hedge
                        # timer — backup requests against a fenced-off
                        # shard would only feed the failure count.
                        next_hedge_at[shard] = None
                        continue
                    hedge_counts[shard] += 1
                    outcome.hedges_issued += 1
                    submit(shard, "hedge")
                    next_hedge_at[shard] = (
                        now + delay
                        if hedge_counts[shard] < policy.max_hedges
                        else None
                    )

        outcome.answered = [answered[s] for s in sorted(answered)]
        outcome.missed_shards = tuple(
            shard for shard in range(n) if shard not in answered
        )
        return outcome

    def _respond_from_cache(
        self,
        text: str,
        entry: "CachedPage",
        total_start: float,
        parse_start: float,
        parse_end: float,
    ) -> IsnResponse:
        if self._metrics is not None:
            self._metrics.counter("isn.queries").add()
        total_end = time.perf_counter()
        trace = None
        if self._tracing:
            trace = self._tracer.record_span(
                "isn.execute", start=total_start, end=total_end,
                query=text, cached=True,
            )
            self._tracer.record_span(
                "parse", start=parse_start, end=parse_end, parent=trace
            )
            timings = ComponentTimings.from_span(trace)
        else:
            timings = ComponentTimings(
                parse_seconds=parse_end - parse_start,
                total_seconds=total_end - total_start,
            )
        return IsnResponse(
            hits=entry.hits,
            timings=timings,
            matched_volume=entry.matched_volume,
            cached=True,
            trace=trace,
        )

    def _assemble(
        self,
        text: str,
        query: ParsedQuery,
        outcome: _FanoutOutcome,
        parse_start: float,
        parse_end: float,
        fanout_start: float,
        fanout_end: float,
        total_start: float,
    ) -> IsnResponse:
        merge_start = time.perf_counter()
        hits = merge_shard_results(
            [result.hits for _, _, result, _, _ in outcome.answered],
            k=query.k,
        )
        merge_end = time.perf_counter()
        total_end = time.perf_counter()

        matched_volume = sum(
            result.matched_volume for _, _, result, _, _ in outcome.answered
        )
        if self._metrics is not None:
            self._metrics.counter("isn.queries").add()
            self._metrics.histogram("isn.service_seconds").observe(
                total_end - total_start
            )
            if self._resilient_fanout:
                self._metrics.counter("isn.hedges_issued").add(
                    outcome.hedges_issued
                )
                self._metrics.counter("isn.hedges_won").add(
                    outcome.hedges_won
                )
                self._metrics.counter("isn.deadline_misses").add(
                    outcome.deadline_misses
                )
                self._metrics.counter("isn.retries").add(outcome.retries)
                self._metrics.histogram(
                    "isn.coverage", bin_edges=COVERAGE_BUCKETS
                ).observe(outcome.coverage)
            if self._breakers is not None:
                self._metrics.counter("isn.breaker_skips").add(
                    outcome.breaker_skips
                )
                self._breakers.export_gauges(
                    self._metrics, "isn.breaker", time.perf_counter()
                )

        trace = None
        if self._tracing:
            trace = self._record_trace(
                text, query, outcome,
                parse_start, parse_end, fanout_start, fanout_end,
                merge_start, merge_end, total_start, total_end,
            )
            timings = ComponentTimings.from_span(trace)
        else:
            timings = ComponentTimings(
                parse_seconds=parse_end - parse_start,
                shard_seconds=[
                    end - start for _, _, _, start, end in outcome.answered
                ],
                fanout_seconds=fanout_end - fanout_start,
                merge_seconds=merge_end - merge_start,
                total_seconds=total_end - total_start,
            )
        return IsnResponse(
            hits=tuple(hits),
            timings=timings,
            matched_volume=matched_volume,
            coverage=outcome.coverage,
            hedges_issued=outcome.hedges_issued,
            hedges_won=outcome.hedges_won,
            deadline_misses=outcome.deadline_misses,
            breaker_skips=outcome.breaker_skips,
            trace=trace,
        )

    def _record_trace(
        self,
        text: str,
        query: ParsedQuery,
        outcome: _FanoutOutcome,
        parse_start: float,
        parse_end: float,
        fanout_start: float,
        fanout_end: float,
        merge_start: float,
        merge_end: float,
        total_start: float,
        total_end: float,
    ) -> Span:
        tracer = self._tracer
        root_attributes = {
            "query": text,
            "k": query.k,
            "mode": query.mode.value,
            "num_partitions": self.num_partitions,
        }
        if self._resilient_fanout:
            root_attributes.update(
                coverage=outcome.coverage,
                hedges_issued=outcome.hedges_issued,
                hedges_won=outcome.hedges_won,
                deadline_misses=outcome.deadline_misses,
            )
        if self._breakers is not None:
            root_attributes["breaker_skips"] = outcome.breaker_skips
        root = tracer.record_span(
            "isn.execute", start=total_start, end=total_end,
            **root_attributes,
        )
        tracer.record_span(
            "parse", start=parse_start, end=parse_end, parent=root,
            num_terms=len(query.terms),
        )
        fanout = tracer.record_span(
            "fanout", start=fanout_start, end=fanout_end, parent=root
        )
        for shard_index, kind, result, start, end in outcome.answered:
            attributes = {
                "shard": shard_index,
                "postings_scanned": result.matched_volume,
                "num_hits": len(result.hits),
            }
            if result.docs_scored is not None:
                attributes["docs_scored"] = result.docs_scored
            if result.blocks_skipped is not None:
                attributes["blocks_skipped"] = result.blocks_skipped
            if result.blocks_fetched is not None:
                attributes["blocks_fetched"] = result.blocks_fetched
            if result.bytes_read is not None:
                attributes["bytes_read"] = result.bytes_read
            if self._resilient_fanout:
                attributes["attempt"] = kind
                attributes["hedged"] = kind == "hedge"
            tracer.record_span(
                "shard", start=start, end=end, parent=fanout, **attributes
            )
        for shard_index in outcome.missed_shards:
            tracer.record_span(
                "shard", start=fanout_start, end=fanout_end, parent=fanout,
                shard=shard_index, deadline_missed=True,
            )
        tracer.record_span(
            "merge", start=merge_start, end=merge_end, parent=root,
            num_shards=len(outcome.answered),
        )
        return root
