"""Simulated multi-server fan-out: the cluster tier of the benchmark.

The full benchmark architecture shards the collection across ``N``
index serving nodes; a broker broadcasts each query to all of them and
merges their pages.  This module models that tier in the DES: each ISN
is an independent fork-join server (own cores, own partitions), a query
completes when the *slowest* ISN responds plus broker merge — the
"tail at scale" structure where the cluster's latency is an order
statistic of per-node latencies.

One event-driven broker simulates every shape of this tier, from a
plain N-server fan-out to ``N`` shards × ``R`` replicas with hedging,
deadlines, admission control, circuit breakers and injected faults.
Its parts are pluggable: a :class:`ReplicaSelection` policy orders each
shard's candidate replicas (the first the breaker approves wins), and a
:class:`~repro.engine.hedging.HedgingPolicy` adds deadlines, hedged
backups to a *different* replica, and bounded retries.  A deadline miss
degrades the merge to the shards that answered (``coverage`` < 1).  The
same policy object drives the native
:class:`~repro.engine.isn.IndexServingNode`, keeping the simulator
calibrated against the engine's mitigation behaviour.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cluster.results import QueryRecord
from repro.cluster.server import PartitionModelConfig, SimulatedServer
from repro.engine.hedging import DISABLED_POLICY, HedgingPolicy, ShardLatencyTracker
from repro.metrics.summary import LatencySummary, summarize
from repro.obs.registry import MetricsRegistry
from repro.resilience.admission import (
    SHED_CODEL,
    AdmissionController,
    OverloadPolicy,
)
from repro.resilience.breaker import BreakerBoard, BreakerConfig, BreakerState
from repro.resilience.faults import FaultPlan
from repro.servers.spec import ServerSpec
from repro.sim.engine import EventHandle, Simulator
from repro.sim.hiccups import HiccupConfig, HiccupSchedule
from repro.sim.network import NetworkModel, NoDelay
from repro.sim.outages import FixedOutages, OutageSpec
from repro.sim.random import RandomStreams
from repro.workload.scenario import WorkloadScenario

#: Bucket edges for the broker's admission-queue-depth histogram.
QUEUE_DEPTH_BUCKETS = tuple(float(i) for i in range(0, 65, 4))


class ReplicaSelection(Enum):
    """Broker policy for ordering a shard's candidate replicas."""

    RANDOM = "random"
    ROUND_ROBIN = "round_robin"
    LEAST_OUTSTANDING = "least_outstanding"


@dataclass(frozen=True)
class FanoutConfig:
    """A homogeneous cluster of ISNs behind one broker.

    Attributes
    ----------
    num_servers:
        ISNs the collection is sharded across; each receives ``1/N`` of
        every query's work (document-sharded indexes scale down
        per-node postings volume linearly).
    spec:
        Server model of every ISN.
    partitioning:
        Intra-server partitioning cost model of every ISN.
    network:
        One-way delay model applied per hop (client→broker→ISN and
        back); the broker hop is where fan-out skew accumulates.
    broker_merge_per_server:
        Broker-side merge cost per responding ISN, in seconds.
    server_imbalance_concentration:
        Dirichlet concentration of each query's work split across
        servers — document sharding never splits a query's postings
        volume perfectly evenly, and this per-(query, server) jitter is
        what the broker's wait-for-the-slowest amplifies at scale.
    hedging:
        Optional tail-tolerance policy interpreted by the broker
        against simulated time — same object the native ISN consumes.
        None (or an inert policy) keeps the seed's plain fan-out.
    replicas_per_shard:
        Identical replicas per shard group.  Hedged backups go to a
        *different* replica than the primary (a whole-server pause
        freezes all its cores, so re-asking the same server cannot
        win).
    selection:
        How the broker orders a shard's candidate replicas for a
        primary or backup request; the first one the breaker approves
        wins.  ``LEAST_OUTSTANDING`` sorts by in-flight requests, ties
        to the lower index; ``ROUND_ROBIN`` keeps one cursor per shard;
        ``RANDOM`` draws from the ``"selection"`` stream (drawn only
        under this policy).
    hiccups:
        Optional stop-the-world pause process applied independently to
        every replica — the stochastic straggler source.
    outages:
        Scripted per-replica stall windows — the deterministic
        straggler source (takes precedence over ``hiccups`` on the
        replicas it names).
    overload:
        Optional admission-control policy interpreted by the broker:
        queries beyond the concurrency limit wait in a bounded queue or
        are shed with a refusal record (``coverage == 0``).
    breakers:
        Optional per-``(shard, replica)`` circuit-breaker config fed by
        injected errors, crash rejections, and deadline misses; a
        fenced-off replica is skipped by dispatch.
    faults:
        Optional chaos plan: crash windows reject new requests and
        stall in-flight ones, slowdowns scale dispatched demand, error
        bursts answer with failures drawn from the ``"faults"`` stream.
    """

    num_servers: int
    spec: ServerSpec
    partitioning: PartitionModelConfig = field(
        default_factory=PartitionModelConfig
    )
    network: NetworkModel = field(default_factory=NoDelay)
    broker_merge_per_server: float = 2e-5
    server_imbalance_concentration: float = 60.0
    hedging: Optional[HedgingPolicy] = None
    replicas_per_shard: int = 1
    selection: ReplicaSelection = ReplicaSelection.LEAST_OUTSTANDING
    hiccups: Optional[HiccupConfig] = None
    outages: Tuple[OutageSpec, ...] = ()
    overload: Optional[OverloadPolicy] = None
    breakers: Optional[BreakerConfig] = None
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.num_servers <= 0:
            raise ValueError("num_servers must be positive")
        if self.broker_merge_per_server < 0:
            raise ValueError("broker_merge_per_server must be non-negative")
        if self.server_imbalance_concentration <= 0:
            raise ValueError("server_imbalance_concentration must be positive")
        if self.replicas_per_shard <= 0:
            raise ValueError("replicas_per_shard must be positive")
        for outage in self.outages:
            if not isinstance(outage, OutageSpec):
                raise TypeError("outages must be OutageSpec instances")
            if outage.shard >= self.num_servers:
                raise ValueError(
                    f"outage names shard {outage.shard}; "
                    f"cluster has {self.num_servers}"
                )
            if outage.replica >= self.replicas_per_shard:
                raise ValueError(
                    f"outage names replica {outage.replica}; "
                    f"cluster has {self.replicas_per_shard} per shard"
                )
        if self.faults is not None:
            faults = (
                self.faults.crashes
                + self.faults.slowdowns
                + self.faults.error_bursts
            )
            for fault in faults:
                if fault.shard >= self.num_servers:
                    raise ValueError(
                        f"fault names shard {fault.shard}; "
                        f"cluster has {self.num_servers}"
                    )
                if (
                    fault.replica is not None
                    and fault.replica >= self.replicas_per_shard
                ):
                    raise ValueError(
                        f"fault names replica {fault.replica}; "
                        f"cluster has {self.replicas_per_shard} per shard"
                    )


@dataclass
class FanoutQueryRecord:
    """Timeline of one query through the fan-out cluster.

    ``coverage`` and the hedge, miss and failure counters keep their
    defaults unless a tail or resilience feature acts on the query.
    """

    query_id: int
    client_send: float
    total_demand: float
    isn_completions: List[float] = field(default_factory=list)
    client_receive: float = float("nan")
    coverage: float = 1.0
    hedges_issued: int = 0
    hedges_won: int = 0
    deadline_misses: int = 0
    breaker_skips: int = 0
    failures: int = 0
    shed: bool = False
    shed_reason: str = ""

    @property
    def complete(self) -> bool:
        return not np.isnan(self.client_receive)

    @property
    def latency(self) -> float:
        """End-to-end response time."""
        return self.client_receive - self.client_send

    @property
    def latency_s(self) -> float:
        """Alias of :attr:`latency` (common query-outcome accessor)."""
        return self.latency

    def doc_ids(self) -> List[int]:
        """Empty — the simulator models time, not result content
        (protocol accessor shared with the native engine)."""
        return []

    @property
    def slowest_isn_completion(self) -> float:
        """When the straggler ISN finished."""
        return max(self.isn_completions)

    @property
    def fanout_skew(self) -> float:
        """Slowest minus fastest ISN completion."""
        return max(self.isn_completions) - min(self.isn_completions)


@dataclass
class FanoutResult:
    """All per-query records of one fan-out simulation.

    ``shard_failures`` counts failed shard requests per shard index
    (injected errors, crash rejections, and deadline misses) across the
    whole run — all zeros on healthy clusters.
    """

    records: List[FanoutQueryRecord]
    horizon: float
    num_servers: int
    shard_failures: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.shard_failures:
            self.shard_failures = tuple(0 for _ in range(self.num_servers))

    def __len__(self) -> int:
        return len(self.records)

    def served_records(
        self, warmup_fraction: float = 0.0
    ) -> List[FanoutQueryRecord]:
        """Post-warm-up records that received a real answer."""
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        skip = int(len(self.records) * warmup_fraction)
        return [r for r in self.records[skip:] if not r.shed]

    def latencies(self, warmup_fraction: float = 0.0) -> np.ndarray:
        """Served-query response times (shed refusals excluded)."""
        return np.array(
            [r.latency for r in self.served_records(warmup_fraction)]
        )

    def summary(self, warmup_fraction: float = 0.0) -> LatencySummary:
        """Latency order statistics over served queries.

        Under total overload every query may be shed; the summary is
        then the NaN :data:`~repro.metrics.summary.EMPTY_SUMMARY`
        rather than an error, so sweeps can plot a gap.
        """
        return summarize(self.latencies(warmup_fraction), empty="nan")

    def mean_fanout_skew(self) -> float:
        """Average straggler skew across queries that reached any ISN."""
        skews = [r.fanout_skew for r in self.records if r.isn_completions]
        if not skews:
            return float("nan")
        return float(np.mean(skews))

    @property
    def shed_count(self) -> int:
        """Queries the broker's admission layer refused."""
        return sum(1 for r in self.records if r.shed)

    def goodput_qps(self, warmup_fraction: float = 0.0) -> float:
        """Coverage-weighted served queries per second.

        A full answer counts 1, a 75%-coverage answer 0.75, a shed
        query 0 — goodput is the rate of *answer mass* delivered, the
        metric overload protection is supposed to preserve.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        skip = int(len(self.records) * warmup_fraction)
        selected = self.records[skip:]
        if not selected:
            raise ValueError("no records after warm-up filtering")
        total_coverage = float(sum(r.coverage for r in selected))
        span = max(r.client_receive for r in selected) - min(
            r.client_send for r in selected
        )
        if span <= 0:
            return float("inf")
        return total_coverage / span

    def mean_coverage(self, warmup_fraction: float = 0.0) -> float:
        """Mean fraction of shards merged per query."""
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        skip = int(len(self.records) * warmup_fraction)
        selected = self.records[skip:]
        if not selected:
            raise ValueError("no records after warm-up filtering")
        return float(np.mean([r.coverage for r in selected]))

    @property
    def hedges_issued(self) -> int:
        """Total backup requests the broker issued."""
        return sum(r.hedges_issued for r in self.records)

    @property
    def hedge_fraction(self) -> float:
        """Backup requests per request of the baseline fan-out (one per
        shard of every served query)."""
        baseline = self.num_servers * len(self.served_records())
        if baseline == 0:
            return 0.0
        return self.hedges_issued / baseline

    @property
    def hedges_won(self) -> int:
        """Shard answers won by a backup request."""
        return sum(r.hedges_won for r in self.records)

    @property
    def deadline_misses(self) -> int:
        """Shard requests dropped for missing their deadline."""
        return sum(r.deadline_misses for r in self.records)

    @property
    def breaker_skips(self) -> int:
        """Shard requests never sent because the breaker was open."""
        return sum(r.breaker_skips for r in self.records)

    @property
    def failures(self) -> int:
        """Failed shard attempts (injected errors, crash rejections)."""
        return sum(r.failures for r in self.records)


class _ShardState:
    """Broker-side state of one (query, shard) request."""

    __slots__ = (
        "answered",
        "missed",
        "hedges_issued",
        "retries",
        "tried",
        "answered_replicas",
        "failed_replicas",
        "hedge_handle",
        "deadline_handle",
    )

    def __init__(self) -> None:
        self.answered = False
        self.missed = False
        self.hedges_issued = 0
        self.retries = 0
        self.tried: Set[int] = set()
        self.answered_replicas: Set[int] = set()
        self.failed_replicas: Set[int] = set()
        self.hedge_handle: Optional[EventHandle] = None
        self.deadline_handle: Optional[EventHandle] = None

    @property
    def decided(self) -> bool:
        return self.answered or self.missed


class _QueryState:
    """Broker-side state of one in-flight query."""

    __slots__ = (
        "record",
        "dispatch_time",
        "pending",
        "done",
        "shards",
        "demands",
    )

    def __init__(self, record: FanoutQueryRecord, num_shards: int) -> None:
        self.record = record
        self.dispatch_time = float("nan")
        self.pending = num_shards
        self.done = False
        self.shards = [_ShardState() for _ in range(num_shards)]
        self.demands: List[float] = [0.0] * num_shards


def _replica_stalls(
    config: FanoutConfig,
    streams: RandomStreams,
    shard: int,
    replica: int,
):
    """The stall source for one replica.

    Scripted outage windows and fault-plan crash windows combine (a
    crashed replica freezes its in-flight work until the restart, on
    top of rejecting new requests); when neither names the replica,
    the stochastic hiccup process (if any) applies.
    """
    windows = [
        (outage.start, outage.duration)
        for outage in config.outages
        if outage.shard == shard and outage.replica == replica
    ]
    if config.faults is not None:
        windows += [
            (start, end - start)
            for start, end in config.faults.crash_windows(shard, replica)
        ]
    if windows:
        return FixedOutages(sorted(windows))
    if config.hiccups is not None:
        return HiccupSchedule(
            config.hiccups, streams.stream(f"hiccups-{shard}-{replica}")
        )
    return None


def run_fanout_open_loop(
    config: FanoutConfig,
    scenario: WorkloadScenario,
    seed: int = 0,
    metrics: Optional[MetricsRegistry] = None,
) -> FanoutResult:
    """Simulate the cluster under an open-loop arrival process.

    ``scenario`` demands are *whole-query* demands; each shard executes
    its Dirichlet share of the demand (its index slice) through its own
    fork-join partition model.

    The broker sends each shard request to the first replica in the
    :class:`ReplicaSelection` order that the breaker approves,
    schedules cancellable hedge/deadline events against the simulator
    clock, re-issues stragglers to a *different* replica, and finishes
    a query when every shard is decided — answered, deadline-missed,
    failed beyond the retry budget, or fenced off by an open circuit
    breaker.  Late and loser answers are ignored (the DES cannot
    retract work already committed to a replica's cores, which mirrors
    a backend without mid-request cancellation).

    With an overload policy, arrivals pass the broker's admission
    controller first: beyond the concurrency limit they wait in a
    bounded queue (CoDel-dropped if the wait stands above target) or
    are refused outright with a shed record.  A fault plan injects
    crash rejections, error responses, and demand slowdowns; a breaker
    config fences off replicas that keep failing.
    """
    policy = (
        config.hedging
        if config.hedging is not None and config.hedging.enabled
        else DISABLED_POLICY
    )
    streams = RandomStreams(seed)
    arrival_times, demands = scenario.realize(
        streams.stream("arrivals"), streams.stream("demands")
    )
    network_rng = streams.stream("network")
    sim = Simulator()
    tracker = ShardLatencyTracker()
    records: List[FanoutQueryRecord] = []
    #: server-record id -> (query, shard, replica, attempt kind), consumed
    #: when that replica finishes the request.
    attempts: Dict[int, Tuple[_QueryState, int, int, str]] = {}

    faults = (
        config.faults
        if config.faults is not None and config.faults.enabled
        else None
    )
    faults_rng = streams.stream("faults") if faults is not None else None
    breakers = (
        BreakerBoard(config.breakers) if config.breakers is not None else None
    )
    controller = (
        AdmissionController(config.overload)
        if config.overload is not None and config.overload.enabled
        else None
    )
    admission_queue: Deque[Tuple[_QueryState, float]] = deque()
    shard_failures = [0] * config.num_servers
    probes = [0]  # half-open probe requests (mutable for closures)
    num_replicas = config.replicas_per_shard
    selection = config.selection
    selection_rng = (
        streams.stream("selection")
        if selection is ReplicaSelection.RANDOM
        else None
    )
    cursors = [0] * config.num_servers  # ROUND_ROBIN: next replica per shard

    def on_server_done(rec: QueryRecord) -> None:
        state, shard, replica, kind = attempts.pop(id(rec))
        arrival = rec.merge_end + config.network.delay(network_rng)
        sim.schedule(arrival, on_answer, state, shard, replica, kind)

    servers: List[List[SimulatedServer]] = []
    for shard in range(config.num_servers):
        group = []
        for replica in range(num_replicas):
            stream_name = (
                f"imbalance-{shard}"
                if replica == 0
                else f"imbalance-{shard}r{replica}"
            )
            group.append(
                SimulatedServer(
                    sim,
                    config.spec,
                    config.partitioning,
                    imbalance_rng=streams.stream(stream_name),
                    on_complete=on_server_done,
                    hiccups=_replica_stalls(config, streams, shard, replica),
                    metrics=metrics,
                )
            )
        servers.append(group)

    shard_rng = streams.stream("server-imbalance")

    def order_replicas(shard: int, candidates: List[int]) -> List[int]:
        """``candidates`` in the order the selection policy prefers."""
        if selection is ReplicaSelection.RANDOM:
            first = int(selection_rng.integers(len(candidates)))
            return candidates[first:] + candidates[:first]
        if len(candidates) == 1:
            return candidates
        if selection is ReplicaSelection.ROUND_ROBIN:
            cursor = cursors[shard]
            return sorted(candidates, key=lambda r: (r - cursor) % num_replicas)
        group = servers[shard]
        return sorted(candidates, key=lambda r: (group[r].outstanding, r))

    def breaker_allow(shard: int, replica: int) -> bool:
        """Consult the replica's breaker (counting half-open probes)."""
        if breakers is None:
            return True
        breaker = breakers.breaker((shard, replica))
        half_open = breaker.state(sim.now) is BreakerState.HALF_OPEN
        if not breaker.allow(sim.now):
            return False
        if half_open:
            probes[0] += 1
        return True

    def breaker_failure(shard: int, replica: int) -> None:
        if breakers is not None:
            breakers.breaker((shard, replica)).record_failure(sim.now)

    def breaker_success(shard: int, replica: int) -> None:
        if breakers is not None:
            breakers.breaker((shard, replica)).record_success(sim.now)

    def dispatch_attempt(
        state: _QueryState, shard: int, demand: float, kind: str
    ) -> str:
        """Send one attempt to an untried, breaker-approved replica.

        Returns ``"sent"`` when an attempt went out (possibly destined
        to fail by injection), ``"exhausted"`` when every replica has
        been tried, ``"blocked"`` when breakers fence off all the rest.
        """
        shard_state = state.shards[shard]
        candidates = [
            replica
            for replica in range(num_replicas)
            if replica not in shard_state.tried
        ]
        if not candidates:
            if kind != "retry":
                return "exhausted"
            # A retry may re-ask a previously tried replica (the native
            # path re-asks the same shard); hedges never do — a backup
            # against the same straggler cannot win.
            candidates = list(range(num_replicas))
        for replica in order_replicas(shard, candidates):
            if breaker_allow(shard, replica):
                break
        else:
            return "blocked"
        shard_state.tried.add(replica)
        cursors[shard] = (replica + 1) % num_replicas

        if faults is not None:
            if faults.crashed(shard, replica, sim.now):
                # Fail fast: the connection is refused after a round
                # trip; no work reaches the replica's cores.
                reject_at = (
                    sim.now
                    + config.network.delay(network_rng)
                    + config.network.delay(network_rng)
                )
                sim.schedule(
                    reject_at, on_attempt_error, state, shard, replica
                )
                return "sent"
            error_rate = faults.error_rate(shard, replica, sim.now)
            if error_rate > 0.0 and faults_rng.random() < error_rate:
                error_at = (
                    sim.now
                    + config.network.delay(network_rng)
                    + config.network.delay(network_rng)
                )
                sim.schedule(
                    error_at, on_attempt_error, state, shard, replica
                )
                return "sent"
            demand *= faults.slowdown_factor(shard, replica, sim.now)

        server_record = QueryRecord(
            query_id=state.record.query_id,
            client_send=state.record.client_send,
            demand=demand,
        )
        attempts[id(server_record)] = (state, shard, replica, kind)
        arrival = sim.now + config.network.delay(network_rng)
        sim.schedule(
            arrival, servers[shard][replica].handle_arrival, server_record
        )
        return "sent"

    def on_answer(
        state: _QueryState, shard: int, replica: int, kind: str
    ) -> None:
        shard_state = state.shards[shard]
        # Health feedback counts even for losers and late answers —
        # the replica demonstrably served the request.
        shard_state.answered_replicas.add(replica)
        breaker_success(shard, replica)
        if state.done or shard_state.decided:
            return  # a loser, or an answer past its deadline
        shard_state.answered = True
        if kind == "hedge":
            state.record.hedges_won += 1
        if policy.hedge_quantile is not None:
            tracker.observe(sim.now - state.dispatch_time)
        if shard_state.hedge_handle is not None:
            shard_state.hedge_handle.cancel()
        if shard_state.deadline_handle is not None:
            shard_state.deadline_handle.cancel()
        state.record.isn_completions.append(sim.now)
        state.pending -= 1
        maybe_finish(state)

    def on_attempt_error(
        state: _QueryState, shard: int, replica: int
    ) -> None:
        """An attempt came back as a failure (injected error/crash)."""
        shard_state = state.shards[shard]
        shard_state.failed_replicas.add(replica)
        breaker_failure(shard, replica)
        shard_failures[shard] += 1
        state.record.failures += 1
        if state.done or shard_state.decided:
            return
        if shard_state.retries < policy.max_retries:
            backoff = policy.retry_delay(shard_state.retries)
            shard_state.retries += 1
            sim.schedule_after(backoff, on_retry, state, shard)
        else:
            fail_shard(state, shard, breaker_skip=False)

    def on_retry(state: _QueryState, shard: int) -> None:
        shard_state = state.shards[shard]
        if state.done or shard_state.decided:
            return
        status = dispatch_attempt(
            state, shard, state.demands[shard], "retry"
        )
        if status != "sent":
            fail_shard(state, shard, breaker_skip=status == "blocked")

    def fail_shard(
        state: _QueryState, shard: int, breaker_skip: bool
    ) -> None:
        """Give up on one shard: degrade coverage like a deadline miss."""
        shard_state = state.shards[shard]
        shard_state.missed = True
        if breaker_skip:
            state.record.breaker_skips += 1
        if shard_state.hedge_handle is not None:
            shard_state.hedge_handle.cancel()
            shard_state.hedge_handle = None
        if shard_state.deadline_handle is not None:
            shard_state.deadline_handle.cancel()
            shard_state.deadline_handle = None
        state.pending -= 1
        maybe_finish(state)

    def on_hedge_timer(
        state: _QueryState, shard: int, demand: float, delay: float
    ) -> None:
        shard_state = state.shards[shard]
        shard_state.hedge_handle = None
        if state.done or shard_state.decided:
            return
        if shard_state.hedges_issued >= policy.max_hedges:
            return
        if dispatch_attempt(state, shard, demand, "hedge") != "sent":
            return  # every replica already tried or fenced off
        shard_state.hedges_issued += 1
        state.record.hedges_issued += 1
        if shard_state.hedges_issued < policy.max_hedges:
            shard_state.hedge_handle = sim.schedule_after(
                delay, on_hedge_timer, state, shard, demand, delay
            )

    def on_deadline(state: _QueryState, shard: int) -> None:
        shard_state = state.shards[shard]
        if state.done or shard_state.decided:
            return
        shard_state.missed = True
        state.record.deadline_misses += 1
        shard_failures[shard] += 1
        # The replicas that were asked and neither answered nor already
        # failed are the ones that let the deadline lapse.
        for replica in (
            shard_state.tried
            - shard_state.answered_replicas
            - shard_state.failed_replicas
        ):
            breaker_failure(shard, replica)
        if shard_state.hedge_handle is not None:
            shard_state.hedge_handle.cancel()
        state.pending -= 1
        maybe_finish(state)

    def maybe_finish(state: _QueryState) -> None:
        if state.pending > 0:
            return
        state.done = True
        answered = sum(1 for s in state.shards if s.answered)
        state.record.coverage = (
            answered / config.num_servers if config.num_servers else 1.0
        )
        merge_done = sim.now + config.broker_merge_per_server * answered
        state.record.client_receive = merge_done + config.network.delay(
            network_rng
        )
        records.append(state.record)
        if controller is not None:
            controller.complete(sim.now, sim.now - state.dispatch_time)
            drain_queue()

    def shed_query(state: _QueryState, reason: str) -> None:
        """Refuse a query: typed shed record, no shard work at all."""
        state.done = True
        record = state.record
        record.shed = True
        record.shed_reason = reason
        record.coverage = 0.0
        record.client_receive = sim.now + config.network.delay(network_rng)
        records.append(record)

    def drain_queue() -> None:
        while admission_queue and controller.can_admit():
            state, enqueued_at = admission_queue.popleft()
            if controller.dequeue(sim.now, enqueued_at):
                begin_service(state)
            else:
                shed_query(state, SHED_CODEL)

    def on_query_arrival(state: _QueryState) -> None:
        if controller is None:
            begin_service(state)
            return
        if metrics is not None:
            metrics.histogram(
                "fanout.admission_queue_depth",
                bin_edges=QUEUE_DEPTH_BUCKETS,
            ).observe(float(controller.queue_depth))
        decision = controller.decide(sim.now)
        if decision == "admit":
            controller.admit(sim.now)
            begin_service(state)
        elif decision == "queue":
            controller.enqueue(sim.now)
            admission_queue.append((state, sim.now))
        else:
            controller.shed(sim.now)
            shed_query(state, decision)

    def begin_service(state: _QueryState) -> None:
        state.dispatch_time = sim.now
        if config.num_servers == 1:
            shares = np.ones(1)
        else:
            shares = shard_rng.dirichlet(
                np.full(
                    config.num_servers, config.server_imbalance_concentration
                )
            )
        hedge_delay = policy.resolve_hedge_delay(tracker)
        for shard, share in enumerate(shares):
            demand = state.record.total_demand * float(share)
            state.demands[shard] = demand
            status = dispatch_attempt(state, shard, demand, "primary")
            if status != "sent":
                # Every replica fenced off: the shard degrades coverage
                # exactly like a deadline miss, without waiting for one.
                fail_shard(state, shard, breaker_skip=status == "blocked")
                continue
            shard_state = state.shards[shard]
            if (
                hedge_delay is not None
                and config.replicas_per_shard > 1
                and policy.max_hedges > 0
            ):
                shard_state.hedge_handle = sim.schedule_after(
                    hedge_delay, on_hedge_timer, state, shard, demand,
                    hedge_delay,
                )
            if policy.deadline_s is not None:
                shard_state.deadline_handle = sim.schedule_after(
                    policy.deadline_s, on_deadline, state, shard
                )

    states: List[_QueryState] = []
    for query_id, (send_time, demand) in enumerate(
        zip(arrival_times, demands)
    ):
        record = FanoutQueryRecord(
            query_id=query_id,
            client_send=float(send_time),
            total_demand=float(demand),
        )
        state = _QueryState(record, config.num_servers)
        states.append(state)
        sim.schedule(float(send_time), on_query_arrival, state)

    sim.run()
    unfinished = [state for state in states if not state.done]
    if unfinished:
        raise RuntimeError(f"{len(unfinished)} queries never completed")
    if metrics is not None:
        served = [r for r in records if not r.shed]
        metrics.counter("fanout.queries").add(len(records))
        metrics.counter("fanout.served").add(len(served))
        metrics.counter("fanout.shed").add(len(records) - len(served))
        metrics.counter("fanout.hedges_issued").add(
            sum(r.hedges_issued for r in records)
        )
        metrics.counter("fanout.hedges_won").add(
            sum(r.hedges_won for r in records)
        )
        metrics.counter("fanout.deadline_misses").add(
            sum(r.deadline_misses for r in records)
        )
        if breakers is not None:
            metrics.counter("fanout.breaker_skips").add(
                sum(r.breaker_skips for r in records)
            )
            metrics.counter("fanout.breaker_probes").add(probes[0])
            breakers.export_gauges(metrics, "fanout.breaker", sim.now)
        if faults is not None:
            metrics.counter("fanout.failures").add(
                sum(r.failures for r in records)
            )
    records.sort(key=lambda record: record.client_send)
    return FanoutResult(
        records=records,
        horizon=sim.now,
        num_servers=config.num_servers,
        shard_failures=tuple(shard_failures),
    )
