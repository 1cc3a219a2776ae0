"""Replicated shards, replica selection, and hedged requests.

Production search replicates every index shard and lets the broker
choose a replica per request; when tails matter, it also *hedges* —
re-issues a slow request to a second replica and takes the first
answer.  This module is the replica-centric spelling of that tier; the
simulation itself is the fan-out broker of :mod:`repro.cluster.fanout`:

- ``ReplicaSelection`` — RANDOM, ROUND_ROBIN, or LEAST_OUTSTANDING
  (join-the-shortest-queue by in-flight requests);
- ``HedgeConfig`` — duplicate a shard request that has not answered
  within a deadline (no cancellation: the loser finishes and wastes
  its work, as in systems without request cancellation support).

The studies built on this reproduce the classic "tail at scale"
remedies: better selection trims the tail cheaply; hedging buys large
tail cuts for a small duplicate-work budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.fanout import (
    FanoutConfig,
    FanoutResult,
    ReplicaSelection,
    run_fanout_open_loop,
)
from repro.cluster.server import PartitionModelConfig
from repro.engine.hedging import HedgingPolicy
from repro.servers.spec import ServerSpec
from repro.sim.hiccups import HiccupConfig
from repro.sim.network import NetworkModel, NoDelay
from repro.workload.scenario import WorkloadScenario

__all__ = [
    "HedgeConfig",
    "ReplicaSelection",
    "ReplicatedClusterConfig",
    "run_replicated_open_loop",
]


@dataclass(frozen=True)
class HedgeConfig:
    """Hedged-request policy: one backup per shard request.

    ``delay_s`` is the seconds after dispatch before the duplicate is
    sent.  Production systems set this near the per-shard p95 so only
    ~5% of requests hedge.
    """

    delay_s: float

    def __post_init__(self) -> None:
        if self.delay_s <= 0:
            raise ValueError("hedge delay must be positive")


@dataclass(frozen=True)
class ReplicatedClusterConfig:
    """A cluster of ``num_shards`` shard groups × ``replicas`` servers."""

    num_shards: int
    replicas: int
    spec: ServerSpec
    partitioning: PartitionModelConfig = field(
        default_factory=PartitionModelConfig
    )
    selection: ReplicaSelection = ReplicaSelection.RANDOM
    hedge: Optional[HedgeConfig] = None
    network: NetworkModel = field(default_factory=NoDelay)
    hiccups: Optional[HiccupConfig] = None
    server_imbalance_concentration: float = 60.0
    #: Scripted brownouts.  A replica with outages gets exactly those
    #: stall windows (the stochastic ``hiccups`` process, if any, is
    #: not additionally applied to it).
    outages: tuple = ()

    def __post_init__(self) -> None:
        if self.hedge is not None and self.replicas < 2:
            raise ValueError("hedging requires at least two replicas")
        self.to_fanout_config()  # the broker's config validates the rest

    def to_fanout_config(self) -> FanoutConfig:
        """The broker config this maps onto (no broker merge cost)."""
        hedging = None
        if self.hedge is not None:
            hedging = HedgingPolicy(
                hedge_delay_s=self.hedge.delay_s, max_hedges=1
            )
        return FanoutConfig(
            num_servers=self.num_shards,
            spec=self.spec,
            partitioning=self.partitioning,
            network=self.network,
            broker_merge_per_server=0.0,
            server_imbalance_concentration=self.server_imbalance_concentration,
            hedging=hedging,
            replicas_per_shard=self.replicas,
            selection=self.selection,
            hiccups=self.hiccups,
            outages=self.outages,
        )

    @property
    def num_servers(self) -> int:
        """Total servers in the cluster."""
        return self.num_shards * self.replicas


def run_replicated_open_loop(
    config: ReplicatedClusterConfig,
    scenario: WorkloadScenario,
    seed: int = 0,
) -> FanoutResult:
    """Simulate the replicated cluster under open-loop arrivals."""
    return run_fanout_open_loop(config.to_fanout_config(), scenario, seed=seed)
