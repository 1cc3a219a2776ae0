"""The ``des-fleet`` workload: one seeded fleet scenario through every
discrete-event simulator driver.

No native layer runs here, so a change to the search engine predicts no
move on this workload; a change to the simulator's brokers does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from repro.api import ClusterModel, HedgingPolicy
from repro.cluster.hetero import HeterogeneousConfig, run_heterogeneous_open_loop
from repro.cluster.replication import (
    HedgeConfig,
    ReplicatedClusterConfig,
    run_replicated_open_loop,
)
from repro.cluster.server import PartitionModelConfig
from repro.cluster.simulation import ClusterConfig, run_open_loop
from repro.servers.catalog import BIG_SERVER, SMALL_SERVER
from repro.sim.autoscale import AutoscaleConfig, StaticPolicy, run_autoscaled_cluster
from repro.sim.hiccups import HiccupConfig
from repro.sim.random import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario
from repro.workload.servicetime import LognormalDemand

from gates import des_accounting, des_digest
from harness import DES_DRIVERS

#: Mean ~14 ms per query with a heavy tail, the measured native shape.
DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)
#: Simulated arrival rate: half of one 8-core server's capacity.
SIM_RATE_QPS = 300.0
PAUSES = HiccupConfig(mean_interval=1.0, pause_duration=0.03)
PARTITIONS = PartitionModelConfig(num_partitions=4)


@dataclass(frozen=True)
class Fleet:
    """The six simulated systems the scenario runs through."""

    single: ClusterConfig
    fanout: ClusterModel
    tail: ClusterModel
    replicated: ReplicatedClusterConfig
    hetero: HeterogeneousConfig
    autoscale: AutoscaleConfig


def build_fleet() -> Fleet:
    """Construct every driver's model (the workload's set-up)."""
    return Fleet(
        single=ClusterConfig(spec=BIG_SERVER, partitioning=PARTITIONS),
        fanout=ClusterModel(num_servers=4, num_partitions=4),
        tail=ClusterModel(
            num_servers=4,
            num_partitions=4,
            replicas_per_shard=2,
            hedging=HedgingPolicy(hedge_delay_s=0.01, deadline_s=0.2),
            hiccups=PAUSES,
        ),
        replicated=ReplicatedClusterConfig(
            num_shards=4,
            replicas=2,
            spec=BIG_SERVER,
            partitioning=PARTITIONS,
            hiccups=PAUSES,
            hedge=HedgeConfig(delay_s=0.01),
        ),
        hetero=HeterogeneousConfig(
            big_spec=BIG_SERVER,
            num_big=1,
            little_spec=SMALL_SERVER,
            num_little=4,
            partitioning=PARTITIONS,
            demand_threshold=0.02,
        ),
        autoscale=AutoscaleConfig(
            spec=BIG_SERVER,
            partitioning=PARTITIONS,
            shards=2,
            initial_replicas=2,
            max_replicas=4,
        ),
    )


def fleet_scenario(num_queries: int) -> WorkloadScenario:
    """``num_queries`` Poisson arrivals of :data:`DEMAND` work."""
    return WorkloadScenario(
        arrivals=PoissonArrivals(rate=SIM_RATE_QPS),
        demands=DEMAND,
        num_queries=num_queries,
    )


def realize(scenario: WorkloadScenario, seed: int):
    """Arrival times and demands, drawn from the streams every driver uses."""
    streams = RandomStreams(seed)
    return scenario.realize(streams.stream("arrivals"), streams.stream("demands"))


def run_driver(fleet: Fleet, driver: str, num_queries: int, seed: int) -> List:
    """Simulate ``num_queries`` seeded arrivals through one driver."""
    scenario = fleet_scenario(num_queries)
    if driver == "single":
        return run_open_loop(fleet.single, scenario, seed=seed).records
    if driver in ("fanout", "tail"):
        model = getattr(fleet, driver)
        return model.run_scenario(scenario, seed=seed).records
    if driver == "replicated":
        return run_replicated_open_loop(fleet.replicated, scenario, seed=seed).records
    if driver == "hetero":
        return run_heterogeneous_open_loop(fleet.hetero, scenario, seed=seed).records
    times, demands = realize(scenario, seed)
    return run_autoscaled_cluster(
        fleet.autoscale, StaticPolicy(2), times, demands, seed=seed
    ).records


def run_pass(fleet, num_queries, seed, tracer, outcome) -> Dict[str, str]:
    """Every driver once on one scenario; returns per-driver digests.

    Each driver run is one operation: it fails when its query
    accounting does not hold.
    """
    digests = {}
    for driver in DES_DRIVERS:
        with tracer.span(f"des.{driver}", queries=num_queries):
            records = run_driver(fleet, driver, num_queries, seed)
        problems = des_accounting(records, num_queries)
        outcome.record(not problems, f"des.{driver} seed {seed}: {problems}")
        digests[driver] = des_digest(records)
    return digests


def set_up(num_queries: int, seed: int) -> Fleet:
    """What a run prepares before it simulates: every driver's model and
    the fleet scenario's arrivals and demands."""
    fleet = build_fleet()
    realize(fleet_scenario(num_queries), seed)
    return fleet


def setup_interval(num_queries: int, seed: int, builds: int) -> float:
    """Wall seconds of one :func:`set_up`, over ``builds`` back to back.

    One set-up takes well under a millisecond, too short to time alone.
    """
    start = time.perf_counter()
    for _ in range(builds):
        set_up(num_queries, seed)
    return (time.perf_counter() - start) / builds


def census(fleet, num_queries, seed, tracer, outcome) -> Dict[str, float]:
    """Per-driver wall microseconds per simulated query, from spans."""
    with tracer.span("des.pass", seed=seed) as root:
        run_pass(fleet, num_queries, seed, tracer, outcome)
    return {
        f"{child.name}.us_per_query": 1e6 * child.duration / num_queries
        for child in root.children
    }
