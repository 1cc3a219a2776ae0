"""Golden per-query digests for every DES driver that must not move.

The fan-out broker is the only simulation of N shards x R replicas.
These digests were captured from the drivers before the broker became
the only path (the analytic fan-out path, the tail-tolerant broker,
and the single-server, heterogeneous and autoscaled drivers), and each
configuration here must keep reproducing its digest exactly: same
query ids, send times, latencies, coverage and shed flags, bit for
bit.

Regenerate (only when an output is *meant* to move, and say why in
CHANGES.md)::

    PYTHONPATH=src python tests/test_des_broker_golden.py
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Sequence

import pytest

from repro.api import (
    BIG_SERVER,
    BreakerConfig,
    ClusterConfig,
    ClusterModel,
    ErrorBurst,
    FaultPlan,
    HedgingPolicy,
    HiccupConfig,
    LognormalDemand,
    OverloadPolicy,
    ShardCrash,
    ShardSlowdown,
)
from repro.cluster.fanout import FanoutConfig, run_fanout_open_loop
from repro.cluster.hetero import HeterogeneousConfig, run_heterogeneous_open_loop
from repro.cluster.server import PartitionModelConfig
from repro.cluster.simulation import ClusterConfig as SingleServerConfig
from repro.cluster.simulation import run_open_loop
from repro.servers.catalog import SMALL_SERVER
from repro.sim.autoscale import AutoscaleConfig, StaticPolicy, run_autoscaled_cluster
from repro.sim.network import NoDelay
from repro.sim.random import RandomStreams
from repro.workload.arrivals import PoissonArrivals
from repro.workload.scenario import WorkloadScenario

DEMAND = LognormalDemand(mu=-4.6, sigma=0.8)
PARTITIONS = PartitionModelConfig(num_partitions=4)
NUM_QUERIES = 600


def record_digest(records: Sequence) -> str:
    """Hash of every record's id, send time, latency, coverage and shed flag."""
    digest = hashlib.sha256()
    for record in sorted(records, key=lambda r: r.query_id):
        shed = bool(
            getattr(record, "shed", False) or getattr(record, "shed_reason", None)
        )
        digest.update(
            f"{record.query_id}:{record.client_send!r}:{record.latency!r}:"
            f"{getattr(record, 'coverage', 1.0)!r}:{shed};".encode()
        )
    return digest.hexdigest()[:16]


def _scenario(rate_qps: float, num_queries: int = NUM_QUERIES) -> WorkloadScenario:
    return WorkloadScenario(
        arrivals=PoissonArrivals(rate=rate_qps),
        demands=DEMAND,
        num_queries=num_queries,
    )


def _plain(num_servers: int) -> Callable[[int], List]:
    config = FanoutConfig(
        num_servers=num_servers,
        spec=BIG_SERVER,
        partitioning=PARTITIONS,
        network=NoDelay(),
    )
    return lambda seed: run_fanout_open_loop(
        config, _scenario(150.0 * num_servers), seed=seed
    ).records


def _model(rate_qps: float, **fields) -> Callable[[int], List]:
    model = ClusterModel(ClusterConfig(**fields))
    return lambda seed: model.run_scenario(_scenario(rate_qps), seed=seed).records


#: Healthy capacity of the fig24 four-shard cluster, in queries/s.
_CAPACITY_QPS = 4 * BIG_SERVER.compute_capacity / DEMAND.mean_demand()


def _fig24_faults(rate_qps: float) -> FaultPlan:
    """fig24's flapping, slowed sick shard over the arrival window."""
    horizon_s = NUM_QUERIES / rate_qps
    flapping = FaultPlan.flapping_shard(
        1, period_s=0.5, duty=0.2, horizon_s=horizon_s, seed=0
    )
    slow = ShardSlowdown(shard=1, start_s=0.0, duration_s=horizon_s, factor=3.0)
    return FaultPlan(crashes=flapping.crashes, slowdowns=(slow,), seed=0)


def _fig24(load_fraction: float, protected: bool) -> Callable[[int], List]:
    rate = load_fraction * _CAPACITY_QPS
    protection = {}
    if protected:
        protection = dict(
            hedging=HedgingPolicy(deadline_s=0.05),
            breakers=BreakerConfig(failure_threshold=3, recovery_time_s=0.25),
            overload=OverloadPolicy(
                max_concurrency=64,
                queue_limit=64,
                codel_target_delay_s=0.01,
                codel_interval_s=0.05,
            ),
        )
    return _model(
        rate,
        num_servers=4,
        spec=BIG_SERVER,
        faults=_fig24_faults(rate),
        **protection,
    )


def _single(seed: int) -> List:
    config = SingleServerConfig(spec=BIG_SERVER, partitioning=PARTITIONS)
    return run_open_loop(config, _scenario(300.0), seed=seed).records


def _hetero(seed: int) -> List:
    config = HeterogeneousConfig(
        big_spec=BIG_SERVER,
        num_big=1,
        little_spec=SMALL_SERVER,
        num_little=4,
        partitioning=PARTITIONS,
        demand_threshold=0.02,
    )
    return run_heterogeneous_open_loop(config, _scenario(300.0), seed=seed).records


def _autoscale(seed: int) -> List:
    config = AutoscaleConfig(
        spec=BIG_SERVER,
        partitioning=PARTITIONS,
        shards=2,
        initial_replicas=2,
        max_replicas=4,
    )
    streams = RandomStreams(seed)
    times, demands = _scenario(300.0).realize(
        streams.stream("arrivals"), streams.stream("demands")
    )
    return run_autoscaled_cluster(
        config, StaticPolicy(2), times, demands, seed=seed
    ).records


PAUSES = HiccupConfig(mean_interval=1.0, pause_duration=0.025)

RUNS: Dict[str, Callable[[int], List]] = {
    "plain-n1": _plain(1),
    "plain-n4": _plain(4),
    # fig23: hedging + replicas + hiccups, with and without a deadline.
    "fig23-hedge10": _model(
        150.0,
        num_servers=4,
        num_partitions=4,
        replicas_per_shard=2,
        hiccups=PAUSES,
        hedging=HedgingPolicy(hedge_delay_s=0.010),
    ),
    "fig23-hedge5-deadline20": _model(
        150.0,
        num_servers=4,
        num_partitions=4,
        replicas_per_shard=2,
        hiccups=PAUSES,
        hedging=HedgingPolicy(hedge_delay_s=0.005, deadline_s=0.020),
    ),
    # fig24: overload alone, faults alone, and the full protection stack.
    "fig24-overload": _model(
        2.0 * _CAPACITY_QPS,
        num_servers=4,
        spec=BIG_SERVER,
        overload=OverloadPolicy(
            max_concurrency=64,
            queue_limit=64,
            codel_target_delay_s=0.01,
            codel_interval_s=0.05,
        ),
    ),
    "fig24-faults-2x": _fig24(2.0, protected=False),
    "fig24-protected-1x": _fig24(1.0, protected=True),
    "fig24-protected-3x": _fig24(3.0, protected=True),
    # Breakers fencing a crashed, erroring replica off, with retries.
    "breakers-faults": _model(
        300.0,
        num_servers=4,
        num_partitions=4,
        replicas_per_shard=2,
        hedging=HedgingPolicy(hedge_delay_s=0.02, deadline_s=0.1, max_retries=2),
        breakers=BreakerConfig(failure_threshold=2, recovery_time_s=0.1),
        faults=FaultPlan(
            crashes=(ShardCrash(shard=0, replica=0, start_s=0.3, duration_s=0.5),),
            error_bursts=(
                ErrorBurst(shard=2, start_s=0.2, duration_s=1.0, error_rate=0.4),
            ),
            seed=5,
        ),
    ),
    # The ``fanout`` and ``tail`` fleets of the wall-time benchmark.
    "fleet-fanout": _model(300.0, num_servers=4, num_partitions=4),
    "fleet-tail": _model(
        300.0,
        num_servers=4,
        num_partitions=4,
        replicas_per_shard=2,
        hedging=HedgingPolicy(hedge_delay_s=0.01, deadline_s=0.2),
        hiccups=HiccupConfig(mean_interval=1.0, pause_duration=0.03),
    ),
    # The drivers beside the broker, on the same seeded scenario.
    "single-server": _single,
    "hetero": _hetero,
    "autoscale": _autoscale,
}

SEEDS = (0, 3)

#: ``(run, seed) -> digest``, captured before the broker became the
#: only fan-out simulation.
GOLDEN: Dict[str, str] = {
    "autoscale@0": "a31bf08308035f8f",
    "autoscale@3": "2126964ed2068c3d",
    "breakers-faults@0": "29fa3d0dee6ef20a",
    "breakers-faults@3": "565c363cb2aaa08e",
    "fig23-hedge10@0": "ab8ccefc562df2cc",
    "fig23-hedge10@3": "57e3f4173b7c8efd",
    "fig23-hedge5-deadline20@0": "30911665b945d3a8",
    "fig23-hedge5-deadline20@3": "446ac44835bf34c0",
    "fig24-faults-2x@0": "bb1d23e692cb97df",
    "fig24-faults-2x@3": "d6e7d3037d96d84d",
    "fig24-overload@0": "e0df208199eada81",
    "fig24-overload@3": "888cee6f10b1f2c3",
    "fig24-protected-1x@0": "18aece68338fe97a",
    "fig24-protected-1x@3": "8752d56f49a3bfa4",
    "fig24-protected-3x@0": "f00c8418bd394ca3",
    "fig24-protected-3x@3": "d66500dc83d2c61f",
    "fleet-fanout@0": "8e7debcd42338ae4",
    "fleet-fanout@3": "d1d4e13bcd284e1b",
    "fleet-tail@0": "ef10b70d7550f276",
    "fleet-tail@3": "b8c19561bb81648f",
    "hetero@0": "7121ef170376cbb5",
    "hetero@3": "cddd7cd5c3dc9d4b",
    "plain-n1@0": "f2beb7a4398547f1",
    "plain-n1@3": "fef89c2657453a7b",
    "plain-n4@0": "b389e2ee12da172e",
    "plain-n4@3": "86f740ac0667a777",
    "single-server@0": "674921c92204a81e",
    "single-server@3": "d3e9af97505ae46c",
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_digest_matches_golden(name, seed):
    assert record_digest(RUNS[name](seed)) == GOLDEN[f"{name}@{seed}"]


def test_every_run_has_a_golden_digest():
    assert set(GOLDEN) == {f"{name}@{seed}" for name in RUNS for seed in SEEDS}


if __name__ == "__main__":
    for name in sorted(RUNS):
        for seed in SEEDS:
            print(f'    "{name}@{seed}": "{record_digest(RUNS[name](seed))}",')
