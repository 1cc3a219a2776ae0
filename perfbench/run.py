"""Wall-time benchmark of the search engine and the simulator.

    python3 perfbench/run.py --workload page-threads --seed 1 --seconds 15 --trace 0

Run from the repository root.  Workloads:

``page-threads``
    Open loop of ``SearchService.search_page`` (threads backend, one
    partition), then one client back to back for capacity.
``fanout-processes``
    Open loop of ``SearchService.search`` (four partitions on the
    process backend, two workers), then ``search_batch`` back to back.
``des-fleet``
    Closed loop of simulation requests, each one seeded scenario through
    all six simulator drivers.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same loop with every second request traced, then a per-query layer
census, and reports the per-layer metrics.  Every answer is checked;
the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("page-threads", "fanout-processes", "des-fleet")

#: Offered request rates (1/s), fixed so runs on one machine compare.
#: page-threads offers about an eighth of one client's capacity on a
#: 2-core x86 machine.  Its p90 is mostly queueing behind an earlier
#: page, which each seed's send order decides: at 6/s the same seed gave
#: the same p90 twice while seeds differed by 20% with equal service
#: times, and at 8/s and 12/s the p90 spread over ten runs passed 0.25.
RATES = {"page-threads": 4.0, "fanout-processes": 30.0}
#: Share of ``--seconds`` spent in the open loop; the rest is the
#: capacity phase.  page-threads has none: its single client is never
#: shared, so pages per busy second of the open loop is its capacity,
#: sampled over the whole run.
OPEN_SHARE = {"page-threads": 1.0, "fanout-processes": 0.75}
#: Texts per ``search_batch`` call in the fanout capacity phase; a
#: capacity pass is two calls.
BATCH_TEXTS = 32
#: Untimed requests before the open loop, so lazy set-up is done.
WARMUP = 5
#: Instance builds an untraced native run times: one before its loop,
#: the rest after it; the median is reported.  A build takes 9–15 s
#: and its time swings with the machine's speed, so one build alone
#: spread 0.24–0.48 over five runs.
NATIVE_SETUPS = 3
#: des-fleet times its set-up this many times, once before each equal
#: share of its closed loop, so the median samples the whole run.
SETUP_INTERVALS = 11
#: Set-ups timed back to back in one interval (0.1–0.2 s, long enough
#: to span the machine's swings between fast and slow moments).
SETUP_BUILDS = 1000


@dataclasses.dataclass(frozen=True)
class Settings:
    """Sizes of one run; ``quick`` shrinks everything for self-tests."""

    corpus: object
    query_log: object
    seconds: float
    census_queries: int = 40
    #: Simulated queries per driver in a des-fleet request; each block of
    #: that many requests takes every size once, in a seeded order, so
    #: request times, and their percentiles, spread evenly over a range.
    #: The count is odd, so the alternating traced and untraced requests
    #: of a traced run each get every size equally often.
    request_sizes: tuple = tuple(range(1, 16))
    fleet_queries: int = 500
    rate_scale: float = 1.0

    def rate(self, workload: str) -> float:
        return RATES[workload] * self.rate_scale

    def requests(self, workload: str) -> int:
        return round(self.rate(workload) * self.seconds * OPEN_SHARE[workload])

    def capacity_seconds(self, workload: str) -> float:
        return self.seconds * (1.0 - OPEN_SHARE[workload])


def reference_instance():
    """``BENCH_CORPUS`` / ``BENCH_QUERY_LOG`` from benchmarks/conftest.py."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BENCH_CORPUS, module.BENCH_QUERY_LOG


def make_settings(seconds: float, quick: bool) -> Settings:
    corpus, query_log = reference_instance()
    if not quick:
        return Settings(corpus, query_log, seconds)
    # Tiny instance; rates high enough that an open loop of 220+
    # requests (110+ in each half of a traced run) fits in a few seconds
    # (it saturates; only the code paths matter here).
    return Settings(
        dataclasses.replace(corpus, num_documents=300),
        query_log,
        seconds=seconds,
        census_queries=3,
        request_sizes=(1, 2, 3),
        fleet_queries=60,
        rate_scale=220.0 / (min(RATES.values()) * seconds * min(OPEN_SHARE.values())),
    )


def clients(workload: str) -> int:
    """Client threads of a native open loop.  Page rendering holds the
    GIL, so there a second client would only interleave two requests and
    slow both; a search on the process backend waits on its workers, so
    a second client overlaps that wait."""
    return min(2, os.cpu_count() or 1) if workload == "fanout-processes" else 1


def record_requests(requests, outcome, check) -> None:
    """Count each open-loop request: it fails on an exception or when
    ``check(request)`` names a problem."""
    for request in requests:
        if request.error is not None:
            outcome.record(False, f"request {request.index}: {request.error!r}")
        else:
            problem = check(request)
            outcome.record(not problem, f"request {request.index}: {problem}")


def latency_metrics(requests, traced, metrics, notes) -> None:
    """Latency percentiles of an untraced loop, or, of one whose every
    second request was traced, the generator and queue tails and the
    tracing overhead: traced minus untraced p50 on one schedule."""
    from harness import is_traced, percentile

    plain = [r for r in requests if not (traced and is_traced(r.index))]
    p50 = percentile([1e3 * r.latency for r in plain], 50)
    notes["p50_ms"] = p50.describe("ms")
    if not traced:
        p90 = percentile([1e3 * r.latency for r in plain], 90)
        notes["p90_ms"] = p90.describe("ms")
        metrics["p50_ms"] = p50.value
        metrics["p90_ms"] = p90.value
        return
    spanned = [r for r in requests if is_traced(r.index)]
    traced_p50 = percentile([1e3 * r.latency for r in spanned], 50)
    late = percentile([1e3 * r.late for r in requests], 90)
    wait = percentile([1e3 * r.queue_wait for r in requests], 90)
    metrics["trace.overhead_ms"] = traced_p50.value - p50.value
    metrics["gen.late_ms"] = late.value
    metrics["queue.wait_ms"] = wait.value
    notes["traced p50_ms"] = traced_p50.describe("ms")
    notes["gen.late_ms"] = late.describe("ms")
    notes["queue.wait_ms"] = wait.describe("ms")


def run_native(workload, args, settings, outcome, notes):
    import numpy as np

    import des
    import native
    from gates import response_problem
    from harness import peak_rss_mb, poisson_offsets, run_open_loop, time_passes, zipf_sample
    from repro.engine.service import SearchService
    from repro.obs.tracing import Tracer

    instance = (
        native.Instance(1, "threads", None)
        if workload == "page-threads"
        else native.Instance(4, "processes", 2)
    )
    metrics = {}
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        metrics.update(
            native.timed_setup(instance, settings.corpus, settings.query_log)
        )
    config = instance.config(settings.corpus, settings.query_log)
    start = time.perf_counter()
    service = SearchService(config)
    setups = [time.perf_counter() - start]
    try:
        rng = np.random.default_rng(args.seed)
        count = settings.requests(workload)
        texts = zipf_sample(service.query_log, count, rng)
        offsets = poisson_offsets(settings.rate(workload), count, rng)
        reference = native.reference_hits(service, texts)
        call = service.search_page if workload == "page-threads" else service.search
        for text in texts[:WARMUP]:
            call(text, k=native.K)

        def check(request):
            return response_problem(request.result, reference[texts[request.index]])

        def serve(i):
            return call(texts[i], k=native.K)

        requests = run_open_loop(
            serve, offsets, clients(workload), tracer=tracer, span_name=call.__name__
        )
        record_requests(requests, outcome, check)
        latency_metrics(requests, tracer is not None, metrics, notes)

        if tracer is None and workload == "page-threads":
            busy = sum(r.finished - r.started for r in requests)
            metrics["throughput_qps"] = count / busy
            notes["throughput_qps"] = f"{count} pages over {busy:.3f} busy seconds"
        elif tracer is None:
            passes = [texts[i % count] for i in range(2 * BATCH_TEXTS)]

            def one_pass():
                responses = []
                for lo in range(0, len(passes), BATCH_TEXTS):
                    batch = passes[lo : lo + BATCH_TEXTS]
                    responses += service.search_batch(batch, k=native.K)
                for text, response in zip(passes, responses):
                    problem = response_problem(response, reference[text])
                    outcome.record(not problem, f"capacity {text!r}: {problem}")

            durations = time_passes(one_pass, settings.capacity_seconds(workload))
            metrics["throughput_qps"] = len(passes) / statistics.median(durations)
            notes["throughput_qps"] = f"{len(passes)} queries per pass, median of {len(durations)} passes"
        else:
            metrics.update(
                native.census(
                    service, texts[: settings.census_queries], reference, tracer, outcome
                )
            )
            metrics["unattributed_ms"] = native.unattributed_ms(
                metrics, "page" if workload == "page-threads" else "search"
            )
            metrics.update(
                des.census(
                    des.build_fleet(), settings.fleet_queries, args.seed, tracer, outcome
                )
            )
    finally:
        service.close()
    if tracer is None:
        metrics["peak_rss_mb"] = peak_rss_mb()
        for _ in range(NATIVE_SETUPS - 1):
            start = time.perf_counter()
            service = SearchService(config)
            setups.append(time.perf_counter() - start)
            service.close()
        metrics["setup_s"] = statistics.median(setups)
        notes["setup_s"] = f"median of {len(setups)} builds: " + ", ".join(
            f"{seconds:.3f}" for seconds in setups
        )
    return metrics, tracer


def run_des(args, settings, outcome, notes):
    import numpy as np

    import des
    import native
    from harness import (
        DES_DRIVERS,
        is_traced,
        peak_rss_mb,
        run_closed_loop,
        span_durations,
        zipf_sample,
    )
    from repro.engine.service import SearchService
    from repro.obs.tracing import NULL_TRACER, Tracer

    metrics = {}
    fleet = des.set_up(settings.fleet_queries, args.seed)
    rng = np.random.default_rng(args.seed)
    base_seed = args.seed * 1_000_003
    tracer = Tracer() if args.trace else None
    sizes = [int(size) for size in rng.permutation(settings.request_sizes)]

    def size(i):
        return sizes[i % len(sizes)]

    def serve(i):
        traced = tracer is not None and is_traced(i)
        des.run_pass(
            fleet,
            size(i),
            base_seed + i,
            tracer if traced else NULL_TRACER,
            outcome,
        )

    requests, setups = [], []
    for _ in range(SETUP_INTERVALS):
        setups.append(des.setup_interval(settings.fleet_queries, args.seed, SETUP_BUILDS))
        requests += run_closed_loop(
            serve,
            settings.seconds / SETUP_INTERVALS,
            first=len(requests),
            tracer=tracer,
            span_name="call",
        )
    record_requests(requests, outcome, lambda request: "")
    latency_metrics(requests, tracer is not None, metrics, notes)
    if tracer is None:
        metrics["setup_s"] = statistics.median(setups)
        busy = sum(r.finished - r.started for r in requests)
        queries = sum(size(r.index) for r in requests) * len(DES_DRIVERS)
        metrics["throughput_qps"] = queries / busy
        notes["throughput_qps"] = f"{queries} simulated queries over {busy:.3f} busy seconds"
        digests = [
            des.run_pass(fleet, settings.fleet_queries, args.seed, NULL_TRACER, outcome)
            for _ in range(2)
        ]
        outcome.gate(digests[0] == digests[1], f"fleet digests differ: {digests}")
        metrics["peak_rss_mb"] = peak_rss_mb()
        for driver, digest in digests[0].items():
            notes[f"digest des.{driver}"] = digest
        return metrics, None

    rows = span_durations(tracer.traces, "request")
    metrics["unattributed_ms"] = 1e3 * statistics.fmean(
        row["call"] - sum(row[f"des.{d}"] for d in DES_DRIVERS) for row in rows
    )
    metrics.update(des.census(fleet, settings.fleet_queries, args.seed, tracer, outcome))
    # No native layer runs in this workload; the census measures them on
    # the page-threads instance so every traced run reports every layer.
    instance = native.Instance(1, "threads", None)
    metrics.update(native.timed_setup(instance, settings.corpus, settings.query_log))
    with SearchService(instance.config(settings.corpus, settings.query_log)) as service:
        texts = zipf_sample(service.query_log, settings.census_queries, rng)
        reference = native.reference_hits(service, texts)
        metrics.update(native.census(service, texts, reference, tracer, outcome))
    return metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny instance for self-tests")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    missing = [
        path
        for path in (ROOT / "src" / "repro", ROOT / "benchmarks" / "conftest.py")
        if not path.exists()
    ]
    if missing:
        print(f"error: benchmark needs {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from harness import stop_processes

    try:
        return measure(args)
    finally:
        stop_processes()


def measure(args) -> int:
    """Run the workload, print the report and the result line."""
    from harness import END_TO_END, PER_LAYER, TooFewSamples, Outcome, provenance, result_line
    from repro.obs.export import export_trace_jsonl

    settings = make_settings(args.seconds, args.quick)
    outcome = Outcome()
    notes = {}
    try:
        if args.workload == "des-fleet":
            metrics, tracer = run_des(args, settings, outcome, notes)
        else:
            metrics, tracer = run_native(args.workload, args, settings, outcome, notes)
    except TooFewSamples as exc:
        print(f"error: refusing to report a percentile: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    if args.workload == "des-fleet":
        from des import SIM_RATE_QPS

        rates = {"requests_per_s": "closed loop", "simulated_queries_per_s": SIM_RATE_QPS}
    else:
        rates = {"requests_per_s": settings.rate(args.workload)}
    info = provenance(ROOT, args.workload, args.seed, rates)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        spans = export_trace_jsonl(tracer.traces, args.out / f"{stem}.jsonl")
        notes["spans"] = f"{spans} written to {args.out / (stem + '.jsonl')}"
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    for name, value in sorted(metrics.items()):
        print(f"{name:28s} {value:14.6f} {units.get(name, '?')}")
    for name, note in notes.items():
        print(f"  {name}: {note}")
    print(f"failed_frac {failed_frac} ({outcome.failed} of {outcome.attempted})")
    for problem in outcome.problems[:10]:
        print(f"  problem: {problem}")
    line = result_line(outcome, metrics, units)
    (args.out / f"{stem}.json").write_text(
        json.dumps(
            {"provenance": info, "notes": notes, "problems": outcome.problems, "result": json.loads(line)},
            indent=2,
        )
    )
    print(json.dumps({"provenance": info}))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
