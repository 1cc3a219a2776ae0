"""Workload-independent parts of the benchmark.

The metric tables (names and units), the percentile helper that refuses
a tail percentile without ten samples beyond it, the open-loop load
generator, span aggregation, provenance and the result line.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import re
import resource
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

#: End-to-end metrics, reported by every untraced run of every workload.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
}

KERNELS = {"daat": "daat", "taat": "taat", "wand": "wand", "bmw": "block_max_wand"}
DES_DRIVERS = ("single", "fanout", "tail", "replicated", "hetero", "autoscale")

#: Per-layer metrics, reported by every traced run of every workload.
PER_LAYER = {
    "setup.corpus_s": "s",
    "setup.index_s": "s",
    "setup.serve_s": "s",
    "parse.ms": "ms",
    "lookup.ms": "ms",
    **{f"traverse.{kernel}.ms": "ms" for kernel in KERNELS},
    "traverse.postings": "count",
    "traverse.docs_scored.daat": "count",
    "traverse.docs_scored.wand": "count",
    "traverse.docs_scored.bmw": "count",
    "traverse.bmw.scored_ratio": "ratio",
    "fanout.ms": "ms",
    "merge.ms": "ms",
    "snippets.ms": "ms",
    "snippets.hits": "count",
    "ipc.worker_ms": "ms",
    "ipc.overhead_ms": "ms",
    "ipc.batch_item_ms": "ms",
    "isn.execute.ms": "ms",
    "page.ms": "ms",
    "unattributed_ms": "ms",
    "gen.late_ms": "ms",
    "queue.wait_ms": "ms",
    "trace.overhead_ms": "ms",
    **{f"des.{driver}.us_per_query": "us" for driver in DES_DRIVERS},
}

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A tail percentile is reported only with at least this many samples
#: strictly above it.
MIN_ABOVE = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` if it fits the metric charset, else raise."""
    if not _NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


class TooFewSamples(ValueError):
    """A percentile was asked for without enough samples beyond it."""


@dataclass(frozen=True)
class Percentile:
    """A percentile with the sample count it rests on."""

    q: float
    value: float
    samples: int
    above: int

    def describe(self, unit: str) -> str:
        return (
            f"p{self.q:g} = {self.value:.4f} {unit} "
            f"(n={self.samples}, {self.above} above)"
        )


def percentile(values: Sequence[float], q: float) -> Percentile:
    """The ``q``-th percentile of ``values``, refusing a thin tail.

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_ABOVE`
    samples lie strictly above the percentile.
    """
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        raise TooFewSamples(f"p{q:g} of no samples")
    value = float(np.percentile(data, q))
    above = int(np.count_nonzero(data > value))
    if above < MIN_ABOVE:
        raise TooFewSamples(
            f"p{q:g} has {above} of {data.size} samples above it; "
            f"need {MIN_ABOVE}"
        )
    return Percentile(q=q, value=value, samples=int(data.size), above=above)


# ----------------------------------------------------------------------
# open-loop load


@dataclass
class Request:
    """One open-loop request: its schedule, timestamps and outcome."""

    index: int
    due: float
    sent: float = float("nan")
    started: float = float("nan")
    finished: float = float("nan")
    result: object = None
    error: Optional[BaseException] = None

    @property
    def latency(self) -> float:
        """Seconds from the scheduled send to the response."""
        return self.finished - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent after the schedule."""
        return self.sent - self.due

    @property
    def queue_wait(self) -> float:
        """Seconds between the send and a client thread picking it up."""
        return self.started - self.sent


def poisson_offsets(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Send offsets (seconds from start) of ``count`` Poisson arrivals.

    Systematic sampling, as in :func:`zipf_sample`: the gaps are the
    exponential distribution's quantiles at ``count`` evenly spaced
    points with one random offset, sent in a random order.  Every seed
    offers the same mix of short and long gaps over the same span, so
    queueing, and with it the latency percentiles, varies less between
    seeds than with independent draws.
    """
    points = (np.arange(count) + rng.uniform()) / count
    gaps = -np.log1p(-points) / rate
    return np.cumsum(rng.permutation(gaps))


def zipf_sample(query_log, count: int, rng: np.random.Generator) -> List[str]:
    """``count`` query texts drawn by the log's Zipf popularity.

    Systematic sampling: one random offset places ``count`` evenly
    spaced points on the popularity CDF, and the draws are shuffled.
    Every seed gets each popular query in its traffic share, so the mix
    of cheap and costly queries, and with it the latency percentiles,
    varies far less between seeds than with independent draws.
    """
    weights = np.array([query_log.popularity(i) for i in range(len(query_log))])
    cdf = np.cumsum(weights)
    points = (np.arange(count) + rng.uniform()) / count * cdf[-1]
    ranks = np.minimum(np.searchsorted(cdf, points, side="right"), len(query_log) - 1)
    return [query_log[int(rank)].text for rank in rng.permutation(ranks)]


def is_traced(index: int) -> bool:
    """Whether request ``index`` of a traced loop is traced: every
    second one, so traced and untraced requests alternate."""
    return index % 2 == 1


def _serve(call, request: Request, tracer, span_name: str) -> None:
    """Run ``call(request.index)`` and stamp the request.

    With a ``tracer``, every request :func:`is_traced` picks becomes one
    trace: a ``request`` root from the scheduled send to the response,
    with ``gen.late``, ``queue.wait`` and ``span_name`` children.  The
    other half runs untraced on the same schedule, so the two halves
    share the machine's drift.
    """
    request.started = time.perf_counter()
    try:
        if tracer is None or not is_traced(request.index):
            request.result = call(request.index)
        else:
            with tracer.span("request", index=request.index) as root:
                with tracer.span(span_name):
                    request.result = call(request.index)
            root.start = request.due
            tracer.record_span(
                "gen.late", start=request.due, end=request.sent, parent=root
            )
            tracer.record_span(
                "queue.wait", start=request.sent, end=request.started, parent=root
            )
    except Exception as exc:  # counted as a failed operation
        request.error = exc
    request.finished = time.perf_counter()


def run_open_loop(
    call: Callable[[int], object],
    offsets: np.ndarray,
    clients: int,
    tracer=None,
    span_name: str = "call",
) -> List[Request]:
    """Send request ``i`` at ``offsets[i]`` whatever the earlier ones did.

    ``call(i)`` runs on one of ``clients`` threads.  Latency counts from
    the scheduled send, so a stall charges every request queued behind
    it.  Tracing is as in :func:`_serve`.
    """
    requests = [Request(index=i, due=0.0) for i in range(len(offsets))]
    with ThreadPoolExecutor(max_workers=clients) as pool:
        futures = []
        start = time.perf_counter() + 0.01
        for request, offset in zip(requests, offsets):
            request.due = start + float(offset)
            delay = request.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            request.sent = time.perf_counter()
            futures.append(pool.submit(_serve, call, request, tracer, span_name))
        for future in futures:
            future.result()
    return requests


def run_closed_loop(
    call: Callable[[int], object],
    seconds: float,
    first: int = 0,
    tracer=None,
    span_name: str = "call",
) -> List[Request]:
    """One client sends each request as soon as the last one returns,
    for ``seconds``; requests are numbered from ``first``.

    Each request is due when the last one returns, so its latency is
    its own time plus the loop's few microseconds of bookkeeping, which
    ``late`` shows.  Tracing is as in :func:`_serve`.
    """
    requests = []
    due = time.perf_counter()
    deadline = due + seconds
    while due < deadline:
        request = Request(index=first + len(requests), due=due)
        request.sent = time.perf_counter()
        _serve(call, request, tracer, span_name)
        requests.append(request)
        due = request.finished
    return requests


def time_passes(one_pass: Callable[[], None], seconds: float) -> List[float]:
    """Repeat an identical pass back to back for ``seconds`` (at least
    three times); returns each pass's wall seconds.

    The capacity phase reports work per *median* pass, so a few passes
    slowed by a noisy neighbour do not move it.
    """
    durations = []
    deadline = time.perf_counter() + seconds
    while len(durations) < 3 or time.perf_counter() < deadline:
        start = time.perf_counter()
        one_pass()
        durations.append(time.perf_counter() - start)
    return durations


# ----------------------------------------------------------------------
# spans → layer metrics


def span_durations(traces: Iterable, root_name: str) -> List[Dict[str, float]]:
    """Per trace rooted at ``root_name``: seconds per span name, summed.

    The root's own duration is under ``root_name``.
    """
    rows = []
    for root in traces:
        if root.name != root_name:
            continue
        row: Dict[str, float] = {}
        for span in root.iter_tree():
            row[span.name] = row.get(span.name, 0.0) + span.duration
        rows.append(row)
    return rows


def mean_ms(rows: List[Dict[str, float]], name: str) -> float:
    """Mean milliseconds per trace spent in spans called ``name``."""
    return 1e3 * float(np.mean([row.get(name, 0.0) for row in rows]))


# ----------------------------------------------------------------------
# provenance and the result line


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, workload: str, seed: int, rates: Dict[str, float]) -> dict:
    """What a number depends on besides the code: machine and settings."""
    return {
        "workload": workload,
        "seed": seed,
        "offered_rates": rates,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "machine": platform.machine(),
    }


def stop_processes(grace: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Worker pools close their own workers; any left are terminated, then
    killed.  Creating a shared-memory segment starts multiprocessing's
    resource tracker, which would otherwise outlive the run by a moment,
    so it is stopped last, once no worker holds its pipe open.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Outcome:
    """Operations attempted and failed, plus what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.gates_failed = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, problem: str = "") -> None:
        """Count one operation; a wrong, shed or raising one fails."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(problem)

    def gate(self, ok: bool, problem: str) -> None:
        """A whole-run check: failing it marks the run incorrect."""
        if not ok:
            with self._lock:
                self.gates_failed += 1
                self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.gates_failed == 0


def result_line(outcome: Outcome, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    """The final stdout line the benchmark contract asks for."""
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        raise ValueError(f"metrics missing {sorted(missing)} extra {sorted(extra)}")
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                check_metric_name(name): {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )
