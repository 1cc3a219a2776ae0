"""The native search engine on the reference instance: instance
construction, the exhaustive reference, and the traced layer census."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.corpus.generator import CorpusGenerator
from repro.corpus.querylog import QueryLogGenerator
from repro.engine.execution import ExecutionConfig
from repro.engine.isn import IndexServingNode
from repro.engine.mp import ProcessShardPool, WorkerOptions
from repro.engine.service import SearchService, SearchServiceConfig
from repro.engine.snippets import SnippetGenerator
from repro.index.partitioner import partition_index
from repro.index.shared import SharedIndexArena
from repro.search.executor import ShardSearcher
from repro.search.global_stats import global_scorer_factory
from repro.search.merger import merge_shard_results
from repro.text.analyzer import default_analyzer

from gates import Hits, hit_list, response_problem
from harness import KERNELS, mean_ms, span_durations

K = 10


@dataclass(frozen=True)
class Instance:
    """How a native workload serves the reference corpus."""

    partitions: int
    backend: str
    workers: Optional[int]

    def config(self, corpus, query_log) -> SearchServiceConfig:
        return SearchServiceConfig(
            corpus=corpus,
            query_log=query_log,
            num_partitions=self.partitions,
            execution=ExecutionConfig(backend=self.backend, workers=self.workers),
        )


def timed_setup(instance: Instance, corpus, query_log) -> Dict[str, float]:
    """Build the instance piece by piece through the public calls a
    ``SearchService`` makes, timing each piece; nothing is kept.

    ``setup.corpus_s`` covers the documents and the query log, both
    generated from the corpus vocabulary."""
    config = instance.config(corpus, query_log)
    analyzer = default_analyzer()
    start = time.perf_counter()
    generator = CorpusGenerator(corpus)
    collection = generator.generate()
    QueryLogGenerator(generator.vocabulary, query_log).generate()
    corpus_end = time.perf_counter()
    partitioned = partition_index(collection, instance.partitions, analyzer=analyzer)
    index_end = time.perf_counter()
    node = IndexServingNode(partitioned, execution=config.execution)
    serve_end = time.perf_counter()
    node.close()
    return {
        "setup.corpus_s": corpus_end - start,
        "setup.index_s": index_end - corpus_end,
        "setup.serve_s": serve_end - index_end,
    }


def reference_hits(service: SearchService, texts: List[str]) -> Dict[str, Hits]:
    """Exhaustive TAAT answers on one unpartitioned index.

    A single-partition service already holds that index; otherwise it
    is built from the service's collection.
    """
    if service.partitioned.num_partitions == 1:
        shard = service.partitioned[0]
    else:
        shard = partition_index(service.collection, 1, analyzer=service.analyzer)[0]
    searcher = ShardSearcher(shard, algorithm="taat")
    return {text: hit_list(searcher.search(text, k=K).hits) for text in set(texts)}


class _IpcPool:
    """The service's worker pool, or a one-worker pool for the census
    of a thread-backend service (closed afterwards)."""

    def __init__(self, service: SearchService):
        self.pool = service.isn.process_pool
        self._arena = None
        if self.pool is None:
            self._arena = SharedIndexArena(service.partitioned)
            self.pool = ProcessShardPool(
                self._arena.spec, workers=1, options=WorkerOptions()
            )

    def close(self) -> None:
        if self._arena is not None:
            self.pool.close()
            self._arena.close()


def census(service, texts, reference, tracer, outcome) -> Dict[str, float]:
    """Time each layer's public call per query, as spans.

    One trace per query (root ``census``).  Every answer a layer gives
    is checked against the reference.  Returns per-query means.
    """
    partitioned = service.partitioned
    shards = range(partitioned.num_partitions)
    scorer_factory = global_scorer_factory(partitioned)
    searchers = {
        name: [
            ShardSearcher(shard, algorithm=algorithm, scorer_factory=scorer_factory)
            for shard in partitioned
        ]
        for name, algorithm in KERNELS.items()
    }
    parser = service.isn.parser
    snippets = SnippetGenerator(service.analyzer)
    ipc = _IpcPool(service)
    processes = service.isn.process_pool is not None
    lanes = min(ipc.pool.num_workers, partitioned.num_partitions)
    parsed_queries = []
    try:
        # Untimed pass: the worker has attached and every layer has run
        # once on these texts before anything is timed.
        for text in texts:
            service.search_page(text, k=K)
            ipc.pool.submit_batch([(s, parser.parse(text, k=K)) for s in shards]).result()
        for text in texts:
            want = reference[text]
            with tracer.span("census", query=text):
                with tracer.span("parse"):
                    parsed = parser.parse(text, k=K)
                parsed_queries.append(parsed)
                with tracer.span("lookup"):
                    for shard in partitioned:
                        for term in parsed.terms:
                            shard.index.term_info(term)
                            shard.index.postings_for(term)
                results = {}
                for name, kernel_searchers in searchers.items():
                    with tracer.span(f"traverse.{name}") as span:
                        results[name] = [s.search(parsed) for s in kernel_searchers]
                    span.set("postings", sum(r.matched_volume for r in results[name]))
                    span.set("docs_scored", sum(r.docs_scored or 0 for r in results[name]))
                ipc_hits = []
                for shard_id in shards:
                    with tracer.span("ipc.submit_one", shard=shard_id) as span:
                        result, start, end = ipc.pool.submit_one(shard_id, parsed).result()
                    tracer.record_span("ipc.worker", start=start, end=end, parent=span)
                    ipc_hits.append(result.hits)
                got = merge_shard_results(ipc_hits, k=K)
                outcome.record(hit_list(got) == want, f"ipc {text!r}")
                if processes:
                    with tracer.span("fanout", lanes=lanes):
                        futures = [
                            ipc.pool.submit_batch([(s, parsed) for s in shards[lane::lanes]])
                            for lane in range(lanes)
                        ]
                        for future in futures:
                            future.result()
                with tracer.span("merge"):
                    merged = merge_shard_results(
                        [result.hits for result in results["daat"]], k=K
                    )
                for name, kernel_results in results.items():
                    got = merge_shard_results([r.hits for r in kernel_results], k=K)
                    outcome.record(hit_list(got) == want, f"traverse.{name} {text!r}")
                terms = list(service.analyzer.analyze(text))
                with tracer.span("snippets", hits=len(merged)):
                    for hit in merged:
                        snippets.snippet(service.collection[hit.doc_id], terms)
                with tracer.span("isn.execute"):
                    response = service.search(text, k=K)
                problem = response_problem(response, want)
                outcome.record(not problem, f"isn.execute {text!r}: {problem}")
                with tracer.span("page"):
                    page = service.search_page(text, k=K)
                problem = response_problem(page, want)
                outcome.record(not problem, f"page {text!r}: {problem}")
        items = [(s, parsed) for parsed in parsed_queries for s in shards]
        batch = service.isn.execution.batch_size
        batch_seconds = 0.0
        for lo in range(0, len(items), batch):
            chunk = items[lo : lo + batch]
            with tracer.span("ipc.batch", items=len(chunk)) as span:
                ipc.pool.submit_batch(chunk).result()
            batch_seconds += span.duration
    finally:
        ipc.close()

    rows = span_durations(tracer.traces, "census")
    roots = [root for root in tracer.traces if root.name == "census"]

    def mean_attribute(span_name: str, key: str) -> float:
        return sum(
            root.find(span_name).attributes[key] for root in roots
        ) / len(roots)

    metrics = {
        name: mean_ms(rows, span)
        for name, span in (
            ("parse.ms", "parse"),
            ("lookup.ms", "lookup"),
            ("merge.ms", "merge"),
            ("snippets.ms", "snippets"),
            ("isn.execute.ms", "isn.execute"),
            ("page.ms", "page"),
            ("ipc.worker_ms", "ipc.worker"),
        )
    }
    for name in KERNELS:
        metrics[f"traverse.{name}.ms"] = mean_ms(rows, f"traverse.{name}")
    metrics["ipc.overhead_ms"] = mean_ms(rows, "ipc.submit_one") - metrics["ipc.worker_ms"]
    metrics["ipc.batch_item_ms"] = 1e3 * batch_seconds / len(items)
    # On the thread backend the shard fan-out is the default kernel's
    # in-process traversal; on the process backend it is the
    # lane-parallel dispatch the serving node makes.
    metrics["fanout.ms"] = mean_ms(rows, "fanout" if processes else "traverse.daat")
    metrics["traverse.postings"] = mean_attribute("traverse.daat", "postings")
    for name in ("daat", "wand", "bmw"):
        metrics[f"traverse.docs_scored.{name}"] = mean_attribute(
            f"traverse.{name}", "docs_scored"
        )
    metrics["traverse.bmw.scored_ratio"] = (
        metrics["traverse.docs_scored.bmw"] / metrics["traverse.docs_scored.daat"]
    )
    metrics["snippets.hits"] = mean_attribute("snippets", "hits")
    return metrics


def unattributed_ms(metrics: Dict[str, float], request: str) -> float:
    """The request call's time minus the layers timed inside it."""
    inside = metrics["parse.ms"] + metrics["fanout.ms"] + metrics["merge.ms"]
    if request == "page":
        return metrics["page.ms"] - inside - metrics["snippets.ms"]
    return metrics["isn.execute.ms"] - inside
