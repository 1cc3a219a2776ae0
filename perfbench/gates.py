"""Correctness gates: native responses against an exhaustive reference,
DES runs against their query accounting."""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Sequence, Tuple

Hits = List[Tuple[int, float]]


def hit_list(hits: Iterable) -> Hits:
    """``(doc_id, score)`` pairs of ranked hits, best first."""
    return [(int(hit.doc_id), float(hit.score)) for hit in hits]


def response_problem(response, want: Hits) -> str:
    """Why a native response is wrong, or ``""`` when it is right.

    Ids and float64 scores must equal the reference exactly; a shed or
    partial response is wrong.  ``response`` is an ``IsnResponse`` or a
    ``SearchPage`` (whose entries carry the hits).
    """
    if getattr(response, "shed", False):
        return "shed"
    if response.coverage != 1.0:
        return f"coverage {response.coverage}"
    hits = getattr(response, "hits", None)
    if hits is None:
        hits = [entry.hit for entry in response]
        if any(not entry.url or entry.snippet is None for entry in response):
            return "page entry without url or snippet"
    got = hit_list(hits)
    if got != want:
        return f"hits {got[:3]}… != reference {want[:3]}…"
    return ""


def _status(record) -> str:
    if getattr(record, "failed", False) is True:
        return "failed"
    if getattr(record, "shed", False) or getattr(record, "shed_reason", None):
        return "shed"
    latency = record.latency
    return "served" if math.isfinite(latency) and latency >= 0 else "lost"


def des_accounting(records: Sequence, offered: int) -> List[str]:
    """Problems with one DES run's query accounting (empty when sound).

    Every offered query has exactly one record, each record is served,
    shed or failed (and those add up to the offered count), and
    coverage lies in [0, 1].
    """
    problems = []
    if len(records) != offered:
        problems.append(f"{len(records)} records for {offered} offered queries")
    ids = sorted(record.query_id for record in records)
    if ids != list(range(offered)):
        problems.append("query ids are not one per offered query")
    counts: Dict[str, int] = {"served": 0, "shed": 0, "failed": 0, "lost": 0}
    for record in records:
        counts[_status(record)] += 1
        coverage = getattr(record, "coverage", 1.0)
        if not 0.0 <= coverage <= 1.0:
            problems.append(f"coverage {coverage} outside [0, 1]")
            break
    if counts["lost"] or counts["served"] + counts["shed"] + counts["failed"] != offered:
        problems.append(f"accounting {counts} does not add up to {offered}")
    return problems


def des_digest(records: Sequence) -> str:
    """Short hash of a run's per-query outcomes (same seed, same hash)."""
    digest = hashlib.sha256()
    for record in sorted(records, key=lambda r: r.query_id):
        digest.update(
            f"{record.query_id}:{record.client_send!r}:{record.latency!r}:"
            f"{_status(record)};".encode()
        )
    return digest.hexdigest()[:16]
