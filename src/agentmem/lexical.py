"""Tokenisation and raw Okapi BM25 scoring over an inverted index.

``Bm25Index`` holds postings, ``term -> {doc_id: term frequency}``, plus each
document's token length; a term's document frequency is the size of its
postings. ``rank`` walks only the postings of the query terms, so its cost
grows with the matched postings, not with the corpus. It returns only the
documents that share a query term, best first: each of them scores > 0,
and every other document scores exactly 0. ``pool_scores`` scores a pool of
already-counted documents under that pool's own statistics, so a caller
that caches each document's counts never tokenises it twice.
``bm25_score`` is the per-document reference both are tested against.

Scores are left unnormalised on purpose: downstream scoring applies its own
normalisation variants, and the decay-bypass rule thresholds the raw value.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import NotFoundError, ValidationError

K1 = 1.5
B = 0.75

# Word characters minus underscore: lowercased alphanumeric runs.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; empty tokens dropped.

    "The Eiffel Tower!" -> ["the", "eiffel", "tower"]; "k1=1.5" -> ["k1", "1", "5"].
    """
    return _TOKEN_RE.findall(text.lower())


def term_counts(text: str) -> tuple[Counter, int]:
    """A document's term frequencies and token length."""
    tokens = tokenize(text)
    return Counter(tokens), len(tokens)


@dataclass(frozen=True)
class Bm25Index:
    """Immutable per-corpus statistics; safe to score from many threads."""

    doc_count: int
    avg_doc_len: float
    doc_len: dict[str, int]
    postings: dict[str, dict[str, int]]


def build_index(docs: Sequence[tuple[str, str]]) -> Bm25Index:
    """Index (doc_id, text) pairs. Duplicate ids are rejected."""
    doc_len: dict[str, int] = {}
    postings: defaultdict[str, dict[str, int]] = defaultdict(dict)
    for doc_id, text in docs:
        if doc_id in doc_len:
            raise ValidationError(f"duplicate doc_id: {doc_id!r}")
        counts, length = term_counts(text)
        doc_len[doc_id] = length
        for term, f in counts.items():
            postings[term][doc_id] = f
    n = len(doc_len)
    avg = sum(doc_len.values()) / n if n else 0.0
    return Bm25Index(doc_count=n, avg_doc_len=avg, doc_len=doc_len, postings=dict(postings))


def _idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def idf(index: Bm25Index, term: str) -> float:
    """Nonnegative IDF: ln(1 + (N - df + 0.5) / (df + 0.5))."""
    return _idf(index.doc_count, len(index.postings.get(term, ())))


def bm25_score(index: Bm25Index, query_tokens: Iterable[str], doc_id: str) -> float:
    """Raw Okapi BM25 of one document for the query terms.

    Repeated query terms count once; terms absent from the doc contribute 0.
    """
    dl = index.doc_len.get(doc_id)
    if dl is None:
        raise NotFoundError(f"doc_id not in index: {doc_id!r}")
    length_norm = K1 * (1.0 - B + (B * dl / index.avg_doc_len if index.avg_doc_len > 0 else 0.0))
    score = 0.0
    for term in dict.fromkeys(query_tokens):
        f = index.postings.get(term, {}).get(doc_id, 0)
        if f == 0:
            continue
        score += idf(index, term) * f * (K1 + 1.0) / (f + length_norm)
    return score


def _accumulate(
    weighted_postings: Iterable[tuple[float, Mapping]],
    doc_len: Mapping | Sequence[int],
    avg_doc_len: float,
) -> dict:
    """Sum each (idf, postings) term's contribution into its documents' scores.

    Terms come in query order, so every document's sum runs in the order
    ``bm25_score`` uses and the floats are identical to it.
    """
    scores: dict = {}
    k1, b = K1, B  # locals, as the loop below reads them once per posting
    for weight, postings in weighted_postings:
        for doc, f in postings.items():
            length_norm = k1 * (
                1.0 - b + (b * doc_len[doc] / avg_doc_len if avg_doc_len > 0 else 0.0)
            )
            scores[doc] = scores.get(doc, 0.0) + weight * f * (k1 + 1.0) / (f + length_norm)
    return scores


def rank(
    index: Bm25Index, query_tokens: Iterable[str], limit: int | None = None
) -> list[tuple[str, float]]:
    """Documents sharing a query term, sorted by (score desc, doc_id asc).

    Every returned score is > 0; a document left out scores exactly 0.
    """
    weighted = []
    for term in dict.fromkeys(query_tokens):
        postings = index.postings.get(term)
        if postings:
            weighted.append((idf(index, term), postings))
    scores = _accumulate(weighted, index.doc_len, index.avg_doc_len)
    ranked = sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))
    return ranked if limit is None else ranked[:limit]


def pool_scores(
    query_tokens: Iterable[str],
    docs: Sequence[tuple[Mapping[str, int], int]],
) -> list[float]:
    """Raw BM25 of each (term counts, token length) document, in order.

    N, the average length and every df come from ``docs`` alone, so each
    score equals ``bm25_score`` over ``build_index`` of the same texts.
    """
    n = len(docs)
    lengths = [length for _, length in docs]
    avg = sum(lengths) / n if n else 0.0
    weighted = []
    for term in dict.fromkeys(query_tokens):
        postings = {i: counts[term] for i, (counts, _) in enumerate(docs) if term in counts}
        if postings:
            weighted.append((_idf(n, len(postings)), postings))
    scores = _accumulate(weighted, lengths, avg)
    return [scores.get(i, 0.0) for i in range(n)]
