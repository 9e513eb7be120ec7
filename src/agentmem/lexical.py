"""Tokenisation and raw Okapi BM25 scoring over inverted indexes.

``Bm25Index`` holds postings, ``term -> {doc_id: term frequency}``, plus each
document's token length; a term's document frequency is the size of its
postings. ``pool_scores`` scores the documents of several indexes as one
corpus, walking only the postings of the query terms, so its cost grows with
the matched postings, not with the corpus. Stage 1 scores the fact index
through ``rank``; stage 2 scores a pool from its sessions' indexes. A
document that shares no query term scores exactly 0 and is left out.
``bm25_score`` is the per-document reference both are tested against.

Scores are left unnormalised on purpose: downstream scoring applies its own
normalisation variants, and the decay-bypass rule thresholds the raw value.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from collections.abc import Hashable, Iterable, Sequence
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


@dataclass(frozen=True)
class Bm25Index:
    """Immutable per-corpus statistics; safe to score from many threads.
    ``total_len`` is the integer sum of ``doc_len``."""

    doc_count: int
    total_len: int
    doc_len: dict[Hashable, int]
    postings: dict[str, dict[Hashable, int]]

    @property
    def avg_doc_len(self) -> float:
        return self.total_len / self.doc_count if self.doc_count else 0.0


def build_index(docs: Sequence[tuple[Hashable, str]]) -> Bm25Index:
    """Index (doc_id, text) pairs. Duplicate ids are rejected."""
    doc_len: dict[Hashable, int] = {}
    postings: defaultdict[str, dict[Hashable, int]] = defaultdict(dict)
    for doc_id, text in docs:
        if doc_id in doc_len:
            raise ValidationError(f"duplicate doc_id: {doc_id!r}")
        tokens = tokenize(text)
        doc_len[doc_id] = len(tokens)
        for term, f in Counter(tokens).items():
            postings[term][doc_id] = f
    return Bm25Index(len(doc_len), sum(doc_len.values()), doc_len, dict(postings))


def _idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def idf(index: Bm25Index, term: str) -> float:
    """Nonnegative IDF: ln(1 + (N - df + 0.5) / (df + 0.5))."""
    return _idf(index.doc_count, len(index.postings.get(term, ())))


def bm25_score(index: Bm25Index, query_tokens: Iterable[str], doc_id: Hashable) -> float:
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


def pool_scores(
    query_tokens: Iterable[str], indexes: Sequence[Bm25Index]
) -> dict[Hashable, float]:
    """Raw BM25 of every document sharing a query term, with ``indexes``
    scored as one corpus: N, the total length and each df are summed over
    them, so doc ids must be distinct across them. Each score is > 0 and
    ``==`` to ``bm25_score`` over one ``build_index`` of all their texts,
    as each document's sum runs over the query terms in the same order.
    """
    n = sum(index.doc_count for index in indexes)
    avg = sum(index.total_len for index in indexes) / n if n else 0.0
    scores: dict[Hashable, float] = {}
    k1, b = K1, B  # locals, as the loop below reads them once per posting
    for term in dict.fromkeys(query_tokens):
        matched = [(index.doc_len, p) for index in indexes if (p := index.postings.get(term))]
        if not matched:
            continue
        weight = _idf(n, sum(len(postings) for _, postings in matched))
        for doc_len, postings in matched:
            for doc, f in postings.items():
                length_norm = k1 * (1.0 - b + (b * doc_len[doc] / avg if avg > 0 else 0.0))
                scores[doc] = scores.get(doc, 0.0) + weight * f * (k1 + 1.0) / (f + length_norm)
    return scores


def rank(index: Bm25Index, query_tokens: Iterable[str]) -> list[tuple[Hashable, float]]:
    """Documents sharing a query term, sorted by (score desc, doc_id asc).

    Every returned score is > 0; a document left out scores exactly 0.
    """
    return sorted(pool_scores(query_tokens, [index]).items(), key=lambda pair: (-pair[1], pair[0]))
