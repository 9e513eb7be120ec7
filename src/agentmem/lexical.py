"""Tokenisation and raw Okapi BM25 scoring over inverted indexes.

``tokenize`` takes the lowercased alphanumeric runs of a text, ``[^\\W_]+``.
Every memory build tokenises every entry and fact, so ASCII text, where that
class is exactly ``[0-9a-z]`` after lowercasing, is split by a byte table
instead of the regex; other text goes through the regex.

``Bm25Index`` holds postings, ``term -> {doc_id: term frequency}``, plus each
document's token length; a term's document frequency is the size of its
postings. ``build_index`` counts each token straight into its postings in
one pass. ``pool_scores`` scores the documents of several indexes as one
corpus, walking only the postings of the query terms, so its cost grows with
the matched postings, not with the corpus. A document that shares no query
term scores exactly 0 and is left out.

Two indexes never change for the life of a retrieval snapshot: its fact
index and its whole-snapshot entry index. Their N, average length and every
document frequency are fixed, so each posting's contribution, ``idf * tf *
(K1 + 1) / (tf + length norm)``, is the same float on every query: the
per-posting "impact" of Anh & Moffat (SIGIR 2006). ``Bm25Columns`` computes
a term's contributions as arrays the first time a query uses the term,
keeps them, and only adds them on every later query, so a snapshot that
answers one query pays what a walk of the postings costs, and each query
after it pays for its new terms only. It gives the sums as a float64 column
over every document, sorted by id. Stage 1 scores the fact index this way
and takes the facts best-first by partial selection, sorting only the top
few. Stage 2 scores the whole snapshot, the pool of a query that stage 1
scopes to no session, this way too: that index is keyed by the positions
0..N-1, so its column is in snapshot order.

A scoped stage-2 pool, the entries of a few sessions, keeps no
contributions: its N and document frequencies count only the sessions in
it, so a contribution holds for one pool only. Its sessions are kept in a
compact layout, one ``SessionPostings`` each, built by
``build_session_postings``: each term of a session maps to one flat tuple
``(position, tf, position, tf, ...)``, the last document first, in place of
a dict per term; the term strings are interned once per snapshot in a
shared dict, and the documents' lengths live in one per-snapshot column
indexed by position. ``session_pool_scores`` scores a pool of them with
``pool_scores``' walk, so every float is ``==`` to it.
``rank`` is ``pool_scores`` fully sorted, and ``bm25_score`` is the
per-document reference all of them are tested against.

Scores are left unnormalised on purpose: downstream scoring applies its own
normalisation variants, and the decay-bypass rule thresholds the raw value.
"""

from __future__ import annotations

import math
import re
import string
from collections import defaultdict
from collections.abc import Hashable, Iterable, Iterator, MutableSequence, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotFoundError, ValidationError

K1 = 1.5
B = 0.75
# Facts that Bm25Columns.ranked sorts first; it takes 4x more each time the
# walk needs more. Stage 1 stops after about k1 facts.
_FIRST_CUT = 16

# Word characters minus underscore: lowercased alphanumeric runs.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# A-Z to a-z, 0-9 and a-z to themselves, every other byte to a space. Within
# ASCII, [^\W_] is exactly [0-9A-Za-z], and lowercasing maps only A-Z.
_ASCII_TABLE = bytes(
    ord(chr(b).lower()) if chr(b) in string.digits + string.ascii_letters else 0x20
    for b in range(256)
)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; empty tokens dropped.

    "The Eiffel Tower!" -> ["the", "eiffel", "tower"]; "k1=1.5" -> ["k1", "1", "5"].

    ASCII text, which is all the text of the benchmark workloads, skips the
    regex and ``lower``: one byte table lowercases A-Z and turns every byte
    other than 0-9 and a-z into a space, and ``split`` cuts on the runs of
    them, giving the same tokens as ``_TOKEN_RE``. Other text goes through
    ``_TOKEN_RE`` itself.
    """
    if text.isascii():
        return text.encode().translate(_ASCII_TABLE).decode().split()
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
        # A term enters the postings, and doc_id a term's postings, at the
        # token's first occurrence: the order a count per document gives.
        for token in tokens:
            p = postings[token]
            p[doc_id] = p.get(doc_id, 0) + 1
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

    ``Bm25Columns``, the one scorer that keeps contributions, serves only
    indexes that never change: the fact index and the whole snapshot. A
    scoped pool's N and document frequencies depend on which sessions are
    in it, so no contribution can be kept across pools, and a column over
    the whole snapshot, masked to the pool on every query, would cost more
    than walking the pool's few hundred postings: ``session_pool_scores``
    walks them as this does, over the compact per-session layout.
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


class SessionPostings(NamedTuple):
    """One session's BM25 postings in the compact layout: each term maps to
    one flat tuple ``(position, tf, position, tf, ...)``, the last document
    first, and a term's document frequency is half its length. Its
    documents' lengths are in the snapshot's column, at their positions."""

    postings: dict[str, tuple[int, ...]]
    doc_count: int
    total_len: int


def build_session_postings(
    docs: Sequence[tuple[int, str]], terms: dict[str, str], doc_len: MutableSequence[int]
) -> SessionPostings:
    """Index one session's (position, text) pairs, positions distinct. Each
    term string is the one ``terms`` holds, added with ``setdefault`` so
    that builds may run at once; each document's token length is written to
    ``doc_len[position]``.

    A document's pair goes in front of its term's tuple, where the next
    token of the same document finds it at index 0. A term met once in a
    document gets that document's one ``(position, 1)`` tuple, so the terms
    of one document that no other document of the session holds share one
    tuple.
    """
    postings: dict[str, tuple[int, ...]] = {}
    get = postings.get
    intern = terms.setdefault
    total = 0
    for position, text in docs:
        tokens = tokenize(text)
        doc_len[position] = len(tokens)
        total += len(tokens)
        once = (position, 1)
        for token in tokens:
            p = get(token)
            if p is None:
                postings[intern(token, token)] = once
            elif p[0] != position:
                postings[token] = once + p
            else:  # the term again in this document
                postings[token] = (position, p[1] + 1) + p[2:]
    return SessionPostings(postings, len(docs), total)


def session_pool_scores(
    query_tokens: Iterable[str], sessions: Sequence[SessionPostings], doc_len: Sequence[int]
) -> dict[int, float]:
    """Raw BM25 of every position sharing a query term, with ``sessions``
    scored as one corpus: ``pool_scores``' walk over the compact layout, so
    each score is ``==`` to ``pool_scores`` over one ``build_index`` of the
    same documents keyed by position. N, the total length and each df are
    summed over the sessions, and each document's sum runs over the query
    terms in the same order."""
    n = sum(session.doc_count for session in sessions)
    avg = sum(session.total_len for session in sessions) / n if n else 0.0
    scores: dict[int, float] = {}
    k1, b = K1, B  # locals, as the loop below reads them once per posting
    for term in dict.fromkeys(query_tokens):
        matched = [p for session in sessions if (p := session.postings.get(term))]
        if not matched:
            continue
        weight = _idf(n, sum(map(len, matched)) // 2)
        for postings in matched:
            pairs = iter(postings)
            for doc, f in zip(pairs, pairs):
                length_norm = k1 * (1.0 - b + (b * doc_len[doc] / avg if avg > 0 else 0.0))
                scores[doc] = scores.get(doc, 0.0) + weight * f * (k1 + 1.0) / (f + length_norm)
    return scores


def rank(index: Bm25Index, query_tokens: Iterable[str]) -> list[tuple[Hashable, float]]:
    """Documents sharing a query term, sorted by (score desc, doc_id asc).

    Every returned score is > 0; a document left out scores exactly 0. This
    full sort is the reference that ``Bm25Columns.ranked`` is tested against.
    """
    return sorted(pool_scores(query_tokens, [index]).items(), key=lambda pair: (-pair[1], pair[0]))


class Bm25Columns:
    """BM25 of one ``Bm25Index`` as a float64 column over its documents,
    which are kept in sorted-id order. Each score is ``==`` to
    ``pool_scores`` over that index alone: every document's sum runs over
    the query terms in the same order, adding the same contributions, each
    the float ``pool_scores`` computes for that posting.

    N, the average length and every df are fixed for the life of the index,
    so a term's contribution to each document of its postings is too. They
    become (positions, contributions) arrays the first time a query uses the
    term and are kept; each later query only adds them into a column of its
    own. Two threads may build one term at once; both store equal arrays.
    """

    def __init__(self, index: Bm25Index):
        self.index = index
        self.doc_ids = sorted(index.doc_len)
        self._position = {doc: i for i, doc in enumerate(self.doc_ids)}
        # K1 * (1 - B + B * dl / avg) of each document, or K1 * (1 - B) when
        # avg is 0: the float pool_scores computes for it over this index
        # alone. Documents of one length share one float.
        avg = index.avg_doc_len
        by_len = {
            dl: K1 * (1.0 - B + (B * dl / avg if avg > 0 else 0.0))
            for dl in set(index.doc_len.values())
        }
        self._length_norm = np.array([by_len[index.doc_len[doc]] for doc in self.doc_ids])
        self._terms: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _contributions(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        arrays = self._terms.get(term)
        if arrays is None:
            postings = self.index.postings.get(term)
            if postings is None:
                return None
            position = self._position
            positions = np.fromiter((position[doc] for doc in postings), np.intp, len(postings))
            tf = np.fromiter(postings.values(), float, len(postings))
            weight = _idf(self.index.doc_count, len(postings))
            arrays = (positions, weight * tf * (K1 + 1.0) / (tf + self._length_norm[positions]))
            self._terms[term] = arrays
        return arrays

    def scores(self, query_tokens: Iterable[str]) -> np.ndarray:
        """Raw BM25 of every document, in ``doc_ids`` order: a new float64
        array on every call, so no caller shares a result with another.
        Every contribution is > 0, so the positive scores are exactly the
        matches."""
        scores = np.zeros(self.index.doc_count)
        for term in dict.fromkeys(query_tokens):
            arrays = self._contributions(term)
            if arrays is not None:
                positions, contributions = arrays
                scores[positions] += contributions
        return scores

    def ranked(self, query_tokens: Iterable[str]) -> Iterator[tuple[Hashable, float]]:
        """``rank``'s pairs in the same (score desc, doc_id asc) order, lazily.

        Each step sorts only the documents scoring at least the m-th best
        score, so ties at the cut stay in id order, and the next step takes
        4x as many; what a step sorted is a prefix of the next one's order.
        """
        scores = self.scores(query_tokens)
        matched = np.flatnonzero(scores > 0.0)
        values = scores[matched]
        done, m = 0, _FIRST_CUT
        while done < len(matched):
            if m < len(matched):
                cut = np.partition(values, len(values) - m)[len(values) - m]
                top = np.flatnonzero(values >= cut)
            else:
                top = np.arange(len(matched))
            # top ascends, as do positions and ids, so a stable sort keeps
            # equal scores in id order.
            top = top[np.argsort(-values[top], kind="stable")]
            for i in top[done:].tolist():
                yield self.doc_ids[matched[i]], float(values[i])
            done = len(top)
            m *= 4
