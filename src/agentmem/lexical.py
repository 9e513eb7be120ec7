"""Tokenisation and raw Okapi BM25 scoring over compact postings.

``tokenize`` takes the lowercased alphanumeric runs of a text, ``[^\\W_]+``.
Every memory build tokenises every entry and fact, so ASCII text, where that
class is exactly ``[0-9a-z]`` after lowercasing, is split by a byte table
instead of the regex; other text goes through the regex.

The engine builds one layout, ``Postings``: a group of documents keyed by
integer position, each term mapped to one flat tuple ``(position, tf,
position, tf, ...)``, so a term's document frequency in the group is half
its length. The documents' token lengths live in one column indexed by
position, outside the groups: the postings lists of Zobel & Moffat (ACM
Computing Surveys 2006) in one form. ``build_postings`` builds a group in
one pass whose cost grows with its tokens. A corpus is a list of groups
scored as one: N, the total length and each df are summed over them, so a
pool of sessions is the list of their groups and nothing is indexed twice.

Two scorers read that layout, chosen by what the corpus is:

- ``pool_scores`` walks the postings of the query terms for a corpus that
  is scored once, a scoped stage-2 pool whose N and document frequencies
  count only the sessions in it, so its cost grows with the matched
  postings, not with the corpus.
- ``Bm25Columns`` scores a corpus that never changes for the life of a
  snapshot, its facts or all its entries. N, the average length and every
  df are fixed, so each posting's contribution, ``idf * tf * (K1 + 1) /
  (tf + length norm)``, is the same float on every query: the per-posting
  "impact" of Anh & Moffat (SIGIR 2006). It computes a term's
  contributions as arrays the first time a query uses the term, keeps
  them, and only adds them on every later query, giving a float64 column in
  position order. Stage 1 takes the facts best-first from it by partial
  selection, sorting only the top few.

Both sum each document's contributions over the query terms in the same
order, with the same length norms, so their floats are ``==``. ``Bm25Index``
(``term -> {doc_id: tf}``), ``build_index``, ``bm25_score`` and ``rank``
are the per-document reference that both are tested against; no engine path
builds them.

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
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import NotFoundError, ValidationError

K1 = 1.5
B = 0.75
# Facts that Bm25Columns.ranked sorts first; it takes 4x more each time the
# walk needs more. Stage 1 stops after about k1 facts.
_FIRST_CUT = 16
# What Bm25Columns keeps for a term that no group holds.
_NO_POSTINGS = (np.empty(0, np.intp), np.empty(0))

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


def rank(index: Bm25Index, query_tokens: Iterable[str]) -> list[tuple[Hashable, float]]:
    """Documents sharing a query term, sorted by (score desc, doc_id asc),
    each scored by ``bm25_score``. Every returned score is > 0; a document
    left out scores exactly 0. This full sort is the reference that
    ``Bm25Columns.ranked`` is tested against."""
    query = list(dict.fromkeys(query_tokens))
    matched = {doc for term in query for doc in index.postings.get(term, ())}
    return sorted(
        ((doc, bm25_score(index, query, doc)) for doc in matched),
        key=lambda pair: (-pair[1], pair[0]),
    )


class Postings(NamedTuple):
    """One group of documents' BM25 postings: each term maps to one flat
    tuple ``(position, tf, position, tf, ...)``, the first document first,
    and a term's document frequency is half its length. The documents'
    lengths are in a column kept outside, at their positions."""

    postings: dict[str, tuple[int, ...]]
    doc_count: int
    total_len: int


def build_postings(
    docs: Iterable[tuple[int, str]], terms: dict[str, str], doc_len: MutableSequence[int]
) -> Postings:
    """Index (position, text) pairs, positions distinct, in one pass whose
    cost grows with the tokens. Each term string is the one ``terms`` holds,
    added with ``setdefault`` so that builds may run at once; each
    document's token length is written to ``doc_len[position]``.

    A term's first document gets a ``(position, tf)`` tuple: the document's
    one ``(position, 1)`` tuple while the term is met once in it, so the
    terms of one document that no other document holds share one tuple. A
    second document turns the tuple into a list, which later documents
    append to, and the lists become tuples when the group is done.
    """
    postings: dict[str, tuple[int, ...] | list[int]] = {}
    grown: list[str] = []  # the terms whose postings are lists
    get = postings.get
    intern = terms.setdefault
    count = total = 0
    for position, text in docs:
        tokens = tokenize(text)
        doc_len[position] = len(tokens)
        count += 1
        total += len(tokens)
        once = (position, 1)
        for token in tokens:
            p = get(token)
            if p is None:
                postings[intern(token, token)] = once
            elif p[-2] != position:  # the term's first time in this document
                if len(p) == 2:  # a tuple; a list holds two documents or more
                    postings[token] = [*p, position, 1]
                    grown.append(token)
                else:
                    p += once
            elif len(p) == 2:  # again in its first document
                postings[token] = (position, p[1] + 1)
            else:
                p[-1] += 1
    for term in grown:
        postings[term] = tuple(postings[term])
    return Postings(postings, count, total)


def pool_scores(
    query_tokens: Iterable[str], groups: Sequence[Postings], doc_len: Sequence[int]
) -> dict[int, float]:
    """Raw BM25 of every position sharing a query term, with ``groups``
    scored as one corpus: N, the total length and each df are summed over
    them, and each document's sum runs over the query terms in
    ``dict.fromkeys`` order, so each score is > 0 and ``==`` to
    ``bm25_score`` over one ``build_index`` of the same documents.

    It keeps nothing: a scoped pool's N and document frequencies depend on
    which sessions are in it, so no contribution holds beyond one pool, and
    a column over the whole snapshot, masked to the pool on every query,
    would cost more than walking the pool's few hundred postings.
    """
    n = sum(group.doc_count for group in groups)
    avg = sum(group.total_len for group in groups) / n if n else 0.0
    scores: dict[int, float] = {}
    k1, b = K1, B  # locals, as the loop below reads them once per posting
    for term in dict.fromkeys(query_tokens):
        matched = [p for group in groups if (p := group.postings.get(term))]
        if not matched:
            continue
        weight = _idf(n, sum(map(len, matched)) // 2)
        for postings in matched:
            pairs = iter(postings)
            for doc, f in zip(pairs, pairs):
                length_norm = k1 * (1.0 - b + (b * doc_len[doc] / avg if avg > 0 else 0.0))
                scores[doc] = scores.get(doc, 0.0) + weight * f * (k1 + 1.0) / (f + length_norm)
    return scores


class Bm25Columns:
    """BM25 of a fixed corpus, ``groups`` whose positions are 0..N-1 with
    ``doc_len`` their lengths, as a float64 column in position order. Each
    score is ``==`` to ``pool_scores`` over the same groups: every
    document's sum runs over the query terms in the same order, adding the
    same contributions, each the float ``pool_scores`` computes for that
    posting.

    N, the average length and every df are fixed for the life of the
    corpus, so a term's contribution to each document of its postings is
    too. They become (positions, contributions) arrays the first time a
    query uses the term and are kept, empty for a term that no group holds,
    so a later query looks a term up in one dict however many groups there
    are; it only adds the arrays into a column of its own. Two threads may
    build one term at once; both store equal arrays.
    """

    def __init__(self, groups: Sequence[Postings], doc_len: Sequence[int]):
        self.groups = groups
        self.doc_count = sum(group.doc_count for group in groups)
        total = sum(group.total_len for group in groups)
        avg = total / self.doc_count if self.doc_count else 0.0
        # K1 * (1 - B + B * dl / avg) of each position, or K1 * (1 - B) when
        # avg is 0: the float pool_scores computes for it. Documents of one
        # length share one float.
        by_len = {dl: K1 * (1.0 - B + (B * dl / avg if avg > 0 else 0.0)) for dl in set(doc_len)}
        self._length_norm = np.array([by_len[dl] for dl in doc_len])
        self._terms: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _contributions(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        arrays = self._terms.get(term)
        if arrays is None:
            matched = [p for group in self.groups if (p := group.postings.get(term))]
            arrays = _NO_POSTINGS
            if matched:
                flat = np.fromiter(chain.from_iterable(matched), np.intp, sum(map(len, matched)))
                positions, tf = flat[0::2].copy(), flat[1::2].astype(float)
                weight = _idf(self.doc_count, len(positions))
                lnorm = self._length_norm[positions]
                arrays = (positions, weight * tf * (K1 + 1.0) / (tf + lnorm))
            self._terms[term] = arrays
        return arrays

    def scores(self, query_tokens: Iterable[str]) -> np.ndarray:
        """Raw BM25 of every position: a new float64 array on every call, so
        no caller shares a result with another. Every contribution is > 0,
        so the positive scores are exactly the matches."""
        scores = np.zeros(len(self._length_norm))
        for term in dict.fromkeys(query_tokens):
            positions, contributions = self._contributions(term)
            if len(positions):
                scores[positions] += contributions
        return scores

    def ranked(self, query_tokens: Iterable[str]) -> Iterator[tuple[int, float]]:
        """The matching positions with their scores, in (score desc, position
        asc) order, lazily.

        Each step sorts only the positions scoring at least the m-th best
        score, so ties at the cut stay in position order, and the next step
        takes 4x as many; what a step sorted is a prefix of the next one's
        order.
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
            # top ascends, as do the positions, so a stable sort keeps equal
            # scores in position order.
            top = top[np.argsort(-values[top], kind="stable")][done:]
            yield from zip(matched[top].tolist(), values[top].tolist())
            done += len(top)
            m *= 4
