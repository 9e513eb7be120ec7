from __future__ import annotations

import math
import random
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentmem.errors import NotFoundError, ValidationError
from agentmem.lexical import (
    _TOKEN_RE,
    K1,
    Bm25Columns,
    B,
    bm25_score,
    build_index,
    build_postings,
    pool_scores,
    rank,
    tokenize,
)

TWO_DOC_CORPUS = [("d1", "apple banana"), ("d2", "cherry date")]


def groups_of(texts, cuts=()):
    """``texts`` keyed by position 0..N-1, cut into consecutive postings
    groups at ``cuts``, with one interning dict and one length column."""
    docs = list(enumerate(texts))
    bounds = [0, *sorted(c % (len(docs) + 1) for c in cuts), len(docs)]
    terms: dict[str, str] = {}
    doc_len = [0] * len(docs)
    groups = [build_postings(docs[lo:hi], terms, doc_len) for lo, hi in zip(bounds, bounds[1:])]
    return groups, doc_len


def id_columns(texts):
    """``texts`` keyed "d0", "d1", ... as the fact index keeps facts: one
    group in id order, so position p holds the id ``ids[p]``."""
    ids = sorted(f"d{i}" for i in range(len(texts)))
    groups, doc_len = groups_of([texts[int(doc_id[1:])] for doc_id in ids])
    return Bm25Columns(groups, doc_len), ids


def brute_force_bm25(docs, query_terms, doc_id, k1=1.5, b=0.75):
    """Independent evaluation of the scoring formula, written from scratch."""
    token_lists = {d: text.lower().split() for d, text in docs}
    n = len(docs)
    avgdl = sum(len(t) for t in token_lists.values()) / n
    tokens = token_lists[doc_id]
    score = 0.0
    for term in sorted(set(query_terms)):
        tf = tokens.count(term)
        if tf == 0:
            continue
        df = sum(1 for t in token_lists.values() if term in t)
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(tokens) / avgdl))
    return score


def test_tokenize_lowercases_and_splits():
    assert tokenize("The Eiffel Tower!") == ["the", "eiffel", "tower"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_splits_on_symbol_runs():
    assert tokenize("k1=1.5") == ["k1", "1", "5"]


# Mostly ASCII: letters of both cases, digits, underscores, punctuation and
# the control characters str.split() and \s treat as whitespace, with a few
# non-ASCII letters, digits and spaces mixed in.
TOKEN_TEXT = st.one_of(
    st.text(
        st.sampled_from(
            "aZz09_-.,:;!?'\"()[]{}/\\@#$%^&*=+|~` \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x7f\x00"
            "AbcXyM\u00e9\u00df\u0130\u0663\u00a0\u3000\u2028"
        ),
        max_size=40,
    ),
    st.text(max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(text=TOKEN_TEXT)
@example("naïve_café")
@example("İstanbul")
@example("Straße")
@example("١٢٣")
@example("a\u00a0b")
@example("a\u3000b")
@example("a b")
@example("")
@example("".join(map(chr, range(128))) * 2)  # every ASCII character
def test_tokenize_equals_the_regex_on_ascii_and_unicode_text(text):
    assert tokenize(text) == _TOKEN_RE.findall(text.lower())


def two_pass_build_index(docs):
    """build_index as it was written first: count each document's tokens,
    then add the counts to the postings."""
    doc_len, postings = {}, {}
    for doc_id, text in docs:
        tokens = tokenize(text)
        doc_len[doc_id] = len(tokens)
        counts = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, f in counts.items():
            postings.setdefault(term, {})[doc_id] = f
    return doc_len, postings


@settings(max_examples=100, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(["a", "B", "c1", "é", "a_b", "x-y", "Zz"]), max_size=12).map(
            " ".join
        ),
        max_size=12,
    ),
    ids=st.sampled_from(["str", "int", "reversed"]),
)
def test_build_index_equals_the_two_pass_reference(texts, ids):
    keys = {
        "str": [f"d{i}" for i in range(len(texts))],
        "int": list(range(len(texts))),
        "reversed": list(range(len(texts)))[::-1],
    }[ids]
    docs = list(zip(keys, texts))
    index = build_index(docs)
    doc_len, postings = two_pass_build_index(docs)
    assert list(index.doc_len.items()) == list(doc_len.items())
    assert index.doc_count == len(doc_len)
    assert index.total_len == sum(doc_len.values())
    assert [(term, list(d.items())) for term, d in index.postings.items()] == [
        (term, list(d.items())) for term, d in postings.items()
    ]


def test_build_index_statistics():
    idx = build_index(TWO_DOC_CORPUS)
    assert idx.doc_count == 2
    assert idx.avg_doc_len == 2.0


def test_build_index_empty_corpus_scores_nothing():
    idx = build_index([])
    assert idx.doc_count == 0
    assert rank(idx, ["anything"]) == []


def test_build_index_repeated_term():
    idx = build_index([("d1", "a a a")])
    assert idx.postings["a"]["d1"] == 3


def test_build_index_rejects_duplicate_ids():
    with pytest.raises(ValidationError):
        build_index([("d1", "x"), ("d1", "y")])


def test_score_single_rare_term():
    idx = build_index(TWO_DOC_CORPUS)
    assert bm25_score(idx, ["apple"], "d1") == pytest.approx(math.log(2), abs=1e-4)


def test_score_no_shared_term_is_zero():
    idx = build_index(TWO_DOC_CORPUS)
    assert bm25_score(idx, ["apple"], "d2") == 0.0


def test_score_term_in_every_doc_still_positive():
    idx = build_index([("d1", "apple banana"), ("d2", "apple cherry")])
    score = bm25_score(idx, ["apple"], "d1")
    # N=2, df=2: IDF = ln(1 + 0.5/2.5); length norm cancels at avgdl.
    assert score == pytest.approx(math.log(1 + 0.5 / 2.5), abs=1e-4)
    assert score > 0


def test_score_unknown_doc():
    idx = build_index(TWO_DOC_CORPUS)
    with pytest.raises(NotFoundError):
        bm25_score(idx, ["apple"], "nope")


def test_query_terms_deduplicated():
    idx = build_index(TWO_DOC_CORPUS)
    once = bm25_score(idx, ["apple"], "d1")
    thrice = bm25_score(idx, ["apple", "apple", "apple"], "d1")
    assert once == thrice


def test_rank_sorted_desc_then_id():
    idx = build_index([("b", "apple"), ("a", "apple"), ("c", "pear")])
    ranked = rank(idx, ["apple"])
    assert [doc for doc, _ in ranked] == ["a", "b"]
    assert "c" not in dict(ranked)


def test_determinism():
    docs = [("d%d" % i, "alpha beta gamma delta"[: 5 + i]) for i in range(6)]
    a = [bm25_score(build_index(docs), ["alpha", "beta"], d) for d, _ in docs]
    b = [bm25_score(build_index(docs), ["alpha", "beta"], d) for d, _ in docs]
    assert a == b


def test_matches_brute_force_on_random_corpora():
    rng = random.Random(7)
    vocab = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"]
    for _ in range(30):
        docs = [
            (f"d{i}", " ".join(rng.choices(vocab, k=rng.randint(1, 12))))
            for i in range(rng.randint(1, 20))
        ]
        idx = build_index(docs)
        query = rng.sample(vocab, k=rng.randint(1, 4))
        for doc_id, _ in docs:
            assert bm25_score(idx, query, doc_id) == pytest.approx(
                brute_force_bm25(docs, query, doc_id), abs=1e-9
            )


@settings(max_examples=60, deadline=None)
@given(
    base=st.lists(st.sampled_from("abcde"), min_size=1, max_size=10),
    filler=st.sampled_from("xyz"),
)
def test_adding_query_term_occurrence_never_decreases_score(base, filler):
    # Same length, one more occurrence of the query term.
    fewer = ["d1", " ".join(base + [filler])]
    more = ["d1", " ".join(base + ["a"])]
    other = ("d2", "q r s")
    score_fewer = bm25_score(build_index([tuple(fewer), other]), ["a"], "d1")
    score_more = bm25_score(build_index([tuple(more), other]), ["a"], "d1")
    assert score_more >= score_fewer - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from("abcdef"), min_size=0, max_size=8).map(" ".join),
        min_size=1,
        max_size=8,
    ),
    query=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
)
def test_scores_nonnegative(texts, query):
    docs = [(f"d{i}", text) for i, text in enumerate(texts)]
    idx = build_index(docs)
    assert all(score >= 0.0 for _, score in rank(idx, query))


CORPUS = st.lists(
    st.lists(st.sampled_from("abcdefg"), min_size=0, max_size=10).map(" ".join),
    min_size=0,
    max_size=12,
)
QUERY = st.lists(st.sampled_from("abcdefgz"), min_size=0, max_size=5)
# Summing these query terms in another order changes d1's score in its last bit.
ORDER_SENSITIVE = (["b d", "d c b d g c e f", "b f e a c a e a"], ["d", "f", "b"])


@settings(max_examples=80, deadline=None)
@given(texts=CORPUS, query=QUERY)
@example(*ORDER_SENSITIVE)
def test_rank_is_the_positive_part_of_the_brute_force_ranking(texts, query):
    docs = [(f"d{i}", text) for i, text in enumerate(texts)]
    idx = build_index(docs)
    every = sorted(
        ((doc_id, bm25_score(idx, query, doc_id)) for doc_id, _ in docs),
        key=lambda pair: (-pair[1], pair[0]),
    )
    ranked = rank(idx, query)
    assert ranked == [(doc_id, score) for doc_id, score in every if score > 0.0]
    assert all(score == 0.0 for _, score in every[len(ranked):])


@settings(max_examples=80, deadline=None)
@given(texts=CORPUS, query=QUERY, cuts=st.lists(st.integers(0, 12), max_size=3))
@example(*ORDER_SENSITIVE, [1, 2])
def test_pool_scores_equal_bm25_score_over_the_pool(texts, query, cuts):
    idx = build_index(list(enumerate(texts)))
    groups, doc_len = groups_of(texts, cuts)
    scores = pool_scores(query, groups, doc_len)
    expected = {i: bm25_score(idx, query, i) for i in range(len(texts))}
    assert scores == {i: s for i, s in expected.items() if s > 0.0}


# Session texts with non-ASCII words, some equal after lowercasing, so that
# tokenize's regex path runs; an empty list joins to an empty content.
SESSION_WORDS = st.sampled_from(
    ["a", "b", "c", "Straße", "straße", "café", "CAFÉ", "naïve", "١٢٣", "漢字", "İz"]
)
SESSION_TEXT = st.lists(SESSION_WORDS, max_size=8).map(" ".join)
SESSION_QUERY = st.lists(
    st.sampled_from(["a", "b", "straße", "café", "naïve", "١٢٣", "漢字", "i", "z", "q", "ü"]),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(
    sessions=st.lists(st.lists(SESSION_TEXT, min_size=1, max_size=5), min_size=1, max_size=7),
    query=SESSION_QUERY,
    data=st.data(),
)
@example(
    sessions=[["a a b", "b a"], ["", "a"], ["café CAFÉ café", ""]],
    query=["a", "café", "q", "a", "café"],
    data=None,
)
def test_groups_scored_as_one_pool_equal_bm25_score_over_one_index(sessions, query, data):
    """Sessions built with one interning dict and one length column, over
    interleaved positions as a snapshot's sessions are, and scored as a pool
    of 1 to 5 of them, give the floats of ``bm25_score`` over one
    ``build_index`` of the pool's documents keyed by position, through
    ``pool_scores`` and through ``Bm25Columns``."""
    total = sum(map(len, sessions))
    if data is None:
        order, pool = list(range(total)), list(range(len(sessions)))
    else:
        order = data.draw(st.permutations(range(total)))
        pool = data.draw(st.lists(
            st.sampled_from(range(len(sessions))), min_size=1, max_size=5, unique=True
        ))
    docs, at = [], 0
    for texts in sessions:
        positions = sorted(order[at:at + len(texts)])
        at += len(texts)
        docs.append(list(zip(positions, texts)))
    terms: dict[str, str] = {}
    doc_len = [0] * total
    built = [build_postings(d, terms, doc_len) for d in docs]
    for session, session_docs in zip(built, docs):
        index = build_index(session_docs)
        assert session.doc_count == index.doc_count and session.total_len == index.total_len
        assert session.postings == {  # the first document first
            term: tuple(x for pair in p.items() for x in pair)
            for term, p in index.postings.items()
        }
        assert all(type(p) is tuple for p in session.postings.values())
        assert all(terms[term] is term for term in session.postings)
        assert [doc_len[i] for i, _ in session_docs] == [index.doc_len[i] for i, _ in session_docs]
    index = build_index([doc for i in pool for doc in docs[i]])
    expected = {i: s for i in index.doc_len if (s := bm25_score(index, query, i)) > 0.0}
    assert pool_scores(query, [built[i] for i in pool], doc_len) == expected
    if len(pool) == len(sessions):  # every position: the whole snapshot's column
        column = Bm25Columns(built, doc_len).scores(query)
        assert column.tolist() == [expected.get(i, 0.0) for i in range(total)]


@settings(max_examples=80, deadline=None)
@given(texts=CORPUS, query=QUERY)
@example(*ORDER_SENSITIVE)
@example([], ["a"])  # empty corpus
@example(["", "", ""], ["a", "z"])  # every document empty: avg 0
@example(["a a b", "", "b c a", ""], ["a", "z", "a", "b", "z"])  # repeated and unknown terms
def test_position_scores_equal_pool_scores_at_every_position(texts, query):
    """Over groups keyed by the positions 0..N-1, as the whole snapshot's
    sessions are, the column is in position order, whether the documents
    are one group or several."""
    for cuts in ((), (1, 3), (2, 2, 5)):
        groups, doc_len = groups_of(texts, cuts)
        columns = Bm25Columns(groups, doc_len)
        expected = pool_scores(query, groups, doc_len)
        scores = columns.scores(query)
        assert scores.dtype == np.float64
        assert scores.tolist() == [expected.get(i, 0.0) for i in range(len(texts))]
        if not any(doc_len):
            assert columns._length_norm.tolist() == [K1 * (1 - B)] * len(texts)


@settings(max_examples=40, deadline=None)
@given(texts=CORPUS, query=QUERY)
@example(*ORDER_SENSITIVE)
def test_rank_is_pool_scores_of_its_index_sorted(texts, query):
    idx = build_index([(f"d{i}", text) for i, text in enumerate(texts)])
    groups, doc_len = groups_of(texts)
    assert rank(idx, query) == sorted(
        ((f"d{i}", s) for i, s in pool_scores(query, groups, doc_len).items()),
        key=lambda pair: (-pair[1], pair[0]),
    )


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(st.lists(st.sampled_from("abcdefg"), max_size=6).map(" ".join), max_size=80),
    query=QUERY,
)
@example(*ORDER_SENSITIVE)
def test_columns_equal_pool_scores_and_rank(texts, query):
    """Up to 80 documents over seven terms: many tie, and the walk crosses
    the first selection cut."""
    idx = build_index([(f"d{i}", text) for i, text in enumerate(texts)])
    columns, ids = id_columns(texts)
    scores = columns.scores(query)
    assert [(doc_id, scores[i]) for i, doc_id in enumerate(ids)] == [
        (doc_id, bm25_score(idx, query, doc_id)) for doc_id in sorted(idx.doc_len)
    ]
    assert [(ids[p], s) for p, s in columns.ranked(query)] == rank(idx, query)


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(st.lists(st.sampled_from("abcdefg"), max_size=6).map(" ".join), max_size=40),
    queries=st.lists(QUERY, min_size=2, max_size=6),
)
@example(ORDER_SENSITIVE[0], [ORDER_SENSITIVE[1], ["b", "z"], ORDER_SENSITIVE[1], ["f", "d", "f"]])
@example(["", "a"], [["a"], ["z", "a"], ["a", "a"]])
def test_cached_contributions_score_each_query_of_a_sequence_as_a_fresh_index(texts, queries):
    """One ``Bm25Columns`` over one group in id order and one over three
    groups in text order answer a sequence of queries with repeated,
    overlapping and unknown terms, so later queries read back contributions
    that earlier ones cached. Each result equals ``pool_scores`` over fresh
    postings, and ``ranked`` equals ``rank``."""
    columns, ids = id_columns(texts)
    positions = Bm25Columns(*groups_of(texts, (5, 17)))
    for query in queries:
        by_id = build_index([(f"d{i}", text) for i, text in enumerate(texts)])
        fresh, doc_len = groups_of([texts[int(doc_id[1:])] for doc_id in ids])
        expected = pool_scores(query, fresh, doc_len)
        scores = columns.scores(query)
        assert scores.tolist() == [expected.get(i, 0.0) for i in range(len(texts))]
        assert [(ids[p], s) for p, s in columns.ranked(query)] == rank(by_id, query)
        by_position = pool_scores(query, *groups_of(texts))
        by_position_scores = positions.scores(query)
        assert by_position_scores.dtype == np.float64
        assert by_position_scores.tolist() == [by_position.get(i, 0.0) for i in range(len(texts))]
    # A term that no document holds is kept too, with empty arrays.
    vocabulary = build_index(list(enumerate(texts))).postings
    assert columns._terms.keys() == positions._terms.keys() == {t for q in queries for t in q}
    for kept in (columns._terms, positions._terms):
        assert {term for term, (found, _) in kept.items() if found.size} == {
            term for term in kept if term in vocabulary
        }


def test_each_position_scores_result_is_a_fresh_array():
    """A later query, on this thread or another, sums into a column of its
    own, so a result already returned keeps its values."""
    positions = Bm25Columns(*groups_of(["a b", "b c", "a a c", ""]))
    first = positions.scores(["a", "b"])
    kept = first.tolist()
    second = positions.scores(["c"])
    results = []
    thread = threading.Thread(target=lambda: results.append(positions.scores(["a", "c"])))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and len(results) == 1
    assert first.tolist() == kept and kept[3] == 0.0 and kept[0] > 0.0
    assert second.tolist() != kept and results[0].tolist() != kept
    for other in (second, results[0]):
        assert not np.shares_memory(first, other)


@pytest.mark.parametrize("size", [15, 16, 17, 64, 65, 300])
def test_columns_rank_every_match_past_each_selection_cut(size):
    """Corpora where most documents match with distinct scores, so the walk
    grows its selection past 16, 64 and 256 documents."""
    rng = random.Random(size)
    texts = [" ".join(rng.choices("abcdefg", k=rng.randint(1, 40))) for _ in range(size)]
    idx = build_index([(f"d{i}", text) for i, text in enumerate(texts)])
    columns, ids = id_columns(texts)
    for query in (["a"], ["a", "b", "a"], ["g", "c"], ["z"]):
        assert [(ids[p], s) for p, s in columns.ranked(query)] == rank(idx, query)


def _min_build_seconds(docs):
    """The least of three build times of one group of ``docs``."""
    best = math.inf
    for _ in range(3):
        doc_len = [0] * len(docs)
        start = time.perf_counter()
        build_postings(docs, {}, doc_len)
        best = min(best, time.perf_counter() - start)
    return best


def test_build_postings_is_linear_in_a_groups_size():
    """Every document holds the same two terms, so their postings grow with
    the group, as a long session's common words do: a build that copied a
    term's postings for each new document would take about 64x as long for
    8x the documents, a linear one about 8x. The large group's scores are
    those of ``bm25_score`` over one ``build_index``."""

    def docs(n):
        return [(i, f"alpha beta {'alpha ' * (i % 3)}w{i % 5}") for i in range(n)]

    small, large = docs(2_000), docs(16_000)
    ratio = _min_build_seconds(large) / _min_build_seconds(small)
    assert ratio < 24, ratio
    doc_len = [0] * len(large)
    group = build_postings(large, {}, doc_len)
    index = build_index(large)
    query = ["alpha", "w1", "beta", "nowhere"]
    expected = [bm25_score(index, query, i) for i in range(len(large))]
    assert Bm25Columns([group], doc_len).scores(query).tolist() == expected
    assert pool_scores(query, [group], doc_len) == dict(enumerate(expected))
