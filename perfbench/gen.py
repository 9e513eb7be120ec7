"""Seeded, download-free generator of LongMemEval-S-shaped workloads.

Every workload is a list of question records in the schema that
``agentmem.evaluation.question_from_dict`` reads (the LongMemEval layout:
``haystack_sessions`` of role/content turns, ``haystack_dates``,
``haystack_session_ids``, ``answer_session_ids``). ``qa_eval`` gives each
question its own haystack; the two query workloads ingest every question's
haystack into one shared store and ask all the questions against it.

Properties varied because retrieval cost and quality depend on them:

- turn length: log-normal token counts (median about 12, long tail to 160),
  so BM25 length normalisation and the token budget both act;
- a Zipf-skewed shared vocabulary mixed with English function words, so
  document frequencies and matched postings look like real text;
- knowledge-update distractors: older sessions state the same subject with
  another value, so ranking and recency matter and recall is below 1;
- vocabulary-gap questions: asked only in words that occur nowhere in
  memory, so stage 1 matches no fact and the unscoped fallback runs.

The shares of update and gap questions are exact counts per workload, not
draws, so quality metrics vary little from one seed to the next. The same
seed always gives the same records.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

FUNCTION_WORDS = (
    "the a to and of in it for that on with was so but we at this just "
    "then there have had not all about when they from my your our"
).split()

# Filler, answer and gap words come from disjoint syllable sets, so an answer
# never occurs by accident in filler text and a gap word matches nothing.
FILLER_SYLLABLES = "ba be bo da de do ka ke ko la le lo ma me mo na ne no ra re ro sa se so ta te to".split()
ANSWER_SYLLABLES = "vix vuz vyr vaq wex wiq wuz wyv xav xiv".split()
GAP_SYLLABLES = "gjo gju hjy hjo fju fjy".split()

BASE_DATE = datetime(2025, 1, 1, tzinfo=timezone.utc)
HISTORY_DAYS = 180


@dataclass(frozen=True)
class Shape:
    """Size of one workload's generated input."""

    questions: int
    sessions: int  # total haystack sessions over all questions
    turns: int  # mean turns per session; each session has turns +/- 2
    update_share: float  # questions with knowledge-update distractors
    gap_share: float  # questions asked in out-of-memory words


SHAPES = {
    "full": {
        "qa_eval": Shape(100, 100 * 50, 10, 0.4, 0.1),
        "scoped_query": Shape(100, 500, 40, 0.4, 0.0),
        "unscoped_query": Shape(100, 250, 20, 0.4, 0.1),
    },
    "smoke": {
        "qa_eval": Shape(4, 4 * 6, 4, 0.5, 0.25),
        "scoped_query": Shape(6, 24, 6, 0.5, 0.0),
        "unscoped_query": Shape(6, 18, 6, 0.5, 0.2),
    },
}


def _pseudo_words(
    rng: random.Random, syllables: list[str], count: int, parts: tuple[int, int], taken: set[str]
) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(*parts)))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


class _Text:
    """Word sources for one workload, all drawn from the workload's seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        taken = set(FUNCTION_WORDS)
        self.vocab = _pseudo_words(rng, FILLER_SYLLABLES, 6000, (2, 4), taken)
        weights, total = [], 0.0
        for rank in range(1, len(self.vocab) + 1):
            total += 1.0 / rank**1.07
            weights.append(total)
        self.cum_weights = weights
        self.answers = _pseudo_words(rng, ANSWER_SYLLABLES, 2000, (3, 4), taken)
        self.gaps = _pseudo_words(rng, GAP_SYLLABLES, 600, (3, 4), taken)
        self.answer_pos = 0

    def words(self, n: int) -> list[str]:
        rng = self.rng
        content = rng.choices(self.vocab, cum_weights=self.cum_weights, k=n)
        return [rng.choice(FUNCTION_WORDS) if rng.random() < 0.4 else w for w in content]

    def turn(self) -> str:
        n = max(3, min(160, int(self.rng.lognormvariate(2.5, 0.6))))
        words = self.words(n)
        if self.rng.random() < 0.05:  # a capitalised name feeds the entity rule
            at = self.rng.randrange(len(words))
            words[at : at + 1] = [w.capitalize() for w in self.words(2)]
        return " ".join(words)

    def subject(self) -> str:
        # Mid-frequency words: they occur elsewhere too, so stage 1 has
        # competing facts, but they are rare enough to discriminate.
        return " ".join(self.rng.choice(self.vocab[100:1500]) for _ in range(2))

    def answer(self) -> str:
        words = self.answers[self.answer_pos : self.answer_pos + 2]
        self.answer_pos = (self.answer_pos + 2) % len(self.answers)
        return " ".join(words)

    def needle(self, subject: str, value: str) -> str:
        rng = self.rng
        prefix = self.words(rng.randint(0, 4))
        suffix = self.words(rng.randint(0, 8))
        return " ".join(prefix + ["my", subject, "is", value] + suffix)


def _session(text: _Text, turns: int, needle: str | None) -> list[dict]:
    rng = text.rng
    count = max(1, turns + rng.randint(-2, 2))
    contents = [text.turn() for _ in range(count)]
    if needle is not None:
        contents[rng.randrange(0, count, 2)] = needle  # the user states it
    return [
        {"role": "user" if i % 2 == 0 else "assistant", "content": c}
        for i, c in enumerate(contents)
    ]


def _stamp(day: float) -> str:
    return (BASE_DATE + timedelta(days=day)).isoformat()


def _question(text: _Text, qid: str, kind: str, sessions: int, turns: int) -> dict:
    rng = text.rng
    subject, answer = text.subject(), text.answer()
    updates = rng.randint(1, 6) if kind == "update" else 0
    updates = min(updates, sessions - 1)
    gold_day = rng.uniform(HISTORY_DAYS * 0.5, HISTORY_DAYS)
    planted = [(gold_day, text.needle(subject, answer))]
    planted += [
        (rng.uniform(0, gold_day - 1), text.needle(subject, text.answer()))
        for _ in range(updates)
    ]
    days = [day for day, _ in planted] + [
        rng.uniform(0, HISTORY_DAYS) for _ in range(sessions - len(planted))
    ]
    needles = [n for _, n in planted] + [None] * (sessions - len(planted))
    order = sorted(range(sessions), key=lambda i: days[i])
    ids = [f"{qid}-s{j:02d}" for j in range(sessions)]
    if kind == "gap":
        question = " ".join(rng.sample(text.gaps, 3)) + "?"
    else:
        question = f"What is my {subject}?"
    return {
        "question_id": qid,
        "question_type": {
            "plain": "single-session-user",
            "update": "knowledge-update",
            "gap": "single-session-preference",
        }[kind],
        "question": question,
        "answer": answer,
        "question_date": _stamp(HISTORY_DAYS + 1),
        "haystack_session_ids": ids,
        "haystack_dates": [_stamp(days[i]) for i in order],
        "haystack_sessions": [_session(text, turns, needles[i]) for i in order],
        "answer_session_ids": [ids[order.index(0)]],
    }


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    """Question records for ``workload``; identical for identical arguments."""
    shape = SHAPES[size][workload]
    rng = random.Random(f"{workload}:{seed}")
    text = _Text(rng)
    n = shape.questions
    n_gap = round(n * shape.gap_share)
    n_update = round(n * shape.update_share)
    kinds = ["gap"] * n_gap + ["update"] * n_update + ["plain"] * (n - n_gap - n_update)
    rng.shuffle(kinds)
    base, extra = divmod(shape.sessions, n)
    return [
        _question(text, f"q{i:03d}", kind, base + (i < extra), shape.turns)
        for i, kind in enumerate(kinds)
    ]


def write_jsonl(records: list[dict], path: Path) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
