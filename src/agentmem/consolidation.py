"""Promotion of episodic sessions into semantic facts.

A consolidation pass walks every session that still has unpromoted entries
and hands the session transcript to an extractor. It then appends the facts
of all those sessions to the semantic tier in one write and marks their
entries promoted with one more, a single promotion line that lists every
entry id of the pass. A crash in between, or one that tears that line,
leaves the whole pass to be redone (the facts dedupe by id), and a
concurrent snapshot sees none or all of the pass's facts. Extractors are
question-blind by construction: the interface only ever sees the session id
and transcript.

The built-in extractor is pure pattern matching (no model call) with a fixed
coarse relation vocabulary: kv, is_a, prefers, mentioned_in. Most lines match
none of the copula, preference and entity patterns, so each is tried only on
a line that passes a cheaper test the pattern implies: a whitespace-delimited
"is" for the copula, the substring "prefers" or "likes" for preferences, and
an uppercase letter (``str.islower`` false) for entities. A line that fails
such a test cannot match, so the drafts are those of trying every pattern on
every line.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime
from typing import Protocol

from .errors import ValidationError, is_finite_number
from .store import MemoryStore, SemanticFact, utc_now

RELATION_KV = "kv"
RELATION_IS_A = "is_a"
RELATION_PREFERS = "prefers"
RELATION_MENTIONED_IN = "mentioned_in"

MAX_FIELD_TOKENS = 12

_ENTITY_RE = re.compile(r"\b([A-Z][a-zA-Z0-9]*(?:\s+[A-Z][a-zA-Z0-9]*)+)\b")
_IS_RE = re.compile(r"^(.+?)\s+is\s+(.+)$")
_PREFERS_RE = re.compile(r"^(.+?)\s+(?:prefers|likes)\s+(.+)$")
# A line _IS_RE matches contains this; a linear search for it is cheaper than
# the match that fails on most lines.
_IS_HINT_RE = re.compile(r"\sis\s")


@dataclass(frozen=True)
class FactDraft:
    subject: str
    relation: str
    value: str


class Extractor(Protocol):
    def extract(self, session_id: str, session_text: str) -> list[FactDraft]:
        ...


def _trim(text: str) -> str:
    tokens = text.strip().split()
    return " ".join(tokens[:MAX_FIELD_TOKENS])


def extract_facts_heuristic(session_id: str, text: str) -> list[FactDraft]:
    """Key/value and copula patterns plus capitalised multiword entities.

    Deliberately coarse and coverage-heavy; duplicates within one session are
    dropped, field text is capped at 12 whitespace tokens.
    """
    drafts: list[FactDraft] = []
    seen: set[tuple[str, str, str]] = set()

    def emit(subject: str, relation: str, value: str) -> None:
        subject, value = _trim(subject), _trim(value)
        if not subject or not value:
            return
        key = (subject, relation, value)
        if key not in seen:
            seen.add(key)
            drafts.append(FactDraft(subject, relation, value))

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if ":" in line:
            head, _, tail = line.partition(":")
            emit(head, RELATION_KV, tail)
        match = _IS_HINT_RE.search(line) and _IS_RE.match(line)
        if match:
            emit(match.group(1), RELATION_IS_A, match.group(2))
        match = ("prefers" in line or "likes" in line) and _PREFERS_RE.match(line)
        if match:
            emit(match.group(1), RELATION_PREFERS, match.group(2))
        if not line.islower():  # True only when no letter is uppercase
            for entity in _ENTITY_RE.findall(line):
                emit(entity, RELATION_MENTIONED_IN, session_id)
    return drafts


class HeuristicExtractor:
    """Extractor backed by the pattern rules above."""

    name = "heuristic"

    def extract(self, session_id: str, session_text: str) -> list[FactDraft]:
        return extract_facts_heuristic(session_id, session_text)


def fact_id_for(session_id: str, draft: FactDraft) -> str:
    """Deterministic id so re-extracted facts dedupe across passes."""
    key = f"{session_id}|{draft.subject}|{draft.relation}|{draft.value}"
    return "f" + hashlib.blake2b(key.encode("utf-8"), digest_size=8).hexdigest()


@dataclass
class ConsolidationReport:
    sessions_scanned: int = 0
    facts_emitted: int = 0
    entries_promoted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    duration_seconds: float = 0.0


def run_consolidation_pass(
    store: MemoryStore, extractor: Extractor, project: str
) -> ConsolidationReport:
    """One idempotent pass: sessions whose entries are all promoted are skipped,
    so rerunning over unchanged data emits nothing. An extractor failure on one
    session is recorded and the pass continues.

    The facts of every session go to the semantic tier in one append, then one
    promotion line with the ids of every entry promoted, in sorted session
    order; the facts' created_at is one instant per pass. A snapshot taken
    while the pass runs therefore sees either none of the pass's facts or all
    of them."""
    started = time.perf_counter()
    report = ConsolidationReport()
    loaded = store.load_entries(project)
    by_session: dict[str, list] = {}
    for entry in loaded.entries:
        by_session.setdefault(entry.session_id, []).append(entry)

    now = utc_now()
    facts: list[SemanticFact] = []
    entry_ids: list[str] = []
    for session_id in sorted(by_session):
        entries = by_session[session_id]
        pending = [e for e in entries if not e.promoted]
        if not pending:
            continue
        report.sessions_scanned += 1
        transcript = "\n".join(e.content for e in entries if not e.system)
        try:
            drafts = extractor.extract(session_id, transcript)
        except Exception as exc:  # failure isolated to this session
            report.failures.append((session_id, str(exc)))
            continue
        session_ids = frozenset({session_id})
        facts.extend(
            SemanticFact(  # positional, in field order: the cheaper call
                fact_id_for(session_id, draft),
                draft.subject,
                draft.relation,
                draft.value,
                session_ids,
                now,
            )
            for draft in drafts
        )
        entry_ids.extend(entry.id for entry in pending)

    if entry_ids:
        # Facts before promotions: a crash in between leaves every session of
        # the pass unpromoted, and the next pass re-extracts them with the same
        # fact ids.
        report.facts_emitted = store.append_facts(facts)
        store.promote_many(entry_ids)
        report.entries_promoted = len(entry_ids)

    report.duration_seconds = time.perf_counter() - started
    return report


class ConsolidationDaemon:
    """Fixed-rate background runner; overlapping passes are skipped, not queued.

    A pass that raises is counted in ``pass_errors``; ``last_error`` keeps the
    text of the latest such exception and ``last_error_at`` its UTC time."""

    def __init__(self, interval_seconds: float, pass_fn: Callable[[], object]):
        if not is_finite_number(interval_seconds) or interval_seconds <= 0:
            raise ValidationError(
                f"interval_seconds must be a finite number > 0: {interval_seconds!r}"
            )
        self.interval = interval_seconds
        self._fn = pass_fn
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self.passes_run = 0
        self.passes_skipped = 0
        self.pass_errors = 0
        self.last_error: str | None = None
        self.last_error_at: datetime | None = None

    def _loop(self) -> None:
        next_at = time.monotonic()
        while not self._stop.is_set():
            try:
                self._fn()
            except Exception as exc:  # the daemon outlives a failed pass
                self.pass_errors += 1
                self.last_error = str(exc)
                self.last_error_at = utc_now()
            self.passes_run += 1
            next_at += self.interval
            now = time.monotonic()
            if now > next_at:
                missed = int((now - next_at) // self.interval) + 1
                self.passes_skipped += missed
                next_at += missed * self.interval
            self._stop.wait(max(0.0, next_at - now))

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        self._thread.join(timeout=timeout)


def schedule(interval_seconds: float, pass_fn: Callable[[], object]) -> ConsolidationDaemon:
    """Start a consolidation daemon; call .stop() to end it."""
    daemon = ConsolidationDaemon(interval_seconds, pass_fn)
    daemon._thread.start()
    return daemon
