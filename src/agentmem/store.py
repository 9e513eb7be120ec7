"""Append-only JSONL persistence for the episodic and semantic memory tiers.

Layout under the workspace root:

    memory/episodic/YYYY-MM-DD.jsonl   one line per entry, per UTC day
    memory/semantic/facts.jsonl        project-shared distilled facts
    memory/cw_ledger.jsonl             cognitive-weight deltas (sidecar)
    memory/promotions.jsonl            promotion marks (sidecar)

Entry lines carry exactly: id, timestamp, session_id, agent_id, project,
content, tokens, promoted, cognitive_weight. Fact lines carry exactly: id,
subject, relation, value, session_ids, created_at (provenance is per session;
an older line's ``source_entry_ids`` key is ignored). Files are never
rewritten; cognitive weight and promotion live in the replayed sidecar ledgers.

One streaming reader splits every file on ``\\n`` only; a line that is not
UTF-8 JSON or lacks or mistypes a required field is skipped and counted.
Each write is one append per file; a consolidation pass makes one append to
the fact file and one to the promotion ledger. An append that finds a torn
last line (a crash mid-append) ends it first, so only the fragment is lost.

One store instance serialises its writers through a lock; readers get fresh
value snapshots and never touch the files' contents.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import NotFoundError, StorageError, ValidationError

SYSTEM_PREFIX = "[system]"

# Built once: json.dumps with non-default options builds a new encoder per call.
# Entry and fact lines keep their text as UTF-8; ledger lines are ASCII.
_encode_text = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
_encode_ascii = json.JSONEncoder(separators=(",", ":")).encode

# A loaded field must have its JSON type exactly: a cast would load a wrong
# value, and a bool is not a number.
_NUMBER = (int, float)


def utc_now() -> datetime:
    return datetime.now(timezone.utc)


def parse_timestamp(value: str | datetime) -> datetime:
    """Parse an ISO-8601 instant; naive values are taken as UTC."""
    if isinstance(value, datetime):
        ts = value
    else:
        try:
            ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
        except (ValueError, AttributeError) as exc:
            raise ValidationError(f"malformed timestamp: {value!r}") from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@dataclass
class EpisodicEntry:
    """One append-only memory record.

    ``tokens`` is the whitespace token count of the content, computed at
    construction when not supplied. ``system`` is derived from the content
    prefix and never persisted.
    """

    id: str
    timestamp: datetime
    session_id: str
    agent_id: str
    project: str
    content: str
    tokens: int = -1
    promoted: bool = False
    cognitive_weight: float = 0.0
    system: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.tokens < 0:
            self.tokens = len(self.content.split())
        if not -1.0 <= self.cognitive_weight <= 1.0:
            raise ValidationError(f"cognitive_weight out of range: {self.cognitive_weight}")
        if not isinstance(self.promoted, bool):
            raise ValidationError(f"promoted must be a bool: {self.promoted!r}")
        self.system = self.content.startswith(SYSTEM_PREFIX)

    def to_line(self) -> str:
        record = {
            "id": self.id,
            "timestamp": self.timestamp.isoformat(),
            "session_id": self.session_id,
            "agent_id": self.agent_id,
            "project": self.project,
            "content": self.content,
            "tokens": self.tokens,
            "promoted": self.promoted,
            "cognitive_weight": self.cognitive_weight,
        }
        return _encode_text(record)

    @classmethod
    def from_dict(cls, record: dict) -> "EpisodicEntry":
        entry_id, session_id, agent_id, project, content = (
            record["id"], record["session_id"], record["agent_id"], record["project"],
            record["content"],
        )
        tokens, weight = record["tokens"], record["cognitive_weight"]
        if not (
            type(entry_id) is type(session_id) is type(agent_id) is type(project)
            is type(content) is str
            and type(tokens) is int
            and type(weight) in _NUMBER
        ):
            raise ValidationError(f"mistyped field in entry line {entry_id!r}")
        # Positional, in field order: on this per-line path, keyword
        # arguments cost about a third of the parse.
        return cls(
            entry_id,
            parse_timestamp(record["timestamp"]),
            session_id,
            agent_id,
            project,
            content,
            tokens,
            record["promoted"],
            weight,
        )


@dataclass
class SemanticFact:
    """Distilled subject/relation/value triple linked to its source sessions."""

    id: str
    subject: str
    relation: str
    value: str
    session_ids: frozenset[str]
    created_at: datetime = field(default_factory=utc_now)

    def __post_init__(self) -> None:
        if isinstance(self.session_ids, (str, dict)):  # would load as its characters or keys
            raise ValidationError(f"session_ids must be a collection: {self.session_ids!r}")
        self.session_ids = frozenset(self.session_ids)
        if not self.session_ids or not all(isinstance(s, str) for s in self.session_ids):
            raise ValidationError(f"session_ids must be non-empty strings: {self.session_ids}")

    def search_text(self) -> str:
        return f"{self.subject} {self.relation} {self.value}"

    def to_line(self) -> str:
        record = {
            "id": self.id,
            "subject": self.subject,
            "relation": self.relation,
            "value": self.value,
            "session_ids": sorted(self.session_ids),
            "created_at": self.created_at.isoformat(),
        }
        return _encode_text(record)

    @classmethod
    def from_dict(cls, record: dict) -> "SemanticFact":
        fact_id, subject, relation, value = (
            record["id"], record["subject"], record["relation"], record["value"]
        )
        if not type(fact_id) is type(subject) is type(relation) is type(value) is str:
            raise ValidationError(f"mistyped field in fact line {fact_id!r}")
        return cls(  # positional, in field order, as in EpisodicEntry.from_dict
            fact_id,
            subject,
            relation,
            value,
            record["session_ids"],
            parse_timestamp(record["created_at"]),
        )


@dataclass(frozen=True)
class CwLedgerRecord:
    entry_id: str
    delta: float
    reward: float
    applied_at: datetime

    def to_line(self) -> str:
        return _encode_ascii(
            {
                "entry_id": self.entry_id,
                "delta": self.delta,
                "reward": self.reward,
                "applied_at": self.applied_at.isoformat(),
            }
        )


@dataclass(frozen=True)
class PromotionRecord:
    entry_id: str
    fact_id: str
    promoted_at: datetime

    def to_line(self) -> str:
        return _encode_ascii(
            {
                "entry_id": self.entry_id,
                "fact_id": self.fact_id,
                "promoted_at": self.promoted_at.isoformat(),
            }
        )


@dataclass
class LoadedEntries:
    entries: list[EpisodicEntry]
    skipped: int = 0

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class LoadedFacts:
    facts: list[SemanticFact]
    skipped: int = 0

    def __iter__(self):
        return iter(self.facts)

    def __len__(self) -> int:
        return len(self.facts)


def _clip(value: float) -> float:
    return max(-1.0, min(1.0, value))


# What a bad line raises (JSONDecodeError and UnicodeDecodeError are ValueErrors).
_BAD_LINE = (KeyError, TypeError, ValueError, ValidationError)


def _record_id(record: dict) -> str:
    record_id = record["id"]
    if type(record_id) is not str:
        raise ValidationError(f"mistyped id: {record_id!r}")
    return record_id


def _ledger_entry_id(record: dict) -> str:
    entry_id = record["entry_id"]
    if type(entry_id) is not str:
        raise ValidationError(f"mistyped entry_id: {entry_id!r}")
    return entry_id


def _cw_delta(record: dict) -> tuple[str, float]:
    delta = record["delta"]
    if type(delta) not in _NUMBER:
        raise ValidationError(f"mistyped delta: {delta!r}")
    return _ledger_entry_id(record), delta


class MemoryStore:
    """Filesystem-backed store rooted at a workspace directory.

    Loads return fresh value objects with the cognitive-weight and promotion
    ledgers already applied; replaying a store from disk therefore always
    reproduces the in-memory view exactly.
    """

    def __init__(self, workspace: str | Path):
        self.root = Path(workspace)
        self.memory_dir = self.root / "memory"
        self.episodic_dir = self.memory_dir / "episodic"
        self.facts_path = self.memory_dir / "semantic" / "facts.jsonl"
        self.cw_ledger_path = self.memory_dir / "cw_ledger.jsonl"
        self.promotions_path = self.memory_dir / "promotions.jsonl"
        self._day_paths: dict[str, Path] = {}
        self._lock = threading.Lock()
        self._cw: dict[str, float] | None = None
        self._promoted: set[str] | None = None
        self._entry_ids: set[str] | None = None
        self._fact_ids: set[str] | None = None

    # -- paths ------------------------------------------------------------

    def _day_path(self, timestamp: datetime) -> Path:
        day = timestamp.astimezone(timezone.utc).date().isoformat()
        path = self._day_paths.get(day)
        if path is None:
            path = self._day_paths[day] = self.episodic_dir / f"{day}.jsonl"
        return path

    @staticmethod
    def _append_lines(path: Path, lines: Iterable[str]) -> None:
        """Append ``lines`` in one write, first ending a torn last line. The
        parent directories are made only when the file cannot be opened
        without them."""
        data = "".join(line + "\n" for line in lines).encode("utf-8")
        if not data:
            return
        try:
            try:
                handle = open(path, "a+b")
            except FileNotFoundError:
                path.parent.mkdir(parents=True, exist_ok=True)
                handle = open(path, "a+b")
            with handle:
                if handle.seek(0, os.SEEK_END):
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        data = b"\n" + data
                handle.write(data)
        except OSError as exc:
            raise StorageError(f"cannot append to {path}: {exc}") from exc

    @staticmethod
    def _read_jsonl(paths: Iterable[Path], parse: Callable[[dict], object]) -> tuple[list, int]:
        """``parse`` each non-blank line of ``paths`` in order; return the values
        and the number of skipped lines. A missing file reads as empty."""
        values = []
        skipped = 0
        for path in paths:
            try:
                with path.open("rb") as handle:
                    for line in handle:
                        if not line.strip():
                            continue
                        try:
                            values.append(parse(json.loads(line.decode("utf-8"))))
                        except _BAD_LINE:
                            skipped += 1
            except FileNotFoundError:
                continue
            except OSError as exc:
                raise StorageError(f"cannot read {path}: {exc}") from exc
        return values, skipped

    # -- episodic tier ----------------------------------------------------

    def append_entry(self, entry: EpisodicEntry) -> str:
        return self.append_entries([entry])[0]

    def append_entries(self, entries: Sequence[EpisodicEntry]) -> list[str]:
        """Append entries, one JSONL line each, grouped per UTC-day file.

        An id that is already stored or repeated in the batch raises
        ValidationError before anything is written. Stored means in this
        instance's id view, so an id appended by another process after the
        view was read is not seen.
        """
        for entry in entries:
            if not entry.project:
                raise ValidationError("entry.project must be non-empty")
            if not isinstance(entry.timestamp, datetime):
                raise ValidationError(f"malformed timestamp: {entry.timestamp!r}")
            if entry.cognitive_weight != 0.0:
                raise ValidationError("new entries must start with cognitive_weight 0")
        with self._lock:
            known = self._entry_ids_view()
            ids: set[str] = set()
            by_file: dict[Path, list[str]] = {}
            for entry in entries:
                if entry.id in known or entry.id in ids:
                    raise ValidationError(f"duplicate entry id: {entry.id!r}")
                ids.add(entry.id)
                by_file.setdefault(self._day_path(entry.timestamp), []).append(entry.to_line())
            for path, lines in by_file.items():
                self._append_lines(path, lines)
            known.update(ids)
        return [e.id for e in entries]

    def load_entries(
        self,
        project: str,
        sessions: Iterable[str] | None = None,
        agent_view: str | None = None,
    ) -> LoadedEntries:
        """Load a project's entries with ledgers applied.

        ``agent_view=None`` is the orchestrator view (all agents); passing an
        agent id restricts the result to that agent's own entries. Corrupt
        lines are skipped and counted, never fatal.
        """
        cw = self._cw_view()
        promoted = self._promoted_view()
        session_filter = frozenset(sessions) if sessions is not None else None
        # A cold id cache is filled from this parse, under the writer lock so
        # no append lands between the read and the fill. A skipped line may
        # still carry an id, so the cache is filled only when none was skipped.
        cold = self._entry_ids is None
        with self._lock if cold else contextlib.nullcontext():
            parsed, skipped = self._read_jsonl(self._episodic_paths(), EpisodicEntry.from_dict)
            if not skipped and self._entry_ids is None:
                self._entry_ids = {entry.id for entry in parsed}
        entries = [
            entry
            for entry in parsed
            if entry.project == project
            and (session_filter is None or entry.session_id in session_filter)
            and (agent_view is None or entry.agent_id == agent_view)
        ]
        for entry in entries:
            entry.cognitive_weight = cw.get(entry.id, entry.cognitive_weight)
            entry.promoted = entry.promoted or entry.id in promoted
        return LoadedEntries(entries=entries, skipped=skipped)

    def _episodic_paths(self) -> list[Path]:
        return sorted(self.episodic_dir.glob("*.jsonl"))

    # -- semantic tier ----------------------------------------------------

    def append_fact(self, fact: SemanticFact) -> str:
        self.append_facts([fact])
        return fact.id

    def append_facts(self, facts: Iterable[SemanticFact]) -> int:
        """Append project-shared facts in one write; return how many were new.
        A fact whose id is stored or earlier in the batch is an idempotent no-op."""
        with self._lock:
            known = self._fact_ids_view()
            fresh: dict[str, SemanticFact] = {}
            for fact in facts:
                if fact.id not in known:
                    fresh.setdefault(fact.id, fact)
            self._append_lines(self.facts_path, [f.to_line() for f in fresh.values()])
            known.update(fresh)
        return len(fresh)

    def load_facts(self) -> LoadedFacts:
        facts, skipped = self._read_jsonl([self.facts_path], SemanticFact.from_dict)
        return LoadedFacts(facts=facts, skipped=skipped)

    # -- sidecar ledgers ----------------------------------------------------

    def apply_cw_delta(self, entry_id: str, delta: float, reward: float) -> float:
        """Clip-update one entry's cognitive weight via the append-only ledger."""
        with self._lock:
            if entry_id not in self._entry_ids_view():
                raise NotFoundError(f"unknown entry_id: {entry_id!r}")
            cw = self._cw_view()
            new_value = _clip(cw.get(entry_id, 0.0) + delta)
            record = CwLedgerRecord(
                entry_id=entry_id, delta=delta, reward=reward, applied_at=utc_now()
            )
            self._append_lines(self.cw_ledger_path, [record.to_line()])
            cw[entry_id] = new_value
        return new_value

    def promote(self, entry_id: str, fact_id: str) -> None:
        self.promote_many([(entry_id, fact_id)])

    def promote_many(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Mark entries promoted with one append to the promotions ledger. An
        unknown entry id raises ``NotFoundError`` before anything is written."""
        pairs = list(pairs)
        with self._lock:
            known = self._entry_ids_view()
            for entry_id, _ in pairs:
                if entry_id not in known:
                    raise NotFoundError(f"unknown entry_id: {entry_id!r}")
            now = utc_now()
            self._append_lines(
                self.promotions_path,
                [PromotionRecord(entry_id, fact_id, now).to_line() for entry_id, fact_id in pairs],
            )
            self._promoted_view().update(entry_id for entry_id, _ in pairs)

    def promoted_entry_ids(self) -> set[str]:
        return set(self._promoted_view())

    # -- ledger replay ------------------------------------------------------

    def _cw_view(self) -> dict[str, float]:
        if self._cw is None:
            cw: dict[str, float] = {}
            for entry_id, delta in self._read_jsonl([self.cw_ledger_path], _cw_delta)[0]:
                cw[entry_id] = _clip(cw.get(entry_id, 0.0) + delta)
            self._cw = cw
        return self._cw

    def _promoted_view(self) -> set[str]:
        if self._promoted is None:
            self._promoted = set(self._read_jsonl([self.promotions_path], _ledger_entry_id)[0])
        return self._promoted

    def _entry_ids_view(self) -> set[str]:
        if self._entry_ids is None:
            self._entry_ids = set(self._read_jsonl(self._episodic_paths(), _record_id)[0])
        return self._entry_ids

    def _fact_ids_view(self) -> set[str]:
        if self._fact_ids is None:
            self._fact_ids = set(self._read_jsonl([self.facts_path], _record_id)[0])
        return self._fact_ids
