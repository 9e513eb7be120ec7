"""Append-only JSONL persistence for the episodic and semantic memory tiers.

Layout under the workspace root:

    memory/episodic/log.jsonl       one line per entry, in append order
    memory/semantic/facts.jsonl     project-shared distilled facts
    memory/cw_ledger.jsonl          cognitive-weight deltas (sidecar)
    memory/promotions.jsonl         promotion marks (sidecar)

Older versions wrote one ``memory/episodic/YYYY-MM-DD.jsonl`` per UTC day.
Such day files are read, before the log, but never written.

Entry lines carry exactly: id, timestamp, session_id, agent_id, project,
content, tokens, promoted, cognitive_weight. Fact lines carry exactly: id,
subject, relation, value, session_ids, created_at (provenance is per session;
an older line's ``source_entry_ids`` key is ignored). Files are never
rewritten; cognitive weight and promotion live in the replayed sidecar ledgers.

One streaming reader splits every file on ``\\n`` only; a line that is not
UTF-8 JSON or lacks or mistypes a required field is skipped and counted.
Each write is one append per file; a consolidation pass makes one append to
the fact file and one to the promotion ledger. A promotion line lists every
entry id of one ``promote_many`` call (``entry_ids``, ``promoted_at``); an
older line names one entry (``entry_id``, ``fact_id``, ``promoted_at``) and
replays the same way. A cognitive-weight line holds every delta of one
``apply_cw_deltas`` call (``deltas``, ``reward``, ``applied_at``); an older
line holds one (``entry_id``, ``delta``, ``reward``, ``applied_at``). A torn
line parses as no line, so one call's promotions or deltas replay all or
none. An append that finds a torn last line (a crash mid-append) ends it
first, so only the fragment is lost.

A store instance keeps one view per file: the file's inode, the byte offset
after the last complete line it parsed, and what those lines hold (entries
or facts with the id of every line, folded cognitive weights, promoted ids).
An instance parses each line once: an id check keeps the parsed line, and
the first load builds its record from it. Every load and every id check
stats the files first. Bytes another writer appended are parsed from the
view's offset on that next use, a file that shrank or was replaced is
parsed again from its start, and an unterminated last line is parsed on
every use and never kept. Own appends extend the views with the very
objects written; a timestamp whose tzinfo is not ``timezone.utc`` is kept
normalised to UTC, as its line parses. A file cut and regrown past the
view's offset is not noticed unless the byte before the offset is no longer
a newline: files are append-only. The first line of an id wins: a load
skips and counts in ``skipped`` each later line with that id.

Entries and facts are immutable values, checked once at construction, so a
record that exists writes a line that its parse accepts. Loads hand out the
views' own objects: an entry gets one new object only where a ledger changed
its promotion or cognitive weight. One store instance serialises its readers
and writers through a lock.
"""

from __future__ import annotations

import copy
import json
import os
import threading
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring, encode_basestring_ascii
from pathlib import Path

from .errors import NotFoundError, StorageError, ValidationError, is_finite_number

SYSTEM_PREFIX = "[system]"

# For ledger field values of unusual types: json.dumps with non-default
# options builds a new encoder per call. Ledger lines are ASCII.
_encode_ascii = json.JSONEncoder(separators=(",", ":")).encode

# A record field must have its JSON type exactly: a cast would load a wrong
# value, and a bool is not a number.
_NUMBER = (int, float)

# SemanticFact's default created_at: the time of construction.
_NOW: datetime = object()  # type: ignore[assignment]

_APPEND_FLAGS = os.O_RDWR | os.O_APPEND | os.O_CREAT


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
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError as exc:  # e.g. 0001-01-01T00:00:00+05:00
        raise ValidationError(f"timestamp out of range in UTC: {value!r}") from exc


def _as_written(ts: datetime) -> datetime:
    """``ts`` as a parse of its written form returns it: in UTC. Raises
    ValidationError if ``ts`` is no datetime or that form does not parse."""
    if not isinstance(ts, datetime):
        raise ValidationError(f"malformed timestamp: {ts!r}")
    return ts if ts.tzinfo is timezone.utc else parse_timestamp(ts.isoformat())


def _require_utf8(*texts: str) -> None:
    """Raise ValidationError for a text that UTF-8 cannot encode: one that
    holds a lone surrogate, which no line can carry."""
    for text in texts:
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"text is not UTF-8 encodable: {text!r}") from None


def _encode(lines: Iterable[str]) -> bytes:
    """``lines`` as the bytes of a JSONL append, one ``\n`` after each."""
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _json(value) -> str:
    """``value`` as ``json.dumps(value, separators=(",", ":"))`` writes it; the
    common field types skip building an encoder."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float and value - value == 0.0:  # finite
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    return _encode_ascii(value)


def _fact_line(fact: "SemanticFact", created_at: str) -> str:
    # Construction made every text field a str: each is encoded directly,
    # kept as UTF-8 (ensure_ascii=False).
    text = encode_basestring
    id, subject, relation, value, session_ids, _ = fact
    session_ids = ",".join(map(text, sorted(session_ids)))
    return (
        f'{{"id":{text(id)},"subject":{text(subject)},'
        f'"relation":{text(relation)},"value":{text(value)},'
        f'"session_ids":[{session_ids}],"created_at":"{created_at}"}}'
    )


def _promotion_line(entry_ids: Iterable[str], promoted_at: str) -> str:
    return (
        f'{{"entry_ids":[{",".join(map(_json, entry_ids))}],'
        f'"promoted_at":"{promoted_at}"}}'
    )


class EpisodicEntry(namedtuple(
    "_EntryFields",
    "id timestamp session_id agent_id project content tokens promoted cognitive_weight",
)):
    """One append-only memory record: an immutable value, checked once here.

    Construction accepts exactly what a parse of the record's line accepts:
    every text field a ``str`` that UTF-8 can encode (no lone surrogate),
    ``timestamp`` a datetime, ``tokens`` an ``int``, ``promoted`` a bool and
    ``cognitive_weight`` an int or float in [-1, 1]; a bool is never a
    number. Only text that is not ASCII can hold a surrogate, so ASCII text
    skips the encoding check. ``tokens`` is the whitespace token count of
    the content when negative or not supplied. ``system`` is derived
    from the content prefix and never persisted. ``_make`` and ``_replace``
    skip the checks; the store uses them only on values already checked.
    """

    __slots__ = ()

    def __new__(cls, id: str, timestamp: datetime, session_id: str, agent_id: str,
                project: str, content: str, tokens: int = -1, promoted: bool = False,
                cognitive_weight: float = 0.0) -> "EpisodicEntry":
        if not (
            type(id) is type(session_id) is type(agent_id) is type(project) is type(content)
            is str
            and type(tokens) is int
            and type(promoted) is bool
            and type(cognitive_weight) in _NUMBER
            and isinstance(timestamp, datetime)
        ):
            raise ValidationError(f"mistyped field in entry {id!r}")
        if not -1.0 <= cognitive_weight <= 1.0:
            raise ValidationError(f"cognitive_weight out of range: {cognitive_weight!r}")
        if not (
            content.isascii() and id.isascii() and session_id.isascii() and agent_id.isascii()
            and project.isascii()
        ):
            _require_utf8(id, session_id, agent_id, project, content)
        if timestamp.tzinfo is not timezone.utc:
            _as_written(timestamp)
        if tokens < 0:
            tokens = len(content.split())
        return tuple.__new__(cls, (id, timestamp, session_id, agent_id, project, content,
                                   tokens, promoted, cognitive_weight))

    @property
    def system(self) -> bool:
        return self.content.startswith(SYSTEM_PREFIX)

    def to_line(self) -> str:
        # Construction fixed each field's type, so each is encoded directly:
        # text as UTF-8 (ensure_ascii=False), and a finite int or float's
        # repr is its JSON.
        text = encode_basestring
        id, timestamp, session_id, agent_id, project, content, tokens, promoted, weight = self
        return (
            f'{{"id":{text(id)},"timestamp":"{timestamp.isoformat()}",'
            f'"session_id":{text(session_id)},"agent_id":{text(agent_id)},'
            f'"project":{text(project)},"content":{text(content)},'
            f'"tokens":{tokens!r},"promoted":{"true" if promoted else "false"},'
            f'"cognitive_weight":{weight!r}}}'
        )

    @classmethod
    def from_dict(cls, record: dict) -> "EpisodicEntry":
        # Positional, in field order: on this per-line path, keyword
        # arguments cost about a third of the parse.
        return cls(
            record["id"], parse_timestamp(record["timestamp"]), record["session_id"],
            record["agent_id"], record["project"], record["content"], record["tokens"],
            record["promoted"], record["cognitive_weight"],
        )


class SemanticFact(namedtuple(
    "_FactFields", "id subject relation value session_ids created_at"
)):
    """Distilled subject/relation/value triple linked to its source sessions.

    An immutable value, checked once here as ``EpisodicEntry`` is: the text
    fields are ``str`` that UTF-8 can encode, ``session_ids`` a non-empty
    collection of such ``str`` (kept as a frozenset) and ``created_at`` a
    datetime, the current time when not supplied.
    """

    __slots__ = ()

    def __new__(cls, id: str, subject: str, relation: str, value: str,
                session_ids: Iterable[str], created_at: datetime = _NOW) -> "SemanticFact":
        if not type(id) is type(subject) is type(relation) is type(value) is str:
            raise ValidationError(f"mistyped field in fact {id!r}")
        try:
            if isinstance(session_ids, (str, dict)):  # would load as its characters or keys
                raise TypeError
            session_ids = frozenset(session_ids)
        except TypeError as exc:
            raise ValidationError(f"session_ids must be a collection: {session_ids!r}") from exc
        # One pass checks each session id's type and takes the ASCII fast path.
        if not session_ids or not all(type(s) is str and s.isascii() for s in session_ids):
            if not session_ids or any(type(s) is not str for s in session_ids):
                raise ValidationError(f"session_ids must be non-empty strings: {session_ids!r}")
            _require_utf8(*session_ids)
        if not (subject.isascii() and relation.isascii() and value.isascii() and id.isascii()):
            _require_utf8(id, subject, relation, value)
        if created_at is _NOW:
            created_at = utc_now()
        _as_written(created_at)
        return tuple.__new__(cls, (id, subject, relation, value, session_ids, created_at))

    def search_text(self) -> str:
        return f"{self.subject} {self.relation} {self.value}"

    def to_line(self) -> str:
        return _fact_line(self, self.created_at.isoformat())

    @classmethod
    def from_dict(cls, record: dict) -> "SemanticFact":
        return cls(  # positional, in field order, as in EpisodicEntry.from_dict
            record["id"], record["subject"], record["relation"], record["value"],
            record["session_ids"], parse_timestamp(record["created_at"]),
        )


@dataclass(frozen=True)
class CwLedgerRecord:
    """One ``apply_cw_deltas`` call: its (entry id, delta) pairs in order."""

    deltas: tuple[tuple[str, float], ...]
    reward: float
    applied_at: datetime

    def to_line(self) -> str:
        deltas = ",".join(f"[{_json(i)},{_json(d)}]" for i, d in self.deltas)
        return (
            f'{{"deltas":[{deltas}],"reward":{_json(self.reward)},'
            f'"applied_at":"{self.applied_at.isoformat()}"}}'
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


def _str_field(record: dict, key: str) -> str:
    value = record[key]
    if type(value) is not str:
        raise ValidationError(f"mistyped {key}: {value!r}")
    return value


def _promoted_ids(record: dict) -> Sequence[str]:
    """The entry ids one promotion line names: all of a line's ``entry_ids``,
    or none when that is not a list of strings; an older line names one, its
    ``entry_id``."""
    if "entry_ids" not in record:
        return (_str_field(record, "entry_id"),)
    entry_ids = record["entry_ids"]
    if type(entry_ids) is not list or not all(type(i) is str for i in entry_ids):
        raise ValidationError(f"mistyped entry_ids: {entry_ids!r}")
    return entry_ids


def _cw_deltas(record: dict) -> Sequence[tuple[str, float]]:
    """The (entry id, delta) pairs one cognitive-weight line holds: all of a
    line's ``deltas``, or none when one pair is malformed; an older line
    holds one, its ``entry_id`` and ``delta``. A delta must be a finite
    number: json.loads reads NaN and Infinity as floats."""
    if "deltas" not in record:
        delta = record["delta"]
        if not is_finite_number(delta):
            raise ValidationError(f"mistyped delta: {delta!r}")
        return ((_str_field(record, "entry_id"), delta),)
    deltas = record["deltas"]
    if type(deltas) is not list or not all(
        type(pair) is list and len(pair) == 2 and type(pair[0]) is str
        and is_finite_number(pair[1])
        for pair in deltas
    ):
        raise ValidationError(f"mistyped deltas: {deltas!r}")
    return deltas


class _View:
    """What the complete lines of one JSONL file hold, up to byte ``offset``.

    ``inode`` tells a replaced file from a grown one. ``add`` folds one line
    into the view's ``state`` and counts it in ``skipped`` if it cannot;
    ``extend`` folds values equal to what a parse of lines returns. Callers
    hold the store's lock.
    """

    def __init__(self, path: Path, parse: Callable[[dict], object]):
        self.path = path
        self.parse = parse
        self.reset()

    def reset(self, inode: int | None = None) -> None:
        self.inode = inode
        self.offset = 0
        self.skipped = 0
        self.clear()

    def add(self, line: bytes) -> None:
        try:
            value = self.parse(json.loads(line.decode("utf-8")))
        except _BAD_LINE:
            self.skipped += 1
        else:
            self.extend((value,))

    def sync(self) -> bytes:
        """Parse the lines appended since ``offset``, up to the last ``\\n``,
        after parsing the file again from its start if it shrank, was replaced
        or no longer has a newline before ``offset``. Return the bytes after
        the last ``\\n``, which the view never keeps."""
        try:
            stat = os.stat(self.path)
            if stat.st_ino == self.inode and stat.st_size == self.offset:
                return b""
            with open(self.path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                if (
                    stat.st_ino != self.inode
                    or stat.st_size < self.offset
                    or (self.offset and os.pread(handle.fileno(), 1, self.offset - 1) != b"\n")
                ):
                    self.reset(stat.st_ino)
                offset = handle.seek(self.offset)
                for line in handle:
                    if line[-1:] != b"\n":
                        self.offset = offset
                        return line
                    offset += len(line)
                    if line.strip():
                        self.add(line)
                self.offset = offset
                return b""
        except FileNotFoundError:
            self.reset()
            return b""
        except OSError as exc:
            raise StorageError(f"cannot read {self.path}: {exc}") from exc

    def read(self) -> "_View":
        """The view synced, with the file's unterminated last line added."""
        return self.with_tail(self.sync())

    def with_tail(self, tail: bytes) -> "_View":
        """This view with the unterminated ``tail`` line added, leaving the
        view itself as it was."""
        if not tail.strip():
            return self
        view = self._detached()
        view.add(tail)
        return view

    def _detached(self) -> "_View":
        view = copy.copy(self)
        view.state = self.state.copy()
        return view


class _RecordView(_View):
    """Entries or facts in file order, and the id of every line whose ``id``
    parses, also if the full parse fails, counted in ``seen`` with the ids of
    every view sharing it. ``pending`` keeps parsed lines for ``records()``."""

    def __init__(self, path: Path, parse: Callable[[dict], object], seen: dict[str, int]):
        self.seen = seen
        self.ids: list[str] = []
        super().__init__(path, parse)

    def clear(self) -> None:
        seen = self.seen
        for record_id in self.ids:
            seen[record_id] -= 1
            if not seen[record_id]:
                del seen[record_id]
        self.ids = []
        self.values: list = []
        self.pending: list = []  # after ``values`` in file order: dicts and own appends

    def add(self, line: bytes) -> None:
        try:
            record = json.loads(line.decode("utf-8"))
            record_id = _str_field(record, "id")
        except _BAD_LINE:
            self.skipped += 1
            return
        self.ids.append(record_id)
        self.seen[record_id] = self.seen.get(record_id, 0) + 1
        self.pending.append(record)

    def extend(self, values: Sequence) -> None:
        seen = self.seen
        for value in values:
            self.ids.append(value.id)
            seen[value.id] = seen.get(value.id, 0) + 1
        (self.pending or self.values).extend(values)

    def records(self) -> list:
        """``values``, the pending lines built first; a failed build counts in ``skipped``."""
        for record in self.pending:
            try:
                self.values.append(self.parse(record) if type(record) is dict else record)
            except _BAD_LINE:
                self.skipped += 1
        self.pending = []
        return self.values

    def tail_ids(self, tail: bytes) -> list[str]:
        """The id of the unterminated ``tail`` line, if it parses; a torn tail builds records."""
        return self.with_tail(tail).ids[len(self.ids):]

    def _detached(self) -> "_RecordView":
        values = list(self.records())
        view = copy.copy(self)
        view.ids, view.values, view.pending, view.seen = list(self.ids), values, [], {}
        return view


def _first_by_id(views: Sequence[_RecordView], seen: dict[str, int]) -> tuple[list, int]:
    """The records of ``views`` in order, less each whose id an earlier one
    has, and how many lines were skipped. ``seen`` counts the ids of complete
    lines: if it holds as many as ``views``, no id repeats and no tail is read."""
    records = [record for view in views for record in view.records()]
    skipped = sum(view.skipped for view in views)
    if len(seen) == sum(len(view.ids) for view in views):
        return records, skipped
    first: dict = {}
    for record in records:
        first.setdefault(record.id, record)
    return list(first.values()), skipped + len(records) - len(first)


class _WeightView(_View):
    """Cognitive weight per entry id: the ledger's deltas clipped in file
    order, folded one line's deltas at a time."""

    def clear(self) -> None:
        self.state: dict[str, float] = {}

    def extend(self, groups: Iterable[Iterable[tuple[str, float]]]) -> None:
        weights = self.state
        for deltas in groups:
            for entry_id, delta in deltas:
                weights[entry_id] = _clip(weights.get(entry_id, 0.0) + delta)


class _PromotedView(_View):
    """The entry ids that promotion lines name, folded one line's ids at a time."""

    def clear(self) -> None:
        self.state: set[str] = set()

    def extend(self, groups: Iterable[Iterable[str]]) -> None:
        for entry_ids in groups:
            self.state.update(entry_ids)


class MemoryStore:
    """Filesystem-backed store rooted at a workspace directory.

    Loads return the views' immutable records with the cognitive-weight and
    promotion ledgers already applied, equal to what a new instance would load;
    another writer's appends are seen from the next load or write on.
    """

    def __init__(self, workspace: str | Path):
        self.root = Path(workspace)
        self.memory_dir = self.root / "memory"
        self.episodic_dir = self.memory_dir / "episodic"
        # Sorts after every legacy YYYY-MM-DD.jsonl day file: loads after them.
        self.episodic_log_path = self.episodic_dir / "log.jsonl"
        self.facts_path = self.memory_dir / "semantic" / "facts.jsonl"
        self.cw_ledger_path = self.memory_dir / "cw_ledger.jsonl"
        self.promotions_path = self.memory_dir / "promotions.jsonl"
        self._lock = threading.Lock()
        # Episodic file views by file name; they count their ids in one table.
        self._entry_ids: dict[str, int] = {}
        self._episodic_views: dict[str, _RecordView] = {}
        self._facts = _RecordView(self.facts_path, SemanticFact.from_dict, {})
        self._weights = _WeightView(self.cw_ledger_path, _cw_deltas)
        self._promoted = _PromotedView(self.promotions_path, _promoted_ids)

    # -- files ------------------------------------------------------------

    def _episodic_view(self, name: str) -> _RecordView:
        view = self._episodic_views.get(name)
        if view is None:
            view = self._episodic_views[name] = _RecordView(
                self.episodic_dir / name, EpisodicEntry.from_dict, self._entry_ids
            )
        return view

    def _sync_episodic_views(self) -> list[tuple[_RecordView, bytes]]:
        """Sync the view of every episodic file, in file-name order (day files,
        then the log), and return each with its file's unterminated tail. The
        views of files that are gone are dropped."""
        try:
            names = sorted(n for n in os.listdir(self.episodic_dir) if n.endswith(".jsonl"))
        except FileNotFoundError:
            names = []
        except OSError as exc:
            raise StorageError(f"cannot list {self.episodic_dir}: {exc}") from exc
        listed = set(names)
        for name in [n for n in self._episodic_views if n not in listed]:
            self._episodic_views.pop(name).reset()
        return [(view, view.sync()) for view in map(self._episodic_view, names)]

    def _known_entry_ids(self):
        """Every episodic line's id, the episodic views synced first."""
        tail_ids = [i for view, tail in self._sync_episodic_views() for i in view.tail_ids(tail)]
        return self._entry_ids.keys() | tail_ids if tail_ids else self._entry_ids

    def _require_entries(self, entry_ids: Iterable[str]) -> None:
        """Raise NotFoundError for an id that no episodic line carries. The
        episodic views are synced only when an id misses the ids they hold."""
        missing = [i for i in entry_ids if i not in self._entry_ids]
        if missing:
            known = self._known_entry_ids()
            for entry_id in missing:
                if entry_id not in known:
                    raise NotFoundError(f"unknown entry_id: {entry_id!r}")

    def _append(self, view: _View, data: bytes, values: Sequence) -> None:
        """Append the lines ``data`` (see ``_encode``) to ``view``'s file.
        When the write began at the view's offset, or the file was empty,
        fold ``values`` (equal to what a parse of the lines returns) into the
        view; otherwise its next sync parses them."""
        written = self._append_lines(view.path, data)
        if written is None:
            return
        inode, start, stop = written
        if start == 0:
            view.reset(inode)
        elif start != view.offset or inode != view.inode:
            return
        view.extend(values)
        view.offset = stop

    @staticmethod
    def _append_lines(path: Path, data: bytes) -> tuple[int, int, int] | None:
        """Append ``data`` in one write, first ending a torn last line, and
        return the file's inode and the byte range the lines took (None if
        there were none). The parent directories are made only when the file
        cannot be opened without them."""
        if not data:
            return None
        try:
            try:
                fd = os.open(path, _APPEND_FLAGS, 0o666)
            except FileNotFoundError:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, _APPEND_FLAGS, 0o666)
            try:
                end = os.lseek(fd, 0, os.SEEK_END)
                pending = memoryview(
                    b"\n" + data if end and os.pread(fd, 1, end - 1) != b"\n" else data
                )
                while pending:
                    pending = pending[os.write(fd, pending):]
                # O_APPEND leaves the offset at the end of this write, even if
                # another writer has appended since.
                stop = os.lseek(fd, 0, os.SEEK_CUR)
                return os.fstat(fd).st_ino, stop - len(data), stop
            finally:
                os.close(fd)
        except OSError as exc:
            raise StorageError(f"cannot append to {path}: {exc}") from exc

    @staticmethod
    def _read_jsonl(paths: Iterable[Path], parse: Callable[[dict], object]) -> tuple[list, int]:
        """``parse`` each non-blank line of ``paths`` in order; return the values
        and the number of skipped lines. A missing file reads as empty. This
        is the from-scratch reading that the views must equal."""
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
        """Append entries, one JSONL line each in call order, to the episodic
        log in one write; legacy day files are never written.

        An id that is already stored or repeated in the batch raises
        ValidationError before anything is written. Stored means on a line
        of an episodic file when this call syncs the episodic views, so an id
        that another writer appended before is seen.
        """
        for entry in entries:
            if not entry.project:
                raise ValidationError("entry.project must be non-empty")
            if entry.cognitive_weight != 0.0:
                raise ValidationError("new entries must start with cognitive_weight 0")
        with self._lock:
            known = self._known_entry_ids()
            ids: set[str] = set()
            batch, lines = [], []
            for entry in entries:
                if entry.id in known or entry.id in ids:
                    raise ValidationError(f"duplicate entry id: {entry.id!r}")
                ids.add(entry.id)
                lines.append(entry.to_line())
                if entry.timestamp.tzinfo is not timezone.utc:  # kept as the line parses
                    entry = entry._replace(timestamp=_as_written(entry.timestamp))
                batch.append(entry)
            self._append(self._episodic_view(self.episodic_log_path.name), _encode(lines), batch)
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
        lines and later lines of an id (of any project) are skipped and
        counted, never fatal. ``sessions`` is a collection of session ids; a
        ``str`` raises ValidationError, as it would be taken as its characters.
        """
        if isinstance(sessions, str):
            raise ValidationError(f"sessions must be a collection of ids, not a str: {sessions!r}")
        session_filter = frozenset(sessions) if sessions is not None else None
        entries = []
        with self._lock:
            weights = self._weights.read().state
            promoted = self._promoted.read().state
            views = [view.with_tail(tail) for view, tail in self._sync_episodic_views()]
            records, skipped = _first_by_id(views, self._entry_ids)
            for entry in records:
                if (
                    entry.project == project
                    and (session_filter is None or entry.session_id in session_filter)
                    and (agent_view is None or entry.agent_id == agent_view)
                ):
                    entry_id = entry.id
                    if entry_id in weights or (entry_id in promoted and not entry.promoted):
                        # The ledgers' values are valid: no check is re-run.
                        entry = EpisodicEntry._make((
                            *entry[:7],
                            entry.promoted or entry_id in promoted,
                            weights.get(entry_id, entry.cognitive_weight),
                        ))
                    entries.append(entry)
        return LoadedEntries(entries=entries, skipped=skipped)

    # -- semantic tier ----------------------------------------------------

    def append_fact(self, fact: SemanticFact) -> str:
        self.append_facts([fact])
        return fact.id

    def append_facts(self, facts: Iterable[SemanticFact]) -> int:
        """Append project-shared facts in one write; return how many were new.
        A fact whose id is stored or earlier in the batch is an idempotent no-op."""
        with self._lock:
            view = self._facts
            tail_ids = view.tail_ids(view.sync())
            known = view.seen.keys() | tail_ids if tail_ids else view.seen
            fresh: dict[str, SemanticFact] = {}
            for fact in facts:
                if fact.id not in known:
                    fresh.setdefault(fact.id, fact)
            # A pass gives all its facts one created_at: format it once.
            lines, values, last, stamp = [], [], None, ""
            for fact in fresh.values():
                created_at = fact.created_at
                if created_at is not last:
                    last, stamp = created_at, created_at.isoformat()
                lines.append(_fact_line(fact, stamp))
                if created_at.tzinfo is not timezone.utc:  # kept as the line parses
                    fact = fact._replace(created_at=_as_written(created_at))
                values.append(fact)
            self._append(view, _encode(lines), values)
        return len(fresh)

    def load_facts(self) -> LoadedFacts:
        with self._lock:
            facts, skipped = _first_by_id([self._facts.read()], self._facts.seen)
        return LoadedFacts(facts=facts, skipped=skipped)

    # -- sidecar ledgers ----------------------------------------------------

    def apply_cw_delta(self, entry_id: str, delta: float, reward: float) -> float:
        """Clip-update one entry's cognitive weight via the append-only ledger."""
        return self.apply_cw_deltas([(entry_id, delta)], reward)[0]

    def apply_cw_deltas(self, pairs: Iterable[tuple[str, float]], reward: float) -> list[float]:
        """Clip-update the weight of each (entry_id, delta) in order, with one
        ledger line, ``{"deltas": [[entry_id, delta], ...], "reward": ...,
        "applied_at": ...}``; return each entry's new weight in order. No
        pairs write nothing. A torn line parses as no line, so a crash
        mid-append applies all of the deltas or none. An unknown entry id, or
        a delta or reward that is not a finite number, raises before anything
        is written."""
        pairs = tuple(pairs)
        for _, delta in pairs:
            if not is_finite_number(delta):
                raise ValidationError(f"delta must be a finite number: {delta!r}")
        if not is_finite_number(reward):
            raise ValidationError(f"reward must be a finite number: {reward!r}")
        with self._lock:
            self._require_entries(entry_id for entry_id, _ in pairs)
            weights = self._weights.read().state
            folded: dict[str, float] = {}
            new_values = []
            for entry_id, delta in pairs:
                value = _clip(folded.get(entry_id, weights.get(entry_id, 0.0)) + delta)
                folded[entry_id] = value
                new_values.append(value)
            if pairs:
                line = CwLedgerRecord(pairs, reward, utc_now()).to_line()
                self._append(self._weights, _encode([line]), [pairs])
        return new_values

    def promote(self, entry_id: str) -> None:
        self.promote_many([entry_id])

    def promote_many(self, entry_ids: Iterable[str]) -> None:
        """Mark entries promoted with one line, ``{"entry_ids": [...],
        "promoted_at": ...}``, appended to the promotions ledger; no ids write
        nothing. A torn line parses as no line, so a crash mid-append promotes
        all of the ids or none. An unknown entry id raises ``NotFoundError``
        before anything is written."""
        entry_ids = list(entry_ids)
        if not entry_ids:
            return
        with self._lock:
            self._require_entries(entry_ids)
            line = _promotion_line(entry_ids, utc_now().isoformat())
            self._append(self._promoted, _encode([line]), [entry_ids])

    def promoted_entry_ids(self) -> set[str]:
        with self._lock:
            return set(self._promoted.read().state)
