from __future__ import annotations

from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from agentmem import consolidation
from agentmem import store as store_module
from agentmem.store import EpisodicEntry, MemoryStore, SemanticFact

DATA_DIR = Path(__file__).parent / "data"
SYNTHETIC20 = DATA_DIR / "synthetic20.jsonl"

BASE_TS = datetime(2025, 3, 1, 12, 0, tzinfo=timezone.utc)


def make_entry(
    entry_id: str = "e1",
    content: str = "hello world",
    session_id: str = "s1",
    agent_id: str = "agent-a",
    project: str = "proj",
    days_ago: float = 0.0,
    **kwargs,
) -> EpisodicEntry:
    return EpisodicEntry(
        id=entry_id,
        timestamp=BASE_TS - timedelta(days=days_ago),
        session_id=session_id,
        agent_id=agent_id,
        project=project,
        content=content,
        **kwargs,
    )


def make_fact(
    fact_id: str = "f1",
    subject: str = "alice",
    relation: str = "is_a",
    value: str = "engineer",
    session_ids=("s1",),
) -> SemanticFact:
    return SemanticFact(
        id=fact_id,
        subject=subject,
        relation=relation,
        value=value,
        session_ids=frozenset(session_ids),
        created_at=BASE_TS,
    )


@pytest.fixture
def frozen_clock(monkeypatch) -> datetime:
    """Pin the store's clock, and consolidation's import of it, to BASE_TS, so
    ledger lines and fact times are the same on every run."""
    monkeypatch.setattr(store_module, "utc_now", lambda: BASE_TS)
    monkeypatch.setattr(consolidation, "utc_now", lambda: BASE_TS)
    return BASE_TS


@pytest.fixture
def store(tmp_path) -> MemoryStore:
    return MemoryStore(tmp_path / "ws")


@pytest.fixture
def fifty_three_session_store(tmp_path) -> MemoryStore:
    """53 sessions of filler entries; query-matching facts live in 3 sessions."""
    st = MemoryStore(tmp_path / "ws53")
    entries = []
    for i in range(53):
        sid = f"s{i:02d}"
        entries.append(
            make_entry(
                entry_id=f"{sid}-0",
                content=f"filler note number {i} about weather and lunch",
                session_id=sid,
                days_ago=float(i % 7),
            )
        )
        entries.append(
            make_entry(
                entry_id=f"{sid}-1",
                content=f"more filler chatter {i} regarding errands",
                session_id=sid,
                days_ago=float(i % 7),
            )
        )
    st.append_entries(entries)
    hot = ["s07", "s21", "s33"]
    for j, sid in enumerate(hot):
        st.append_fact(
            make_fact(
                fact_id=f"fact-{sid}",
                subject="quarterly report",
                relation="kv",
                value=f"deadline milestone {j}",
                session_ids=(sid,),
            )
        )
    # Entries the facts point at, mentioning the query terms.
    st.append_entries(
        [
            make_entry(
                entry_id=f"{sid}-hot",
                content=f"user: the quarterly report deadline for {sid} is friday",
                session_id=sid,
                days_ago=1.0,
            )
            for sid in hot
        ]
    )
    return st
