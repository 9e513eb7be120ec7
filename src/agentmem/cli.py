"""Command-line entry point wiring the store, retrieval, consolidation,
attribution, training, and evaluation together.

Output is line-delimited JSON unless --pretty is given. Exit codes:
0 success, 2 usage, 3 data/validation, 4 external-service failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import uuid
from dataclasses import replace
from pathlib import Path

from . import attribution as attribution_mod
from . import evaluation, learning
from .clients import HttpEmbedder, HttpExtractor, HttpReader
from .config import RETRIEVAL_ALIASES, EngineConfig, TrainConfig, load
from .consolidation import HeuristicExtractor, run_consolidation_pass
from .errors import AgentMemError, ServiceError, ValidationError
from .retrieval import (
    MODE_BM25,
    MODES,
    HashedBowEmbedder,
    RetrievalConfig,
    RetrievalPipeline,
    parse_stage1_k1,
)
from .scoring import Variant
from .store import EpisodicEntry, MemoryStore, parse_timestamp, utc_now

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SERVICE = 4


def _emit(args, record: dict) -> None:
    print(json.dumps(record, indent=2 if args.pretty else None, ensure_ascii=False, default=str))


def _load_config(args) -> EngineConfig:
    cfg = EngineConfig.from_file(args.config) if args.config else EngineConfig()
    if getattr(args, "workspace", None):
        cfg.workspace = Path(args.workspace)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _flags(args, names) -> dict:
    """The flags among ``names`` that were given, by name."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _retrieval_cfg(cfg: EngineConfig, args) -> None:
    """Fold the retrieval and ranking-mode flags into the config in place."""
    flags = _flags(args, ("k", "k1", "budget", "variant", "ranking"))
    overrides = {RETRIEVAL_ALIASES.get(name, name): value for name, value in flags.items()}
    cfg.retrieval = load(RetrievalConfig, overrides, cfg.retrieval)


def _reader(cfg: EngineConfig, name: str):
    if name == "oracle":
        return evaluation.OracleReader()
    if name == "echo":
        return evaluation.EchoReader()
    if name == "http":
        if not cfg.reader.url:
            raise ValidationError("reader.url not configured")
        return HttpReader(cfg.reader.url, cfg.reader.timeout)
    raise ValidationError(f"unknown reader: {name!r}")


def _extractor(cfg: EngineConfig, name: str):
    if name == "heuristic":
        return HeuristicExtractor()
    if name == "none":
        return None
    if name == "http":
        if not cfg.extractor.url:
            raise ValidationError("extractor.url not configured")
        return HttpExtractor(cfg.extractor.url, cfg.extractor.timeout)
    raise ValidationError(f"unknown extractor: {name!r}")


def _write_lines(path: str | None, lines: list[str]) -> None:
    if path:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _emit_all(args, records: list[dict]) -> None:
    """Emit every record, and write them to --out as JSON lines."""
    for record in records:
        _emit(args, record)
    _write_lines(args.out, [json.dumps(r, ensure_ascii=False, default=str) for r in records])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_append(args) -> int:
    cfg = _load_config(args)
    store = MemoryStore(cfg.workspace)
    entry = EpisodicEntry(
        id=args.id or uuid.uuid4().hex[:12],
        timestamp=parse_timestamp(args.timestamp) if args.timestamp else utc_now(),
        session_id=args.session,
        agent_id=args.agent,
        project=args.project,
        content=args.content,
    )
    store.append_entry(entry)
    _emit(args, {"id": entry.id})
    if args.outcome:
        reward = attribution_mod.OUTCOME_REWARDS[args.outcome]
        session_entries = [
            e
            for e in store.load_entries(args.project, sessions=[args.session]).entries
            if not e.system
        ]
        updates = attribution_mod.apply_attribution(
            store, session_entries, args.content, reward, cfg.attribution
        )
        _emit(
            args,
            {
                "record": "cw_updates",
                "outcome": args.outcome,
                "reward": reward,
                "updates": [{"entry_id": i, "cw": w} for i, w in updates],
            },
        )
    return EXIT_OK


def _embedder(cfg: EngineConfig):
    if cfg.retrieval.mode == MODE_BM25:
        return None
    if cfg.embedder.url:
        return HttpEmbedder(
            cfg.embedder.url, dimension=cfg.embedder.dimension, timeout=cfg.embedder.timeout
        )
    return HashedBowEmbedder()


def _memory(cfg: EngineConfig, args) -> dict:
    """The keywords that build and rank each question's memory in evaluation."""
    return {
        "extractor": _extractor(cfg, args.extractor),
        "decay": cfg.decay,
        "tiers": cfg.tiers,
        "embedder": _embedder(cfg),
    }


def cmd_retrieve(args) -> int:
    cfg = _load_config(args)
    _retrieval_cfg(cfg, args)
    store = MemoryStore(cfg.workspace)
    pipeline = RetrievalPipeline.from_store(
        store,
        cfg.retrieval,
        project=args.project,
        agent_view=args.agent,
        decay=cfg.decay,
        tiers=cfg.tiers,
        embedder=_embedder(cfg),
    )
    result = pipeline.retrieve(args.query)
    for rank, ranked in enumerate(result.ranked, start=1):
        record = {
            "rank": rank,
            "id": ranked.entry.id,
            "session_id": ranked.entry.session_id,
            "score": ranked.score,
            "content": ranked.entry.content,
        }
        if args.explain:
            record["breakdown"] = ranked.breakdown.as_dict()
            if ranked.fused_score is not None:
                record["fused_score"] = ranked.fused_score
        _emit(args, record)
    _emit(
        args,
        {
            "record": "summary",
            "mode": result.mode,
            "variant": result.variant.value,
            "scoped_session_ids": result.scoped_session_ids,
            "sessions_ratio": round(result.sessions_ratio, 4),
            "fallback_unscoped": result.fallback_unscoped,
            "packed_token_count": result.packed_token_count,
            "latency_micros": result.latency_micros,
            "skipped_lines": pipeline.skipped_lines,
            "config": {"retrieval": cfg.retrieval.to_dict()},
        },
    )
    return EXIT_OK


def cmd_consolidate(args) -> int:
    cfg = _load_config(args)
    store = MemoryStore(cfg.workspace)
    extractor = _extractor(cfg, args.extractor)
    if extractor is None:
        raise ValidationError("consolidate requires an extractor")
    report = run_consolidation_pass(store, extractor, args.project)
    _emit(
        args,
        {
            "record": "consolidation_report",
            "sessions_scanned": report.sessions_scanned,
            "facts_emitted": report.facts_emitted,
            "entries_promoted": report.entries_promoted,
            "failures": report.failures,
            "duration_seconds": round(report.duration_seconds, 6),
        },
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    _retrieval_cfg(cfg, args)
    dataset = evaluation.load_dataset(args.dataset)
    reader = _reader(cfg, args.reader)
    report = evaluation.run_benchmark(
        dataset,
        cfg.retrieval,
        reader,
        mode=args.mode,
        **_memory(cfg, args),
        attribute_on_eval=args.attribute,
        attribution_cfg=cfg.attribution,
        config_echo={"seed": cfg.seed},
    )
    lines = report.to_jsonl_lines()
    _write_lines(args.out, lines)
    if args.pretty:
        print(report.to_table())
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    dataset = evaluation.load_dataset(args.dataset)
    reader = _reader(cfg, args.reader)
    if args.grid == "default":
        cells = evaluation.default_cells()
    else:
        flags = _flags(args, ("grid_k", "grid_budget", "grid_k1", "grid_variant"))
        axes = {name.removeprefix("grid_"): values for name, values in flags.items()}
        if "k1" in axes:
            axes["k1"] = [parse_stage1_k1(v) for v in axes["k1"]]
        if not axes:
            raise ValidationError("no ablation axes given; use --grid default or axis flags")
        cells = evaluation.grid_cells(axes)
    rows = evaluation.run_ablation(dataset, cfg.retrieval, reader, cells, **_memory(cfg, args))
    _emit_all(args, [{k: v for k, v in row.items() if k != "report"} for row in rows])
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    _retrieval_cfg(cfg, args)
    train_flags = _flags(args, ("epochs", "batch_size", "question_count"))
    train_cfg = load(TrainConfig, train_flags, cfg.train)

    dataset = evaluation.load_dataset(args.dataset)
    reader = _reader(cfg, args.reader)

    # One memory per question, built the first time an episode draws it, as
    # training samples only question_count questions; each episode re-ranks
    # its question's pipeline under the sampled weights. Episodes draw the
    # dataset's own question objects, and the memo is keyed by object, as a
    # dataset may repeat a question_id.
    memory = _memory(cfg, args)
    pipelines: dict[int, RetrievalPipeline] = {}

    def pipeline_of(question) -> RetrievalPipeline:
        if id(question) not in pipelines:
            [(_, _, pipeline)] = evaluation.question_memories([question], cfg.retrieval, **memory)
            pipelines[id(question)] = pipeline
        return pipelines[id(question)]

    def pipeline_factory(weights):
        episode_cfg = replace(cfg.retrieval, weights=weights)
        return lambda q: pipeline_of(q).retrieve(q.question, episode_cfg).packed_context

    final_weights, log = learning.train(
        dataset, pipeline_factory, reader, train_cfg, seed=cfg.seed
    )

    final_record = {
        "record": "final",
        "weights": final_weights.as_list(),
        "seed": cfg.seed,
        "config": {
            "epochs": train_cfg.epochs,
            "batch_size": train_cfg.batch_size,
            "question_count": train_cfg.question_count,
        },
    }
    _emit_all(args, [*log, final_record])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # Global flags live on a shared parent with SUPPRESS defaults so they are
    # accepted both before and after the subcommand without clobbering.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="YAML config file")
    common.add_argument(
        "--workspace", default=argparse.SUPPRESS, help="workspace directory (overrides config)"
    )
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument(
        "--pretty", action="store_true", default=argparse.SUPPRESS,
        help="human-readable output",
    )

    parser = argparse.ArgumentParser(
        prog="agentmem", description="Tiered agent memory engine", parents=[common]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help_text: str, *parents: argparse.ArgumentParser):
        return sub.add_parser(name, help=help_text, parents=[common, *parents])

    # Retrieval overrides shared by retrieve, eval and train (read by _retrieval_cfg);
    # each command adds its own ranking-mode flag.
    variants = [v.value for v in Variant]
    retrieval_flags = argparse.ArgumentParser(add_help=False)
    retrieval_flags.add_argument("--k", type=int)
    retrieval_flags.add_argument("--k1")
    retrieval_flags.add_argument("--budget", type=int)
    retrieval_flags.add_argument("--variant", choices=variants)

    p = add_parser("append", "append one episodic entry")
    p.add_argument("--project", required=True)
    p.add_argument("--session", required=True)
    p.add_argument("--agent", required=True)
    p.add_argument("--content", required=True)
    p.add_argument("--id")
    p.add_argument("--timestamp")
    p.add_argument("--outcome", choices=sorted(attribution_mod.OUTCOME_REWARDS))
    p.set_defaults(func=cmd_append)

    p = add_parser("retrieve", "query the memory", retrieval_flags)
    p.add_argument("--project", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--agent", default=None, help="agent view; omit for orchestrator")
    p.add_argument("--mode", dest="ranking", choices=MODES)
    p.add_argument("--explain", action="store_true")
    p.set_defaults(func=cmd_retrieve)

    p = add_parser("consolidate", "run one consolidation pass")
    p.add_argument("--project", required=True)
    p.add_argument("--extractor", default="heuristic", choices=["heuristic", "http"])
    p.set_defaults(func=cmd_consolidate)

    p = add_parser("eval", "run the QA benchmark", retrieval_flags)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", default="retrieval", choices=list(evaluation.EVAL_MODES))
    p.add_argument("--reader", default="oracle", choices=["oracle", "echo", "http"])
    p.add_argument("--extractor", default="heuristic", choices=["heuristic", "none", "http"])
    p.add_argument("--attribute", action="store_true", help="apply attribution on correct answers")
    p.add_argument("--ranking", choices=MODES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = add_parser("ablate", "run an ablation grid")
    p.add_argument("--dataset", required=True)
    p.add_argument("--grid", default=None, help="'default' for the stock grid")
    p.add_argument("--k", dest="grid_k", type=int, action="append")
    p.add_argument("--budget", dest="grid_budget", type=int, action="append")
    p.add_argument("--k1", dest="grid_k1", action="append")
    p.add_argument("--variant", dest="grid_variant", action="append", choices=variants)
    p.add_argument("--reader", default="oracle", choices=["oracle", "echo", "http"])
    p.add_argument("--extractor", default="heuristic", choices=["heuristic", "none", "http"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    p = add_parser("train", "train retrieval weights", retrieval_flags)
    p.add_argument("--dataset", required=True)
    p.add_argument("--reader", default="oracle", choices=["oracle", "echo", "http"])
    p.add_argument("--extractor", default="heuristic", choices=["heuristic", "none", "http"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--question-count", type=int)
    p.add_argument("--ranking", choices=MODES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # SUPPRESS defaults leave attributes unset when a flag was never given.
    for name, default in (("config", None), ("workspace", None), ("seed", None), ("pretty", False)):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        return args.func(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except AgentMemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
