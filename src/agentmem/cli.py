"""Command-line entry point wiring the store, retrieval, consolidation,
attribution, training, and evaluation together.

Output is line-delimited JSON unless --pretty is given. Exit codes:
0 success, 2 usage, 3 data/validation, 4 external-service failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import uuid
from dataclasses import replace
from pathlib import Path

from . import attribution as attribution_mod
from . import evaluation, learning
from .clients import HttpEmbedder, HttpExtractor, HttpReader
from .config import EngineConfig
from .consolidation import HeuristicExtractor, run_consolidation_pass
from .errors import AgentMemError, ServiceError, ValidationError
from .retrieval import MODE_BM25, MODES, HashedBowEmbedder, RetrievalPipeline, parse_stage1_k1
from .scoring import Variant
from .store import EpisodicEntry, MemoryStore, parse_timestamp, utc_now

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SERVICE = 4


def _emit(args, record: dict) -> None:
    if args.pretty:
        print(json.dumps(record, indent=2, ensure_ascii=False, default=str))
    else:
        print(json.dumps(record, ensure_ascii=False, default=str))


def _load_config(args) -> EngineConfig:
    cfg = EngineConfig.from_file(args.config) if args.config else EngineConfig()
    if getattr(args, "workspace", None):
        cfg.workspace = Path(args.workspace)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def _retrieval_cfg(cfg: EngineConfig, args) -> None:
    """Fold the retrieval and ranking-mode flags into the config in place."""
    overrides = {}
    if args.k is not None:
        overrides["stage2_k"] = args.k
    if args.k1 is not None:
        overrides["stage1_k1"] = parse_stage1_k1(args.k1)
    if args.budget is not None:
        overrides["token_budget"] = args.budget
    if args.variant:
        overrides["variant"] = Variant(args.variant)
    if args.ranking:
        overrides["mode"] = args.ranking
    if overrides:
        cfg.retrieval = replace(cfg.retrieval, **overrides)


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
            cfg.embedder.url, dimension=cfg.embedder_dimension, timeout=cfg.embedder.timeout
        )
    return HashedBowEmbedder()


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
    extractor = _extractor(cfg, args.extractor)
    report = evaluation.run_benchmark(
        dataset,
        cfg.retrieval,
        reader,
        mode=args.mode,
        decay=cfg.decay,
        tiers=cfg.tiers,
        extractor=extractor,
        embedder=_embedder(cfg),
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
    extractor = _extractor(cfg, args.extractor)
    if args.grid == "default":
        cells = evaluation.default_cells()
    else:
        axes = {}
        if args.grid_k:
            axes["k"] = args.grid_k
        if args.grid_budget:
            axes["budget"] = args.grid_budget
        if args.grid_k1:
            axes["k1"] = [parse_stage1_k1(v) for v in args.grid_k1]
        if args.grid_variant:
            axes["variant"] = args.grid_variant
        if not axes:
            raise ValidationError("no ablation axes given; use --grid default or axis flags")
        cells = evaluation.grid_cells(axes)
    rows = evaluation.run_ablation(
        dataset, cfg.retrieval, reader, cells, extractor=extractor, decay=cfg.decay, tiers=cfg.tiers
    )
    lines = []
    for row in rows:
        record = {k: v for k, v in row.items() if k != "report"}
        lines.append(json.dumps(record, ensure_ascii=False, default=str))
        _emit(args, record)
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    _retrieval_cfg(cfg, args)
    train_cfg = cfg.train
    if args.epochs is not None:
        train_cfg = replace(train_cfg, epochs=args.epochs)
    if args.batch_size is not None:
        train_cfg = replace(train_cfg, batch_size=args.batch_size)
    if args.question_count is not None:
        train_cfg = replace(train_cfg, question_count=args.question_count)

    dataset = evaluation.load_dataset(args.dataset)
    reader = _reader(cfg, args.reader)
    extractor = _extractor(cfg, args.extractor)
    embedder = _embedder(cfg)

    # Materialise each question's corpus once; episodes only re-rank snapshots.
    with contextlib.ExitStack() as stack:
        snapshots = {}
        for question in dataset:
            tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="agentmem-train-"))
            store = MemoryStore(tmp)
            evaluation.ingest_question(store, question)
            if extractor is not None:
                run_consolidation_pass(store, extractor, evaluation.BENCH_PROJECT)
            snapshots[question.question_id] = (
                store.load_entries(evaluation.BENCH_PROJECT).entries,
                store.load_facts().facts,
            )

        def pipeline_factory(weights):
            def run(question):
                entries, facts = snapshots[question.question_id]
                pipeline = RetrievalPipeline(
                    replace(cfg.retrieval, weights=weights),
                    entries=entries,
                    facts=facts,
                    decay=cfg.decay,
                    tiers=cfg.tiers,
                    embedder=embedder,
                    now=question.question_date,
                )
                return pipeline.retrieve(question.question).packed_context

            return run

        final_weights, log = learning.train(
            dataset, pipeline_factory, reader, train_cfg, seed=cfg.seed
        )

    lines = [json.dumps(record, ensure_ascii=False) for record in log]
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
    lines.append(json.dumps(final_record, ensure_ascii=False))
    _write_lines(args.out, lines)
    for record in log:
        _emit(args, record)
    _emit(args, final_record)
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
