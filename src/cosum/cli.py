"""Command-line entry point: train, build-synthetic, summarize, evaluate."""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import itertools
import json
import os
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence

from . import __version__, files
from .data import SUMMARY_RANGES, EntityReviewSet, build_synthetic, load_reviews
from .decoding import (
    CONFIG_TYPES,
    DecodeConfig,
    SummaryTriple,
    condition_pair,
    load_decode_config,
    make_pair_id,
    summarize_pair,
)
from .files import atomic_write_text
from .lm import load_model, save_model, train_model
from .metrics import (
    ROUGE,
    distinctiveness,
    fold_sum,
    intra_pair_score,
    ngrams,
    novel_ngram_rate,
    rouge_multi,
)
from .vocab import tokenize_text


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_manifest(
    out_path: str,
    command: str,
    config: Dict,
    inputs: Sequence[str],
    outputs: Sequence[str],
    model_fingerprint: Optional[str],
) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
        "model_fingerprint": model_fingerprint,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    atomic_write_text(out_path + ".manifest.json", _dump_json(manifest))


def cmd_train(args: argparse.Namespace) -> int:
    corpus = load_reviews(args.reviews)
    texts = [r.text for es in corpus for r in es.reviews]
    lm = train_model(texts, args.order, args.lam, args.eps)
    save_model(lm, args.out)
    _write_manifest(
        args.out,
        "train",
        {
            "order": args.order,
            "cache_order": lm.cache_order,
            "lambda": args.lam,
            "eps": args.eps,
        },
        inputs=[args.reviews],
        outputs=[args.out],
        model_fingerprint=files.sha256(args.out),
    )
    return 0


def cmd_build_synthetic(args: argparse.Namespace) -> int:
    corpus = load_reviews(args.reviews)
    result = build_synthetic(corpus, args.task, args.n, args.k)
    lines = [
        json.dumps(pair.to_record(), sort_keys=True) for pair in result.pairs
    ]
    atomic_write_text(args.out, "".join(line + "\n" for line in lines))
    skip_path = args.out + ".skips.json"
    atomic_write_text(
        skip_path,
        _dump_json(
            {"skipped": result.skipped, "k_truncated": result.k_truncated}
        ),
    )
    _write_manifest(
        args.out,
        "build-synthetic",
        {"task": args.task, "n": args.n, "k": args.k},
        inputs=[args.reviews],
        outputs=[args.out, skip_path],
        model_fingerprint=None,
    )
    if result.k_truncated:
        print(
            f"warning: only {len(result.pairs)} pairs produced, requested {args.k}",
            file=sys.stderr,
        )
    return 0


def _effective_config(args: argparse.Namespace) -> DecodeConfig:
    # Precedence: CLI flag > config file > default.
    cfg = load_decode_config(args.config) if args.config else DecodeConfig()
    flags = {name: getattr(args, name) for name in CONFIG_TYPES}
    return dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _parse_grid(raw: str) -> List[float]:
    try:
        grid = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"invalid grid value: {raw}") from exc
    if not grid:
        raise ValueError(f"empty grid: {raw!r}")
    return grid


def cmd_summarize(args: argparse.Namespace) -> int:
    for name in ("delta", "gamma"):
        if getattr(args, name) is not None and getattr(args, name + "_grid") is not None:
            raise ValueError(f"--{name} and --{name}-grid both set {name}; give one")
    lm = load_model(args.model)
    corpus = {es.entity_id: es for es in load_reviews(args.reviews)}
    pairs = []
    for spec in args.pair:
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) != 2:
            raise ValueError(f"pair must be 'A,B', got {spec!r}")
        for entity_id in parts:
            if entity_id not in corpus:
                raise ValueError(f"unknown entity id: {entity_id}")
        make_pair_id(*parts)  # an id holding '|' fails before anything is decoded
        if tuple(parts) in pairs:
            raise ValueError(f"pair {spec!r} is given twice")
        pairs.append(tuple(parts))
    cfg = _effective_config(args)

    delta_grid = [cfg.delta] if args.delta_grid is None else _parse_grid(args.delta_grid)
    gamma_grid = [cfg.gamma] if args.gamma_grid is None else _parse_grid(args.gamma_grid)
    # Every grid point is checked before anything is decoded or written.
    sweep = args.delta_grid is not None or args.gamma_grid is not None
    stem, ext = os.path.splitext(args.out)
    out_paths: Dict[str, DecodeConfig] = {}
    for delta, gamma in itertools.product(delta_grid, gamma_grid):
        point = dataclasses.replace(cfg, delta=delta, gamma=gamma)
        path = f"{stem}.d{delta:g}_g{gamma:g}{ext or '.json'}" if sweep else args.out
        if out_paths.setdefault(path, point) is not point:
            raise ValueError(f"two grid points would write {path}")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    fingerprint = files.sha256(args.model)
    records: Dict[str, List[dict]] = {path: [] for path in out_paths}
    for a, b in pairs:  # one pair's conditions live at a time
        pair = condition_pair(lm, corpus[a], corpus[b])
        for out_path, point in out_paths.items():
            records[out_path].append(dataclasses.asdict(summarize_pair(lm, pair, point)))
    for out_path, point in out_paths.items():
        atomic_write_text(out_path, _dump_json(records[out_path]))
        _write_manifest(
            out_path,
            "summarize",
            dataclasses.asdict(point),
            inputs=[args.model, args.reviews],
            outputs=[out_path],
            model_fingerprint=fingerprint,
        )
    return 0


SIDES = tuple(f.name for f in dataclasses.fields(SummaryTriple) if f.name != "pair_id")


def _mean(values: Sequence[float]) -> Optional[float]:
    return fold_sum(values) / len(values) if values else None


def _novelty(
    tokens: Dict[str, List[str]], a: EntityReviewSet, b: EntityReviewSet, sources
) -> Dict[str, Dict[str, Optional[float]]]:
    """Novel 1- and 2-gram rates of each side against its entities' reviews.

    No token spans a joining space, so an entity's source is its reviews'
    tokens back to back, and the common side's source is source_a +
    source_b: both sources' n-grams plus the junction bigram.
    sources(entity_id, n) gives an entity's source n-grams.
    """
    junction = [t for r in a.reviews[::-1] for t in r.tokens[-1:]][:1]
    junction += [t for r in b.reviews for t in r.tokens[:1]][:1]
    rates: Dict[str, Dict[str, Optional[float]]] = {side: {} for side in SIDES}
    for n in (1, 2):
        grams_a, grams_b = sources(a.entity_id, n), sources(b.entity_id, n)
        common = grams_a | grams_b | set(ngrams(junction, n))
        for side, source in zip(SIDES, (grams_a, grams_b, common)):
            grams = set(ngrams(tokens[side], n))
            rates[side][f"novel_{n}gram"] = novel_ngram_rate(grams, source) if grams else None
    return rates


_GENERATED = {f.name: files.STRING for f in dataclasses.fields(SummaryTriple)}
_REFERENCE = {"pair_id": files.STRING, **{side: files.STRINGS for side in SIDES}}


def _add_record(records: Dict[str, dict], rec: object, where: str, fields: dict) -> None:
    """File a record once it passes checked() against fields."""
    rec = files.checked(rec, where, fields)
    if rec["pair_id"] in records:
        raise ValueError(f"{where}: repeats pair_id {rec['pair_id']!r}")
    records[rec["pair_id"]] = rec


def cmd_evaluate(args: argparse.Namespace) -> int:
    records = files.read_json(args.generated)
    if not isinstance(records, list):
        raise ValueError(f"{args.generated}: expected a JSON list of summary records")
    generated = {}
    for index, rec in enumerate(records, start=1):
        _add_record(generated, rec, f"{args.generated} record {index}", _GENERATED)
    references = {}
    for where, line in files.lines(args.references):
        _add_record(references, files.parse_json(line, where), where, _REFERENCE)
    missing = sorted(set(generated) - set(references))
    if missing:
        raise ValueError(f"missing reference ids: {', '.join(missing)}")

    corpus = None
    if args.reviews:
        corpus = {es.entity_id: es for es in load_reviews(args.reviews)}

    @functools.cache  # one set per (entity, n), however many pairs share the entity
    def sources(entity_id: str, n: int) -> set:
        return set(ngrams([t for r in corpus[entity_id].reviews for t in r.tokens], n))

    per_pair = {}
    for pair_id, gen in sorted(generated.items()):
        ref = references[pair_id]
        try:
            tokens = {side: tokenize_text(gen[side]) for side in SIDES}
            entry: Dict[str, object] = {}
            for side in SIDES:
                refs = [tokenize_text(text) for text in ref[side]]
                entry[side] = {
                    name: dataclasses.asdict(rouge_multi(tokens[side], refs, n))
                    for name, n in ROUGE.items()
                }
            entry["distinctiveness"] = distinctiveness(
                *(Counter(tokens[side]) for side in SIDES)
            )
            intra = intra_pair_score(tokens["contrastive_a"], tokens["contrastive_b"])
            entry["intra_rouge"] = {name: score.f1 for name, score in zip(ROUGE, intra)}
            if corpus is not None:
                entity_ids = pair_id.split("|")
                if len(entity_ids) != 2:
                    raise ValueError("pair_id must be 'A|B' to look up --reviews")
                for entity_id in entity_ids:
                    if entity_id not in corpus:
                        raise ValueError(f"unknown entity id: {entity_id}")
                entry["novelty"] = _novelty(tokens, *(corpus[e] for e in entity_ids), sources)
        except ValueError as exc:
            raise ValueError(f"{args.generated}: pair {pair_id}: {exc}") from exc
        per_pair[pair_id] = entry

    means: Dict[str, object] = {
        "distinctiveness": _mean([p["distinctiveness"] for p in per_pair.values()]),
        "intra_rouge1": _mean([p["intra_rouge"]["rouge1"] for p in per_pair.values()]),
    }
    for side, metric in itertools.product(SIDES, ROUGE):
        means[f"{side}_{metric}_f1"] = _mean([p[side][metric]["f1"] for p in per_pair.values()])
    report = {"pairs": per_pair, "means": means}
    atomic_write_text(args.out, _dump_json(report))
    _write_manifest(
        args.out,
        "evaluate",
        {},
        inputs=[args.generated, args.references]
        + ([args.reviews] if args.reviews else []),
        outputs=[args.out],
        model_fingerprint=None,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosum",
        description="Comparative opinion summarization via collaborative decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the background model")
    p_train.add_argument("--reviews", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--order", type=int, default=3)
    p_train.add_argument("--lam", type=float, default=0.7)
    p_train.add_argument("--eps", type=float, default=1e-4)

    p_build = sub.add_parser("build-synthetic", help="build pseudo training pairs")
    p_build.add_argument("--reviews", required=True)
    p_build.add_argument("--task", choices=tuple(SUMMARY_RANGES), required=True)
    p_build.add_argument("--n", type=int, default=3)
    p_build.add_argument("--k", type=int, default=100)
    p_build.add_argument("--out", required=True)

    p_sum = sub.add_parser("summarize", help="decode summaries for entity pairs")
    p_sum.add_argument("--model", required=True)
    p_sum.add_argument("--reviews", required=True)
    p_sum.add_argument("--pair", action="append", required=True, metavar="A,B")
    p_sum.add_argument("--config", default=None)
    p_sum.add_argument("--out", required=True)
    for name, kind in CONFIG_TYPES.items():
        p_sum.add_argument("--" + name.replace("_", "-"), type=kind)
    p_sum.add_argument("--delta-grid", default=None, dest="delta_grid")
    p_sum.add_argument("--gamma-grid", default=None, dest="gamma_grid")

    p_eval = sub.add_parser("evaluate", help="score generated summaries")
    p_eval.add_argument("--generated", required=True)
    p_eval.add_argument("--references", required=True)
    p_eval.add_argument("--reviews", default=None)
    p_eval.add_argument("--out", required=True)
    return parser


# One parser per process. Dispatch looks each cmd_* up in this module when
# main runs, so a command replaced here after the first call is the one run.
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
