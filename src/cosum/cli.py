"""Command-line entry point: train, build-synthetic, summarize, evaluate."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import sys
import tempfile
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence

from . import __version__
from .data import build_synthetic, load_reviews
from .decoding import (
    CONFIG_TYPES,
    DecodeConfig,
    condition_pair,
    load_decode_config,
    summarize_pair,
)
from .lm import load_model, save_model, train_model
from .metrics import (
    distinctiveness,
    fold_sum,
    intra_pair_score,
    ngrams,
    novel_rate,
    rouge_multi,
)
from .vocab import tokenize_text


class CliError(Exception):
    """User-facing error; printed as one line on stderr."""


def _atomic_write_text(path: str, text: str) -> None:
    """Write path through a temporary file, with the mode open(path, "w") gives."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


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
    _atomic_write_text(out_path + ".manifest.json", _dump_json(manifest))


def cmd_train(args: argparse.Namespace) -> int:
    if not os.path.exists(args.reviews):
        raise CliError(f"corpus not found: {args.reviews}")
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
        model_fingerprint=_sha256(args.out),
    )
    return 0


def cmd_build_synthetic(args: argparse.Namespace) -> int:
    corpus = load_reviews(args.reviews)
    result = build_synthetic(corpus, args.task, args.n, args.k)
    lines = [
        json.dumps(pair.to_record(), sort_keys=True) for pair in result.pairs
    ]
    _atomic_write_text(args.out, "".join(line + "\n" for line in lines))
    skip_path = args.out + ".skips.json"
    _atomic_write_text(
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
        raise CliError(f"invalid grid value: {raw}") from exc
    if not grid:
        raise CliError(f"empty grid: {raw!r}")
    return grid


def cmd_summarize(args: argparse.Namespace) -> int:
    lm = load_model(args.model)
    corpus = {es.entity_id: es for es in load_reviews(args.reviews)}
    pairs = []
    for spec in args.pair:
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) != 2:
            raise CliError(f"pair must be 'A,B', got {spec!r}")
        for entity_id in parts:
            if entity_id not in corpus:
                raise CliError(f"unknown entity id: {entity_id}")
        if tuple(parts) in pairs:
            raise CliError(f"pair {spec!r} is given twice")
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
            raise CliError(f"two grid points would write {path}")
    fingerprint = _sha256(args.model)
    conditions = [condition_pair(lm, corpus[a], corpus[b]) for a, b in pairs]

    for out_path, point in out_paths.items():
        records = [
            dataclasses.asdict(summarize_pair(lm, pair, point)) for pair in conditions
        ]
        _atomic_write_text(out_path, _dump_json(records))
        _write_manifest(
            out_path,
            "summarize",
            dataclasses.asdict(point),
            inputs=[args.model, args.reviews],
            outputs=[out_path],
            model_fingerprint=fingerprint,
        )
    return 0


SIDES = ("contrastive_a", "contrastive_b", "common")


def _mean(values: Sequence[float]) -> Optional[float]:
    return fold_sum(values) / len(values) if values else None


def _novelty(
    tokens: Dict[str, List[str]], source_a: List[str], source_b: List[str]
) -> Dict[str, Dict[str, Optional[float]]]:
    """Novel 1- and 2-gram rates of each side against its source.

    No token spans a joining space, so the common side's source is
    source_a + source_b: both sources' n-grams plus the junction bigram.
    """
    rates: Dict[str, Dict[str, Optional[float]]] = {side: {} for side in SIDES}
    for n in (1, 2):
        grams_a, grams_b = set(ngrams(source_a, n)), set(ngrams(source_b, n))
        common = grams_a | grams_b | set(ngrams(source_a[-1:] + source_b[:1], n))
        for side, source in zip(SIDES, (grams_a, grams_b, common)):
            grams = set(ngrams(tokens[side], n))
            rates[side][f"novel_{n}gram"] = novel_rate(grams, source) if grams else None
    return rates


def _add_record(
    records: Dict[str, dict], rec: object, where: str, reference: bool
) -> None:
    """File a checked generated (side: str) or reference (side: list of str) record."""
    if not isinstance(rec, dict):
        raise CliError(f"{where}: expected a JSON object")
    for key in ("pair_id",) + SIDES:
        if key not in rec:
            raise CliError(f"{where}: missing key {key!r}")
        value = rec[key]
        if reference and key != "pair_id":
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise CliError(f"{where}: {key!r} must be a list of strings")
        elif not isinstance(value, str):
            raise CliError(f"{where}: {key!r} must be a string")
    if rec["pair_id"] in records:
        raise CliError(f"{where}: repeats pair_id {rec['pair_id']!r}")
    records[rec["pair_id"]] = rec


def cmd_evaluate(args: argparse.Namespace) -> int:
    with open(args.generated, encoding="utf-8") as fh:
        try:
            records = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"{args.generated}: {exc}") from exc
    if not isinstance(records, list):
        raise CliError(f"{args.generated}: expected a JSON list of summary records")
    generated = {}
    for index, rec in enumerate(records, start=1):
        _add_record(generated, rec, f"{args.generated} record {index}", reference=False)
    references = {}
    with open(args.references, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{args.references} line {lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CliError(f"{where}: {exc}") from exc
            _add_record(references, rec, where, reference=True)
    missing = sorted(set(generated) - set(references))
    if missing:
        raise CliError(f"missing reference ids: {', '.join(missing)}")

    corpus = None
    if args.reviews:
        corpus = {es.entity_id: es for es in load_reviews(args.reviews)}

    per_pair = {}
    for pair_id, gen in sorted(generated.items()):
        ref = references[pair_id]
        try:
            tokens = {side: tokenize_text(gen[side]) for side in SIDES}
            entry: Dict[str, object] = {}
            for side in SIDES:
                refs = [tokenize_text(text) for text in ref[side]]
                entry[side] = {
                    "rouge1": dataclasses.asdict(rouge_multi(tokens[side], refs, 1)),
                    "rouge2": dataclasses.asdict(rouge_multi(tokens[side], refs, 2)),
                    "rougeL": dataclasses.asdict(rouge_multi(tokens[side], refs, None)),
                }
            entry["distinctiveness"] = distinctiveness(
                *(Counter(tokens[side]) for side in SIDES)
            )
            intra1, intra2, intral = intra_pair_score(
                tokens["contrastive_a"], tokens["contrastive_b"]
            )
            entry["intra_rouge"] = {
                "rouge1": intra1.f1,
                "rouge2": intra2.f1,
                "rougeL": intral.f1,
            }
            if corpus is not None:
                if "|" not in pair_id:
                    raise CliError("pair_id must be 'A|B' to look up --reviews")
                entity_a, entity_b = pair_id.split("|", 1)
                for entity_id in (entity_a, entity_b):
                    if entity_id not in corpus:
                        raise CliError(f"unknown entity id: {entity_id}")
                entry["novelty"] = _novelty(
                    tokens,
                    tokenize_text(" ".join(corpus[entity_a].texts)),
                    tokenize_text(" ".join(corpus[entity_b].texts)),
                )
        except (CliError, ValueError) as exc:
            raise CliError(f"{args.generated}: pair {pair_id}: {exc}") from exc
        per_pair[pair_id] = entry

    means: Dict[str, object] = {
        "distinctiveness": _mean(
            [p["distinctiveness"] for p in per_pair.values()]
        ),
        "intra_rouge1": _mean(
            [p["intra_rouge"]["rouge1"] for p in per_pair.values()]
        ),
    }
    for side in SIDES:
        for metric in ("rouge1", "rouge2", "rougeL"):
            means[f"{side}_{metric}_f1"] = _mean(
                [p[side][metric]["f1"] for p in per_pair.values()]
            )
    report = {"pairs": per_pair, "means": means}
    _atomic_write_text(args.out, _dump_json(report))
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
    p_train.set_defaults(func=cmd_train)

    p_build = sub.add_parser("build-synthetic", help="build pseudo training pairs")
    p_build.add_argument("--reviews", required=True)
    p_build.add_argument("--task", choices=("contrastive", "common"), required=True)
    p_build.add_argument("--n", type=int, default=3)
    p_build.add_argument("--k", type=int, default=100)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_build_synthetic)

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
    p_sum.set_defaults(func=cmd_summarize)

    p_eval = sub.add_parser("evaluate", help="score generated summaries")
    p_eval.add_argument("--generated", required=True)
    p_eval.add_argument("--references", required=True)
    p_eval.add_argument("--reviews", default=None)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
