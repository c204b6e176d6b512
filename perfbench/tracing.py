"""Layer spans for the traced benchmark run, recorded from outside cosum.

`instrument(tracer)` swaps the public functions of each cosum module for
timing wrappers and puts the originals back when it exits; cosum's own
source is never edited. Every call becomes a span (name, start, end,
parent span, request id) kept in flat arrays until the run ends. Counters
that need the call's arguments or result (nucleus sizes, LM reuse keys,
LCS cells) are taken in the same wrappers, at the layer boundary.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

SETUP_REQUEST = 0

# (owner, attribute, span name). An owner is a module, or a class named by
# its module and class name. For a module function, every cosum module
# that imported the same function object is patched too.
TARGETS: List[Tuple[str, str, str]] = [
    ("cosum.cli", "cmd_train", "cli.train"),
    ("cosum.cli", "cmd_summarize", "cli.summarize"),
    ("cosum.cli", "cmd_build_synthetic", "cli.build_synthetic"),
    ("cosum.cli", "cmd_evaluate", "cli.evaluate"),
    ("cosum.vocab", "tokenize_text", "vocab.tokenize_text"),
    ("cosum.lm.NGramLM", "next_dist", "lm.NGramLM.next_dist"),
    ("cosum.lm.CacheInterpolatedLM", "next_dist", "lm.CacheInterpolatedLM.next_dist"),
    ("cosum.lm", "train_ngram", "lm.train_ngram"),
    ("cosum.lm", "save_model", "lm.save_model"),
    ("cosum.lm", "load_model", "lm.load_model"),
    ("cosum.dists", "top_p_truncate", "dists.top_p_truncate"),
    ("cosum.dists.TokenDist", "from_weights", "dists.TokenDist.from_weights"),
    ("cosum.decoding", "summarize_pair", "decoding.summarize_pair"),
    ("cosum.decoding", "beam_decode", "decoding.beam_decode"),
    ("cosum.decoding", "aggregate_contrastive", "decoding.aggregate_contrastive"),
    ("cosum.decoding", "aggregate_contrastive_moe", "decoding.aggregate_contrastive_moe"),
    (
        "cosum.decoding",
        "aggregate_contrastive_vs_common",
        "decoding.aggregate_contrastive_vs_common",
    ),
    ("cosum.decoding", "aggregate_common", "decoding.aggregate_common"),
    ("cosum.decoding", "aggregate_common_poe", "decoding.aggregate_common_poe"),
    ("cosum.decoding", "symmetric_common_dist", "decoding.symmetric_common_dist"),
    ("cosum.data", "load_reviews", "data.load_reviews"),
    ("cosum.data", "build_synthetic", "data.build_synthetic"),
    ("cosum.data", "tfidf_similarity", "data.tfidf_similarity"),
    ("cosum.data.TfidfStats", "vector", "data.TfidfStats.vector"),
    ("cosum.metrics", "rouge_multi", "metrics.rouge_multi"),
    ("cosum.metrics", "rouge_l", "metrics.rouge_l"),
    ("cosum.metrics", "rouge_n", "metrics.rouge_n"),
    ("cosum.metrics", "novel_ngram_rate", "metrics.novel_ngram_rate"),
    ("cosum.metrics", "distinctiveness", "metrics.distinctiveness"),
]

# Spans timed once per set-up (cosum train), not per request.
SETUP_SPANS = ("cli.train", "lm.train_ngram", "lm.save_model")

STEP_SPAN = "decoding.step"


class Tracer:
    """Spans in flat arrays, plus counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("i")
        self._open: List[int] = []
        self.request_id = SETUP_REQUEST
        self.requests = 0
        self.counters: Counter = Counter()
        self._keys: set = set()
        self._conditions: set = set()
        self._condition_ids: Dict[int, Tuple[object, int]] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def request_scope(self, request_id: int) -> Iterator[None]:
        """Attribute spans to one request and fold its per-request sets."""
        self.request_id = request_id
        try:
            yield
        finally:
            self.counters["lm.next_dist.keys"] += len(self._keys)
            self.counters["lm.conditions"] += len(self._conditions)
            self._keys.clear()
            self._conditions.clear()
            self._condition_ids.clear()
            self.requests += 1
            self.request_id = SETUP_REQUEST

    def condition_key(self, condition) -> Tuple[int, ...]:
        """Pooled-condition key: the LM pools both sets order-independently."""
        sets = condition if isinstance(condition, tuple) else (condition,)
        ids = []
        for review_set in sets:
            entry = self._condition_ids.get(id(review_set))
            if entry is None:
                # Holding the object keeps its id unique within the request.
                entry = (review_set, len(self._condition_ids))
                self._condition_ids[id(review_set)] = entry
            ids.append(entry[1])
        key = tuple(sorted(ids))
        self._conditions.add(key)
        return key

    def note_next_dist(self, lm, prefix, condition, result) -> None:
        width = max(lm.background.order, lm.cache_order) - 1
        context = tuple(prefix[-width:]) if width else ()
        context = (0,) * (width - len(context)) + context
        self._keys.add((context, self.condition_key(condition)))
        self.counters["lm.next_dist.support"] += len(result.entries)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, split by phase."""
        child = [0.0] * len(self.start)
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals: Dict[str, Dict[str, float]] = {}
        for i in range(len(start)):
            phase = "setup" if self.request[i] == SETUP_REQUEST else "request"
            row = totals.setdefault(
                f"{phase}:{self.names[self.name[i]]}",
                {"calls": 0, "s": 0.0, "self_s": 0.0},
            )
            duration = end[i] - start[i]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child[i]
        return totals


def _resolve(owner: str):
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        module_name, cls_name = owner.rsplit(".", 1)
        return getattr(importlib.import_module(module_name), cls_name)


def _wrap(tracer: Tracer, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(index)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _hooks(tracer: Tracer) -> Dict[str, Callable]:
    counters = tracer.counters

    def next_dist(args, result):
        lm, prefix, condition = args[0], args[1], args[2]
        tracer.note_next_dist(lm, prefix, condition, result)

    def top_p(args, result):
        counters["dists.top_p_truncate.in"] += len(args[0].entries)
        counters["dists.top_p_truncate.kept"] += len(result.entries)

    def rouge_l(args, result):
        candidate, reference = args[0], args[1]
        counters["metrics.lcs_cells"] += len(candidate) * len(reference)

    def load_reviews(args, result):
        if tracer.request_id == SETUP_REQUEST:
            return
        counters["data.reviews_loaded"] += sum(len(es.reviews) for es in result)

    def build_synthetic(args, result):
        counters["data.build_synthetic.reviews"] += sum(
            len(es.reviews) for es in args[0]
        )

    def save_model(args, result):
        counters["lm.model_bytes"] = os.path.getsize(args[1])

    return {
        "lm.CacheInterpolatedLM.next_dist": next_dist,
        "dists.top_p_truncate": top_p,
        "metrics.rouge_l": rouge_l,
        "data.load_reviews": load_reviews,
        "data.build_synthetic": build_synthetic,
        "lm.save_model": save_model,
    }


def _wrap_beam_decode(tracer: Tracer, fn: Callable) -> Callable:
    """Time beam_decode and, through its step_fn argument, each step."""
    from cosum.vocab import EOS_ID

    beam_id = tracer.name_id("decoding.beam_decode")
    step_id = tracer.name_id(STEP_SPAN)
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(step_fn, *args, **kwargs):
        longest = [0]

        def step(prefix):
            longest[0] = max(longest[0], len(prefix) + 1)
            index = tracer.begin(step_id)
            try:
                dist = step_fn(prefix)
            finally:
                tracer.finish(index)
            counters["decoding.step.support"] += len(dist.entries)
            return dist

        index = tracer.begin(beam_id)
        try:
            tokens = fn(step, *args, **kwargs)
        finally:
            tracer.finish(index)
        counters["decoding.beam_decode.steps"] += longest[0]
        ended = bool(tokens) and tokens[-1] == EOS_ID
        counters["decoding.beam_decode.finished" if ended else "decoding.beam_decode.truncated"] += 1
        return tokens

    return wrapper


def _module_holders(original: Callable) -> List[Tuple[object, str]]:
    """Every (cosum module, name) that refers to `original`."""
    holders = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "cosum" or module_name.startswith("cosum.")):
            continue
        for attr, value in vars(module).items():
            if value is original:
                holders.append((module, attr))
    return holders


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Patch every TARGETS entry with a span wrapper; restore on exit."""
    hooks = _hooks(tracer)
    patched: List[Tuple[object, str, object]] = []
    try:
        for owner_name, attr, span in TARGETS:
            owner = _resolve(owner_name)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = _wrap(tracer, span, fn, hooks.get(span))
                patched.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            original = getattr(owner, attr)
            if span == "decoding.beam_decode":
                wrapped = _wrap_beam_decode(tracer, original)
            else:
                wrapped = _wrap(tracer, span, original, hooks.get(span))
            for module, name in _module_holders(original):
                patched.append((module, name, original))
                setattr(module, name, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# Spans reported as (span, fields); fields are per request, or per set-up
# for SETUP_SPANS.
SPAN_FIELDS: List[Tuple[str, Tuple[str, ...]]] = [
    ("cli.train", ("s",)),
    ("cli.summarize", ("s", "self_s")),
    ("cli.build_synthetic", ("s",)),
    ("cli.evaluate", ("s",)),
    ("vocab.tokenize_text", ("calls", "s")),
    ("lm.NGramLM.next_dist", ("calls", "s")),
    ("lm.CacheInterpolatedLM.next_dist", ("calls", "s", "self_s")),
    ("lm.train_ngram", ("s",)),
    ("lm.save_model", ("s",)),
    ("lm.load_model", ("s",)),
    ("dists.top_p_truncate", ("calls", "s")),
    ("dists.TokenDist.from_weights", ("calls", "s")),
    ("decoding.summarize_pair", ("calls", "s")),
    ("decoding.beam_decode", ("calls", "s", "self_s")),
    (STEP_SPAN, ("s",)),
    ("decoding.aggregate_contrastive", ("calls", "s")),
    ("decoding.aggregate_contrastive_moe", ("calls", "s")),
    ("decoding.aggregate_contrastive_vs_common", ("calls", "s")),
    ("decoding.aggregate_common", ("calls", "s")),
    ("decoding.aggregate_common_poe", ("calls", "s")),
    ("decoding.symmetric_common_dist", ("calls", "s")),
    ("data.load_reviews", ("s",)),
    ("data.build_synthetic", ("s",)),
    ("data.tfidf_similarity", ("calls", "s")),
    ("data.TfidfStats.vector", ("calls",)),
    ("metrics.rouge_multi", ("calls", "s")),
    ("metrics.rouge_l", ("calls", "s")),
    ("metrics.rouge_n", ("calls", "s")),
    ("metrics.novel_ngram_rate", ("calls", "s")),
    ("metrics.distinctiveness", ("calls", "s")),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, traced_rps: float, untraced_rps: float
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    Calls and seconds are means per request (per set-up for SETUP_SPANS).
    A layer a workload never enters reads 0.
    """
    totals = tracer.layer_totals()
    requests = max(tracer.requests, 1)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def row(span: str) -> Dict[str, float]:
        phase = "setup" if span in SETUP_SPANS else "request"
        return totals.get(f"{phase}:{span}", empty)

    out: Dict[str, Tuple[float, str]] = {}
    for span, fields in SPAN_FIELDS:
        per = 1 if span in SETUP_SPANS else requests
        for name in fields:
            unit = "count" if name == "calls" else "s"
            out[f"{span}.{name}"] = (row(span)[name] / per, unit)

    c = tracer.counters
    cache_calls = row("lm.CacheInterpolatedLM.next_dist")["calls"]
    truncate_calls = row("dists.top_p_truncate")["calls"]
    derived = {
        "vocab.tokenize_calls_per_review": (
            _ratio(row("vocab.tokenize_text")["calls"], c["data.reviews_loaded"]),
            "ratio",
        ),
        "lm.next_dist.support_mean": (
            _ratio(c["lm.next_dist.support"], cache_calls),
            "count",
        ),
        "lm.next_dist.distinct_keys": (c["lm.next_dist.keys"] / requests, "count"),
        "lm.next_dist.calls_per_key": (
            _ratio(cache_calls, c["lm.next_dist.keys"]),
            "ratio",
        ),
        "lm.conditions_distinct": (c["lm.conditions"] / requests, "count"),
        "lm.model_bytes": (c["lm.model_bytes"], "bytes"),
        "dists.top_p_truncate.in_size_mean": (
            _ratio(c["dists.top_p_truncate.in"], truncate_calls),
            "count",
        ),
        "dists.top_p_truncate.kept_mean": (
            _ratio(c["dists.top_p_truncate.kept"], truncate_calls),
            "count",
        ),
        "dists.top_p_truncate.kept_ratio": (
            _ratio(c["dists.top_p_truncate.kept"], c["dists.top_p_truncate.in"]),
            "ratio",
        ),
        "decoding.beam_decode.steps": (
            c["decoding.beam_decode.steps"] / requests,
            "count",
        ),
        "decoding.beam_decode.truncated": (
            c["decoding.beam_decode.truncated"] / requests,
            "count",
        ),
        "decoding.beam_decode.finished": (
            c["decoding.beam_decode.finished"] / requests,
            "count",
        ),
        "decoding.step.support_mean": (
            _ratio(c["decoding.step.support"], row(STEP_SPAN)["calls"]),
            "count",
        ),
        "data.tfidf.vector_calls_per_review": (
            _ratio(
                row("data.TfidfStats.vector")["calls"],
                c["data.build_synthetic.reviews"],
            ),
            "ratio",
        ),
        "metrics.lcs_cells": (c["metrics.lcs_cells"] / requests, "count"),
        "trace.requests_per_s": (traced_rps, "1/s"),
        "trace.overhead.requests_per_s": (traced_rps - untraced_rps, "1/s"),
    }
    out.update(derived)
    return out
