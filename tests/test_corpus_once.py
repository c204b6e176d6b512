"""The corpus path computes each IDF, candidate count and source set once.

`data.tfidf_similarity` and `TfidfStats.vector` sum with C-level
`map`/`reduce`; the property tests hold them to the generator-based
`fold_sum` forms they replace, bit for bit and type for type. The counting
tests pin one `idf` per corpus term in `build_synthetic`, one candidate
n-gram count per (candidate, n) in `rouge_multi`, and one source n-gram set
per (entity, n) in `cosum evaluate`; and they check that `build_synthetic`
scores through `tfidf_similarity` and `cosum evaluate` through
`novel_ngram_rate`, the names the corpus benchmark times.
"""

import json
import math
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

import cosum.cli
import cosum.data
import cosum.metrics
from cosum.cli import main
from cosum.data import Review, TfidfStats, build_synthetic, load_reviews, tfidf_similarity
from cosum.metrics import fold_sum, ngrams, rouge_multi, rouge_n
from cosum.vocab import tokenize_text

from test_golden_corpus import PAIRS, write_inputs


def reference_cosine(va, vb):
    if len(vb) < len(va):
        va, vb = vb, va
    return fold_sum(w * vb.get(term, 0.0) for term, w in va.items())


def reference_vector(stats, review):
    tf = Counter(review.tokens)
    vec = {term: count * stats.idf(term) for term, count in tf.items()}
    norm = math.sqrt(fold_sum(w * w for w in vec.values()))
    if norm == 0.0:
        return {}
    return {term: w / norm for term, w in vec.items()}


def bits(value):
    return type(value), value.hex() if isinstance(value, float) else value


WEIGHTS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
TERMS = st.sampled_from([f"w{i}" for i in range(12)])
VECTORS = st.dictionaries(TERMS, WEIGHTS, max_size=12)


@given(VECTORS, VECTORS)
def test_cosine_matches_fold_sum_reference(va, vb):
    assert bits(tfidf_similarity(va, vb)) == bits(reference_cosine(va, vb))


@given(VECTORS, st.dictionaries(st.sampled_from(["x", "y", "z"]), WEIGHTS))
def test_cosine_of_disjoint_or_empty_vectors(va, vb):
    # No shared term: every product is w * 0.0, and an empty walk is the int 0.
    got = tfidf_similarity(va, vb)
    assert bits(got) == bits(reference_cosine(va, vb))
    if not va or not vb:
        assert type(got) is int and got == 0


@given(st.lists(st.tuples(TERMS, WEIGHTS, WEIGHTS), unique_by=lambda t: t[0], max_size=12))
def test_cosine_of_equal_length_vectors_walks_the_first(rows):
    va = {term: w for term, w, _ in rows}
    vb = {term: w for term, _, w in reversed(rows)}
    assert bits(tfidf_similarity(va, vb)) == bits(reference_cosine(va, vb))
    assert bits(tfidf_similarity(va, vb)) == bits(fold_sum(w * vb[t] for t, w in va.items()))


TEXTS = st.lists(st.sampled_from(["room", "pool", "staff", "view", "bar", "."]), max_size=30)


@given(st.lists(TEXTS.map(" ".join), min_size=1, max_size=6), TEXTS.map(" ".join))
def test_vector_and_its_norm_match_fold_sum_reference(corpus_texts, outside_text):
    reviews = [Review("e", str(i), text or "!") for i, text in enumerate(corpus_texts)]
    stats = TfidfStats(reviews)
    # The last review's terms may lie outside the corpus, so idf() answers them.
    for review in reviews + [Review("e", "out", outside_text + " lobby")]:
        got, want = stats.vector(review), reference_vector(stats, review)
        assert list(got) == list(want)
        assert [bits(w) for w in got.values()] == [bits(w) for w in want.values()]


def test_build_synthetic_computes_each_idf_once(tmp_path, monkeypatch):
    corpus = load_reviews(write_inputs(str(tmp_path))["reviews.jsonl"])
    terms = {t for es in corpus for r in es.reviews for t in r.tokens}
    calls = Counter()
    idf = TfidfStats.idf

    def counting_idf(stats, term):
        calls[term] += 1
        return idf(stats, term)

    monkeypatch.setattr(TfidfStats, "idf", counting_idf)
    for task in ("contrastive", "common"):
        calls.clear()
        assert build_synthetic(corpus, task, 3, 8).pairs
        assert calls == Counter(dict.fromkeys(terms, 1)), task


def test_rouge_multi_counts_the_candidate_once_per_n(monkeypatch):
    candidate = "the room was clean and the room was quiet".split()
    references = [
        "the room was quiet".split(),
        "clean room , quiet staff".split(),
        "the view was clean and the room was".split(),
    ]
    built = Counter()
    ngrams = cosum.metrics.ngrams

    def counting_ngrams(tokens, n):
        built[tuple(tokens), n] += 1
        return ngrams(tokens, n)

    monkeypatch.setattr(cosum.metrics, "ngrams", counting_ngrams)
    for n in (1, 2, 3):
        built.clear()
        score = rouge_multi(candidate, references, n)
        assert built[tuple(candidate), n] == 1
        assert all(built[tuple(ref), n] == 1 for ref in references)
        each = [rouge_n(candidate, ref, n) for ref in references]
        for field in ("precision", "recall", "f1"):
            mean = fold_sum(getattr(s, field) for s in each) / len(each)
            assert getattr(score, field).hex() == mean.hex()


def test_evaluate_builds_each_source_set_once(tmp_path, monkeypatch):
    inputs = write_inputs(str(tmp_path))
    corpus = {es.entity_id: es for es in load_reviews(inputs["reviews.jsonl"])}
    sources = {
        tuple(t for r in es.reviews for t in r.tokens): entity_id
        for entity_id, es in corpus.items()
    }
    built = Counter()
    ngrams = cosum.cli.ngrams

    def counting_ngrams(tokens, n):
        key = tuple(tokens)
        if key in sources:
            built[sources[key], n] += 1
        return ngrams(tokens, n)

    monkeypatch.setattr(cosum.cli, "ngrams", counting_ngrams)
    argv = [
        "evaluate", "--generated", inputs["generated.json"],
        "--references", inputs["references.jsonl"],
        "--reviews", inputs["reviews.jsonl"], "--out", str(tmp_path / "evaluation.json"),
    ]
    assert main(argv) == 0
    in_pairs = {entity_id for pair in PAIRS for entity_id in pair}
    # Every entity of PAIRS is in two pairs, so a per-pair build would count 2.
    assert built == Counter({(e, n): 1 for e in in_pairs for n in (1, 2)})


def test_build_synthetic_scores_every_candidate_through_tfidf_similarity(tmp_path, monkeypatch):
    corpus = load_reviews(write_inputs(str(tmp_path))["reviews.jsonl"])
    stats = TfidfStats.from_corpus(corpus)
    seen = []

    def recording_similarity(va, vb):
        seen.append(tfidf_similarity(va, vb))
        return seen[-1]

    monkeypatch.setattr(cosum.data, "tfidf_similarity", recording_similarity)
    for task in ("contrastive", "common"):
        seen.clear()
        result = build_synthetic(corpus, task, 3, 1000)
        # k exceeds the pair count and no counterpart is dropped, so every
        # review that build_synthetic ranks candidates for is a pair's summary.
        assert result.pairs and all("counterpart" not in s["reason"] for s in result.skipped)
        want = []
        for pair in result.pairs:
            vr = stats.vector(pair.pseudo_summary)
            entity = next(es for es in corpus if es.entity_id == pair.entity_id)
            want += [
                reference_cosine(vr, stats.vector(c))
                for c in entity.reviews
                if c is not pair.pseudo_summary and 50 <= len(c.tokens) <= 150
            ]
            if task == "common":
                want += [
                    reference_cosine(vr, stats.vector(other.pseudo_summary))
                    for other in result.pairs
                    if other.entity_id != pair.entity_id
                ]
        assert Counter(map(bits, seen)) == Counter(map(bits, want)), task


def test_evaluate_scores_novelty_through_novel_ngram_rate(tmp_path, monkeypatch):
    inputs = write_inputs(str(tmp_path))
    with open(inputs["generated.json"]) as fh:
        generated = json.load(fh)
    generated[0]["common"] = "clean"  # no bigram: novel_2gram is null, not scored
    with open(inputs["generated.json"], "w") as fh:
        json.dump(generated, fh)
    seen = Counter()
    novel_ngram_rate = cosum.cli.novel_ngram_rate

    def counting_rate(summary_grams, input_grams):
        seen[frozenset(summary_grams)] += 1
        return novel_ngram_rate(summary_grams, input_grams)

    monkeypatch.setattr(cosum.cli, "novel_ngram_rate", counting_rate)
    argv = [
        "evaluate", "--generated", inputs["generated.json"],
        "--references", inputs["references.jsonl"],
        "--reviews", inputs["reviews.jsonl"], "--out", str(tmp_path / "evaluation.json"),
    ]
    assert main(argv) == 0
    want = Counter(
        frozenset(ngrams(tokenize_text(record[side]), n))
        for record in generated
        for side in ("contrastive_a", "contrastive_b", "common")
        for n in (1, 2)
        if len(tokenize_text(record[side])) >= n
    )
    assert seen == want and sum(want.values()) == 6 * len(PAIRS) - 1
