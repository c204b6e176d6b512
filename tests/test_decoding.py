import dataclasses
import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosum.decoding import (
    DecodeConfig,
    condition_pair,
    load_decode_config,
    summarize_pair,
)
from cosum.lm import CacheInterpolatedLM, NGramLM, _context
from cosum.vocab import Vocabulary

FAST = dict(min_len=3, max_len_contrastive=25, max_len_common=15)


def summarize(lm, reviews_a, reviews_b, cfg):
    return summarize_pair(lm, condition_pair(lm, reviews_a, reviews_b), cfg)


class TestDecodeConfig:
    def test_defaults(self):
        cfg = DecodeConfig()
        assert cfg.top_p == 0.9
        assert cfg.beam_width == 4
        assert cfg.max_len_contrastive == 150
        assert cfg.max_len_common == 50
        assert cfg.min_len == 10
        assert cfg.length_penalty == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            {"delta": -0.1},
            {"gamma": -1.0},
            {"top_p": 0.0},
            {"top_p": 1.2},
            {"beam_width": 0},
            {"min_len": 0},
            {"min_len": 60, "max_len_common": 50},
            {"mode": "nope"},
            {"delta": float("nan")},
            {"delta": float("inf")},
            {"gamma": float("inf")},
            {"length_penalty": float("nan")},
        ],
    )
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            DecodeConfig(**bad)


class TestConfigFile:
    def test_roundtrip_all_fields(self, tmp_path):
        path = tmp_path / "decode.cfg"
        path.write_text(
            "delta = 2.0\n"
            "gamma = 0.25\n"
            "top_p = 0.8  # nucleus size\n"
            "beam_width = 2\n"
            "max_len_contrastive = 40\n"
            "max_len_common = 20\n"
            "min_len = 4\n"
            "length_penalty = 0.5\n"
            "mode = common_moe\n"
        )
        cfg = load_decode_config(str(path))
        assert cfg == DecodeConfig(
            delta=2.0,
            gamma=0.25,
            top_p=0.8,
            beam_width=2,
            max_len_contrastive=40,
            max_len_common=20,
            min_len=4,
            length_penalty=0.5,
            mode="common_moe",
        )

    def test_missing_keys_fall_back_to_defaults(self, tmp_path):
        path = tmp_path / "decode.cfg"
        path.write_text("delta = 0.5\n")
        cfg = load_decode_config(str(path))
        assert cfg.delta == 0.5
        assert cfg.gamma == DecodeConfig().gamma

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "decode.cfg"
        path.write_text("temperature = 0.7\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_decode_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "decode.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match="key=value"):
            load_decode_config(str(path))


class TestSummarizePair:
    def test_identical_entities_without_codecoding(self, trained_lm, corpus_by_entity):
        cfg = DecodeConfig(delta=0.0, gamma=0.0, **FAST)
        es = corpus_by_entity["harbor_hotel"]
        triple = summarize(trained_lm, es, es, cfg)
        assert triple.contrastive_a == triple.contrastive_b

    def test_pair_order_equivariance(self, trained_lm, corpus_by_entity):
        cfg = DecodeConfig(**FAST)
        ra = corpus_by_entity["summit_lodge"]
        rb = corpus_by_entity["lakeside_resort"]
        fwd = summarize(trained_lm, ra, rb, cfg)
        rev = summarize(trained_lm, rb, ra, cfg)
        assert fwd.contrastive_a == rev.contrastive_b
        assert fwd.contrastive_b == rev.contrastive_a
        assert fwd.common == rev.common

    def test_deterministic(self, trained_lm, corpus_by_entity):
        cfg = DecodeConfig(**FAST)
        ra = corpus_by_entity["harbor_hotel"]
        rb = corpus_by_entity["garden_inn"]
        assert summarize(trained_lm, ra, rb, cfg) == summarize(
            trained_lm, ra, rb, cfg
        )

    def test_all_fields_non_empty(self, trained_lm, corpus_by_entity):
        cfg = DecodeConfig(**FAST)
        ra = corpus_by_entity["vineyard_estate"]
        rb = corpus_by_entity["desert_oasis"]
        triple = summarize(trained_lm, ra, rb, cfg)
        assert triple.contrastive_a
        assert triple.contrastive_b
        assert triple.common

    @pytest.mark.parametrize(
        "mode",
        [
            "contrastive_poe",
            "contrastive_moe_ablation",
            "contrastive_vs_common",
            "common_moe",
            "common_poe_ablation",
            "base",
        ],
    )
    def test_all_modes_decode(self, trained_lm, corpus_by_entity, mode):
        cfg = DecodeConfig(mode=mode, **FAST)
        ra = corpus_by_entity["old_town_suites"]
        rb = corpus_by_entity["airport_express"]
        triple = summarize(trained_lm, ra, rb, cfg)
        assert triple.contrastive_a and triple.contrastive_b and triple.common

    def test_base_mode_matches_zero_tradeoffs(self, trained_lm, corpus_by_entity):
        ra = corpus_by_entity["harbor_hotel"]
        rb = corpus_by_entity["garden_inn"]
        base = summarize(
            trained_lm, ra, rb, DecodeConfig(mode="base", **FAST)
        )
        zeros = summarize(
            trained_lm, ra, rb, DecodeConfig(delta=0.0, gamma=0.0, **FAST)
        )
        assert base.contrastive_a == zeros.contrastive_a
        assert base.contrastive_b == zeros.contrastive_b
        assert base.common == zeros.common

    def test_memory_stays_flat_over_many_pairs(self, trained_lm, sample_corpus):
        """One LM decoding pair after pair keeps nothing per pair."""
        cfg = DecodeConfig(
            beam_width=1, min_len=1, max_len_contrastive=3, max_len_common=3
        )
        pairs = list(itertools.combinations(sample_corpus, 2))

        def traced_bytes_after(chunk):
            for ra, rb in chunk:
                summarize(trained_lm, ra, rb, cfg)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            warm = traced_bytes_after(pairs[:4])
            end = traced_bytes_after(pairs[4:])
        finally:
            tracemalloc.stop()
        # Keeping each pair's pooled condition alive would add about 55 KB
        # per pair here, over 1 MB across the 24 pairs after warm-up.
        assert len(pairs) == 28
        assert end - warm < 16 * 1024


class TestPairConditions:
    def count_calls(self, monkeypatch, cls, name):
        calls = []
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
        return calls

    def test_memo_runs_background_once_per_context(
        self, trained_lm, corpus_by_entity, monkeypatch
    ):
        pair = condition_pair(
            trained_lm, corpus_by_entity["harbor_hotel"], corpus_by_entity["garden_inn"]
        )
        background_calls = self.count_calls(monkeypatch, NGramLM, "next_dist")
        lm_calls = self.count_calls(monkeypatch, CacheInterpolatedLM, "next_dist")
        summarize_pair(trained_lm, pair, DecodeConfig(**FAST))
        width = trained_lm.background.order - 1
        keys = {(id(cond), _context(prefix, width)) for _, prefix, cond in lm_calls}
        conditions = (pair.a, pair.b, pair.both)
        assert len(lm_calls) > len(keys)
        assert len(background_calls) == len(keys)
        assert len(keys) == sum(len(cond.memo) for cond in conditions)
        prefix = lm_calls[-1][1]
        for cond in conditions:
            first = trained_lm.next_dist(prefix, cond)
            assert trained_lm.next_dist(prefix, cond) is first

    def test_unread_conditions_are_never_encoded(
        self, trained_lm, corpus_by_entity, monkeypatch
    ):
        ra = corpus_by_entity["harbor_hotel"]
        rb = corpus_by_entity["garden_inn"]
        encodes = self.count_calls(monkeypatch, Vocabulary, "encode")
        background_only = CacheInterpolatedLM(trained_lm.background, 0.0)
        summarize(background_only, ra, rb, DecodeConfig(**FAST))
        assert encodes == []
        pair = condition_pair(trained_lm, ra, rb)
        assert encodes == []
        summarize_pair(trained_lm, pair, DecodeConfig(**FAST))
        assert len(encodes) == 2 * (len(ra.texts) + len(rb.texts))


# Small enough that one fresh decode of all three sides takes milliseconds.
SMALL = dict(beam_width=2, min_len=2, max_len_contrastive=6, max_len_common=6)
TRADEOFFS = st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=3)


class TestDecodedSides:
    """A reused pair serves each side's text from PairConditions.decoded."""

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(["base", "contrastive_poe", "common_poe_ablation"]),
        deltas=TRADEOFFS,
        gammas=TRADEOFFS,
        data=st.data(),
    )
    def test_sweep_over_one_pair_matches_fresh_pairs(
        self, trained_lm, corpus_by_entity, mode, deltas, gammas, data
    ):
        ra = corpus_by_entity["harbor_hotel"]
        rb = corpus_by_entity["garden_inn"]
        pair = condition_pair(trained_lm, ra, rb)
        grid = data.draw(st.permutations(list(itertools.product(deltas, gammas))))
        base = DecodeConfig(mode=mode, **SMALL)
        for delta, gamma in grid:
            # top_p and max_len_common vary between points too; no text may cross them.
            cfg = dataclasses.replace(
                base,
                delta=delta,
                gamma=gamma,
                top_p=data.draw(st.sampled_from([0.9, 0.5])),
                max_len_common=data.draw(st.sampled_from([4, 6])),
            )
            assert summarize_pair(trained_lm, pair, cfg) == summarize(
                trained_lm, ra, rb, cfg
            )

    @pytest.mark.parametrize("change", [{"top_p": 0.5}, {"max_len_common": 3}])
    def test_reused_pair_decodes_again_for_other_settings(
        self, trained_lm, corpus_by_entity, change
    ):
        ra = corpus_by_entity["harbor_hotel"]
        rb = corpus_by_entity["garden_inn"]
        pair = condition_pair(trained_lm, ra, rb)
        cfg = DecodeConfig(**SMALL)
        first = summarize_pair(trained_lm, pair, cfg)
        other = dataclasses.replace(cfg, **change)
        fresh = summarize(trained_lm, ra, rb, other)
        assert fresh != first
        assert summarize_pair(trained_lm, pair, other) == fresh
        assert summarize_pair(trained_lm, pair, cfg) == first
