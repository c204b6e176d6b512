import json

import pytest

from cosum.cli import main
from cosum.sample_corpus import write_sample_corpus


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "reviews.jsonl"
    write_sample_corpus(str(path))
    return str(path)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_path):
    path = tmp_path_factory.mktemp("model") / "model.json"
    code = main(["train", "--reviews", corpus_path, "--out", str(path)])
    assert code == 0
    return str(path)


SUMMARIZE_FAST = ["--min-len", "3", "--max-len-contrastive", "25", "--max-len-common", "15"]


def test_global_seed_flag_is_a_usage_error(corpus_path, tmp_path):
    argv = ["train", "--reviews", corpus_path, "--out", str(tmp_path / "m.json")]
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "0"] + argv)
    assert exc.value.code == 2


class TestTrain:
    def test_model_roundtrips(self, model_path, tmp_path):
        from cosum.lm import load_model, save_model

        lm = load_model(model_path)
        copy = tmp_path / "copy.json"
        save_model(lm, str(copy))
        with open(model_path, "rb") as fh:
            assert copy.read_bytes() == fh.read()

    def test_manifest_written(self, model_path):
        with open(model_path + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "train"
        assert manifest["model_fingerprint"]

    def test_retrain_identical_fingerprint(self, corpus_path, tmp_path):
        out1 = tmp_path / "m1.json"
        out2 = tmp_path / "m2.json"
        assert main(["train", "--reviews", corpus_path, "--out", str(out1)]) == 0
        assert main(["train", "--reviews", corpus_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_order_one_is_context_free(self, corpus_path, tmp_path):
        from cosum.lm import load_model

        out = tmp_path / "uni.json"
        assert main(
            ["train", "--reviews", corpus_path, "--out", str(out), "--order", "1"]
        ) == 0
        lm = load_model(str(out))
        v = lm.vocabulary
        d1 = lm.background.next_dist(())
        d2 = lm.background.next_dist((v.lookup("the"), v.lookup("staff")))
        assert d1.entries == d2.entries

    def test_cache_order_flag_is_a_usage_error(self, corpus_path, tmp_path):
        argv = ["train", "--reviews", corpus_path, "--out", str(tmp_path / "m.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cache-order", "2"])
        assert exc.value.code == 2

    def test_missing_corpus_fails(self, tmp_path, capsys):
        code = main(
            ["train", "--reviews", str(tmp_path / "none.jsonl"), "--out", "x.json"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestBuildSynthetic:
    def test_short_reviews_give_empty_output_and_exit_zero(
        self, corpus_path, tmp_path, capsys
    ):
        out = tmp_path / "pairs.jsonl"
        code = main(
            [
                "build-synthetic",
                "--reviews",
                corpus_path,
                "--task",
                "contrastive",
                "--n",
                "2",
                "--k",
                "5",
                "--out",
                str(out),
            ]
        )
        # Sample reviews are far below the 100-token window.
        assert code == 0
        assert out.read_text() == ""
        assert "warning" in capsys.readouterr().err

    def test_golden_selection(self, tmp_path):
        # Engineered fixture: r0 shares more vocabulary with r1 than r2.
        filler = " ".join(["filler"] * 50)
        rows = [
            {"entity_id": "e", "review_id": "sum", "text": "pool bar view " * 40},
            {"entity_id": "e", "review_id": "near", "text": "pool bar view " + filler},
            {"entity_id": "e", "review_id": "far", "text": "shuttle desk lobby " + filler},
            {"entity_id": "e", "review_id": "mid", "text": "pool desk lobby " + filler},
        ]
        corpus = tmp_path / "fixture.jsonl"
        with open(corpus, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        out = tmp_path / "pairs.jsonl"
        code = main(
            [
                "build-synthetic",
                "--reviews",
                str(corpus),
                "--task",
                "contrastive",
                "--n",
                "2",
                "--k",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        by_summary = {r["summary_review_id"]: r for r in records}
        assert by_summary["sum"]["input_review_ids"] == ["near", "mid"]


class TestSummarize:
    def run_summarize(self, model_path, corpus_path, out, extra=()):
        return main(
            [
                "summarize",
                "--model",
                model_path,
                "--reviews",
                corpus_path,
                "--pair",
                "harbor_hotel,garden_inn",
                "--out",
                str(out),
                *SUMMARIZE_FAST,
                *extra,
            ]
        )

    def test_identical_pair_with_zero_tradeoffs(
        self, model_path, corpus_path, tmp_path
    ):
        out = tmp_path / "same.json"
        code = main(
            [
                "summarize",
                "--model",
                model_path,
                "--reviews",
                corpus_path,
                "--pair",
                "harbor_hotel,harbor_hotel",
                "--out",
                str(out),
                "--delta",
                "0",
                "--gamma",
                "0",
                *SUMMARIZE_FAST,
            ]
        )
        assert code == 0
        (record,) = json.loads(out.read_text())
        assert record["contrastive_a"] == record["contrastive_b"]

    def test_pair_swap_equivariance(self, model_path, corpus_path, tmp_path):
        out_ab = tmp_path / "ab.json"
        out_ba = tmp_path / "ba.json"
        assert self.run_summarize(model_path, corpus_path, out_ab) == 0
        assert (
            main(
                [
                    "summarize",
                    "--model",
                    model_path,
                    "--reviews",
                    corpus_path,
                    "--pair",
                    "garden_inn,harbor_hotel",
                    "--out",
                    str(out_ba),
                    *SUMMARIZE_FAST,
                ]
            )
            == 0
        )
        (ab,) = json.loads(out_ab.read_text())
        (ba,) = json.loads(out_ba.read_text())
        assert ab["contrastive_a"] == ba["contrastive_b"]
        assert ab["contrastive_b"] == ba["contrastive_a"]
        assert ab["common"] == ba["common"]

    def test_unseen_words_never_emit_unk(self, model_path, corpus_path, tmp_path):
        reviews = tmp_path / "reviews.jsonl"
        unseen = "".join(
            json.dumps({"entity_id": "zz_unseen", "review_id": f"u{i}", "text": text}) + "\n"
            for i, text in enumerate(["qwxv blorp snizzle fremp"] * 3)
        )
        with open(corpus_path) as fh:
            reviews.write_text(fh.read() + unseen)
        out = tmp_path / "unseen.json"
        code = main(
            [
                "summarize",
                "--model",
                model_path,
                "--reviews",
                str(reviews),
                "--pair",
                "airport_express,zz_unseen",
                "--out",
                str(out),
                "--max-len-contrastive",
                "12",
                "--max-len-common",
                "12",
                "--min-len",
                "5",
            ]
        )
        assert code == 0
        (record,) = json.loads(out.read_text())
        for side in ("contrastive_a", "contrastive_b", "common"):
            assert record[side] and "<unk>" not in record[side]

    def test_unknown_entity_named_in_error(self, model_path, corpus_path, tmp_path, capsys):
        code = main(
            [
                "summarize",
                "--model",
                model_path,
                "--reviews",
                corpus_path,
                "--pair",
                "harbor_hotel,atlantis",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 1
        assert "atlantis" in capsys.readouterr().err

    REVIEW = '{"entity_id": "x", "review_id": "1", "text": "ok"}\n'

    @pytest.mark.parametrize(
        "flags,model_text,reviews_text,named",
        [
            (["--delta-grid", ","], None, None, "error: empty grid: ','"),
            (["--gamma-grid", " "], None, None, "error: empty grid: ' '"),
            ([], "not json", None, "bad_model.json: Expecting value: line 1"),
            ([], "[]", None, "bad_model.json: expected a JSON object"),
            ([], '{"format_version": 1}', None, "bad_model.json: missing key 'voc"),
            ([], None, REVIEW + "7\n", "bad.jsonl line 2: expected a JSON object"),
            (
                [],
                None,
                REVIEW + '{"entity_id": "x", "review_id": "2", "text": 3}\n',
                "bad.jsonl line 2: 'text' must be a string",
            ),
        ],
        ids=[
            "empty-delta-grid",
            "empty-gamma-grid",
            "model-not-json",
            "model-not-object",
            "model-no-vocabulary",
            "review-not-object",
            "review-text-not-string",
        ],
    )
    def test_bad_input_is_one_error_line(
        self, model_path, corpus_path, tmp_path, capsys,
        flags, model_text, reviews_text, named,
    ):
        if model_text is not None:
            model_path = tmp_path / "bad_model.json"
            model_path.write_text(model_text)
        if reviews_text is not None:
            corpus_path = tmp_path / "bad.jsonl"
            corpus_path.write_text(reviews_text)
        out = tmp_path / "out.json"
        assert self.run_summarize(str(model_path), str(corpus_path), out, flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not list(tmp_path.glob("out*"))

    def test_config_file_and_flag_precedence(self, model_path, corpus_path, tmp_path):
        cfg = tmp_path / "decode.cfg"
        cfg.write_text("delta = 0.0\ngamma = 0.0\nmin_len = 3\nmax_len_contrastive = 25\nmax_len_common = 15\n")
        out_cfg = tmp_path / "from_cfg.json"
        out_flag = tmp_path / "from_flag.json"
        assert (
            self.run_summarize(
                model_path, corpus_path, out_cfg, ["--config", str(cfg)]
            )
            == 0
        )
        # Flag overrides the config file's delta.
        assert (
            self.run_summarize(
                model_path,
                corpus_path,
                out_flag,
                ["--config", str(cfg), "--delta", "1.0"],
            )
            == 0
        )
        with open(out_flag.with_name(out_flag.name + ".manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["config"]["delta"] == 1.0
        assert manifest["config"]["gamma"] == 0.0

    def test_grid_sweep_emits_one_file_per_point(self, model_path, corpus_path, tmp_path):
        out = tmp_path / "sweep.json"
        code = self.run_summarize(
            model_path,
            corpus_path,
            out,
            ["--delta-grid", "0,1", "--gamma-grid", "0,0.5"],
        )
        assert code == 0
        produced = sorted(
            p.name
            for p in tmp_path.glob("sweep.d*_g*.json")
            if not p.name.endswith(".manifest.json")
        )
        assert produced == [
            "sweep.d0_g0.5.json",
            "sweep.d0_g0.json",
            "sweep.d1_g0.5.json",
            "sweep.d1_g0.json",
        ]


class TestEvaluate:
    def make_generated(self, tmp_path):
        records = [
            {
                "pair_id": "harbor_hotel|garden_inn",
                "contrastive_a": "the rooftop pool overlooks the harbor",
                "contrastive_b": "the garden courtyard is quiet",
                "common": "the staff were friendly",
            }
        ]
        path = tmp_path / "generated.json"
        path.write_text(json.dumps(records))
        return path, records

    def test_perfect_match_scores_one(self, tmp_path):
        gen_path, records = self.make_generated(tmp_path)
        refs = tmp_path / "refs.jsonl"
        refs.write_text(
            json.dumps(
                {
                    "pair_id": records[0]["pair_id"],
                    "contrastive_a": [records[0]["contrastive_a"]],
                    "contrastive_b": [records[0]["contrastive_b"]],
                    "common": [records[0]["common"]],
                }
            )
            + "\n"
        )
        out = tmp_path / "metrics.json"
        code = main(
            [
                "evaluate",
                "--generated",
                str(gen_path),
                "--references",
                str(refs),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        pair = report["pairs"][records[0]["pair_id"]]
        for side in ("contrastive_a", "contrastive_b", "common"):
            assert pair[side]["rouge1"]["f1"] == 1.0
            assert pair[side]["rougeL"]["f1"] == 1.0

    def test_hand_computed_metrics(self, tmp_path):
        records = [
            {
                "pair_id": "p",
                "contrastive_a": "the cat sat",
                "contrastive_b": "the cat",
                "common": "a dog",
            }
        ]
        gen = tmp_path / "gen.json"
        gen.write_text(json.dumps(records))
        refs = tmp_path / "refs.jsonl"
        refs.write_text(
            json.dumps(
                {
                    "pair_id": "p",
                    "contrastive_a": ["the cat"],
                    "contrastive_b": ["the cat"],
                    "common": ["a dog"],
                }
            )
            + "\n"
        )
        out = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "evaluate",
                    "--generated",
                    str(gen),
                    "--references",
                    str(refs),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        report = json.loads(out.read_text())
        pair = report["pairs"]["p"]
        assert pair["contrastive_a"]["rouge1"]["f1"] == pytest.approx(0.8, abs=1e-9)
        assert pair["intra_rouge"]["rouge1"] == pytest.approx(0.8, abs=1e-9)
        # DS by hand: bags {the,cat,sat}, {the,cat}, {a,dog}.
        assert pair["distinctiveness"] == pytest.approx(1.0 - 2.0 / 5.0, abs=1e-9)

    def evaluate(self, tmp_path, gen_path, references_text):
        refs = tmp_path / "refs.jsonl"
        refs.write_text(references_text)
        return main(
            [
                "evaluate",
                "--generated",
                str(gen_path),
                "--references",
                str(refs),
                "--out",
                str(tmp_path / "m.json"),
            ]
        )

    def test_missing_reference_ids_listed(self, tmp_path, capsys):
        gen_path, _ = self.make_generated(tmp_path)
        assert self.evaluate(tmp_path, gen_path, "") == 1
        assert "harbor_hotel|garden_inn" in capsys.readouterr().err

    REFERENCE = {
        "pair_id": "harbor_hotel|garden_inn",
        "contrastive_a": ["a"],
        "contrastive_b": ["b"],
        "common": ["c"],
    }

    @pytest.mark.parametrize(
        "generated,references,named",
        [
            ("{}", None, "generated.json: expected a JSON list"),
            ("[1]", None, "generated.json record 1: expected a JSON object"),
            ("not json", None, "generated.json: Expecting value"),
            ('[{"pair_id": "p"}]', None, "record 1: missing key 'contrastive_a'"),
            ('[{"contrastive_a": ""}]', None, "record 1: missing key 'pair_id'"),
            (None, dict(REFERENCE, common=None), "refs.jsonl line 1: 'common' must be"),
            (None, {"common": ["c"]}, "refs.jsonl line 1: missing key 'pair_id'"),
            (None, {"pair_id": "p"}, "refs.jsonl line 1: missing key 'contrastive_a'"),
            (None, [REFERENCE], "refs.jsonl line 1: expected a JSON object"),
        ],
        ids=[
            "gen-not-list",
            "gen-not-object",
            "gen-not-json",
            "gen-no-side",
            "gen-no-pair-id",
            "ref-side-not-list",
            "ref-no-pair-id",
            "ref-no-side",
            "ref-not-object",
        ],
    )
    def test_malformed_records_are_one_error_line(
        self, tmp_path, capsys, generated, references, named
    ):
        gen_path, _ = self.make_generated(tmp_path)
        if generated is not None:
            gen_path.write_text(generated)
        reference = self.REFERENCE if references is None else references
        assert self.evaluate(tmp_path, gen_path, json.dumps(reference) + "\n") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
