import itertools
import json
import os
import tracemalloc
from types import SimpleNamespace

import pytest

import cosum.cli
import cosum.decoding
import cosum.lm
from cosum.cli import main
from cosum.files import atomic_write_text
from cosum.metrics import ngrams
from cosum.vocab import tokenize_text


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_path):
    path = tmp_path_factory.mktemp("model") / "model.json"
    code = main(["train", "--reviews", corpus_path, "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def unseen_corpus_path(tmp_path_factory, corpus_path):
    """The sample corpus plus entity zz_unseen, whose words the model never saw."""
    path = tmp_path_factory.mktemp("unseen") / "reviews.jsonl"
    unseen = "".join(
        json.dumps({"entity_id": "zz_unseen", "review_id": f"u{i}", "text": text}) + "\n"
        for i, text in enumerate(["qwxv blorp snizzle fremp"] * 3)
    )
    with open(corpus_path) as fh:
        path.write_text(fh.read() + unseen)
    return str(path)


# A valid model file's payload; bad-input cases change one key.
MODEL = {
    "format_version": 1,
    "vocabulary": ["ok"],
    "order": 1,
    "eps": 0.1,
    "lambda": 0.5,
    "cache_order": 1,
    "counts": [[[], [[1, 1], [3, 1]]]],
}


def model(**changes):
    return json.dumps(dict(MODEL, **changes))


def test_dispatch_runs_the_command_the_module_holds_now(monkeypatch, tmp_path):
    missing = str(tmp_path / "missing.jsonl")
    argv = ["train", "--reviews", missing, "--out", str(tmp_path / "m.json")]
    assert main(argv) == 1  # the real cmd_train, through the process's parser
    calls = []
    monkeypatch.setattr(cosum.cli, "cmd_train", lambda args: calls.append(args) or 0)
    assert main(argv) == 0 and main(argv) == 0
    assert [args.reviews for args in calls] == [missing, missing]
    monkeypatch.undo()
    assert main(argv) == 1


SUMMARIZE_FAST = ["--min-len", "3", "--max-len-contrastive", "25", "--max-len-common", "15"]
SHORT = ["--max-len-contrastive", "12", "--max-len-common", "12", "--min-len", "2"]


def write(path, content):
    """Write str content as text and bytes as they are; return path."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return path


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

    def test_atomic_writes_get_the_mode_of_a_plain_open(self, corpus_path, tmp_path):
        # The model and its manifest are written through a temporary file
        # and renamed; both get the mode a plainly opened file gets.
        out = tmp_path / "m.json"
        plain = tmp_path / "plain"
        umask = os.umask(0o022)
        try:
            assert main(["train", "--reviews", corpus_path, "--out", str(out)]) == 0
            plain.write_text("")
        finally:
            os.umask(umask)
        manifest = tmp_path / "m.json.manifest.json"
        assert manifest.stat().st_mode == out.stat().st_mode == plain.stat().st_mode

    def test_failed_serialisation_keeps_the_old_model(
        self, model_path, corpus_path, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "m.json"
        with open(model_path, "rb") as fh:
            old = fh.read()
        out.write_bytes(old)

        def dumps(*args, **kwargs):
            raise ValueError("cannot serialise")

        monkeypatch.setattr(cosum.lm, "json", SimpleNamespace(dumps=dumps))
        assert main(["train", "--reviews", corpus_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: cannot serialise\n"
        assert out.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    def test_writing_onto_a_directory_names_it_and_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as excinfo:
            atomic_write_text(str(target), "text")
        assert excinfo.value.filename == str(target)
        assert not list(tmp_path.glob("*.tmp"))

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

    def test_non_finite_eps_is_one_error_line(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "m.json"
        argv = ["train", "--reviews", corpus_path, "--out", str(out), "--eps", "nan"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: smoothing mass must be finite and > 0\n"
        assert not list(tmp_path.iterdir())

    def test_missing_corpus_fails(self, tmp_path, capsys):
        code = main(
            ["train", "--reviews", str(tmp_path / "none.jsonl"), "--out", "x.json"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_corpus_reads_as_in_every_command(self, tmp_path, capsys):
        missing = str(tmp_path / "none.jsonl")
        out = str(tmp_path / "x.json")
        assert main(["train", "--reviews", missing, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
        argv = ["build-synthetic", "--reviews", missing, "--task", "common", "--out", out]
        assert main(argv) == 1
        assert capsys.readouterr().err == err
        assert not list(tmp_path.iterdir())

    def test_missing_output_directory_names_the_output(
        self, model_path, corpus_path, tmp_path, capsys, monkeypatch
    ):
        # Not the temporary file the output is written through.
        out = str(tmp_path / "none" / "x.json")
        err = f"error: [Errno 2] No such file or directory: {out!r}\n"
        assert main(["train", "--reviews", corpus_path, "--out", out]) == 1
        assert capsys.readouterr().err == err
        decoded, decode = [], cosum.cli.summarize_pair
        monkeypatch.setattr(
            cosum.cli, "summarize_pair", lambda *args: decoded.append(args) or decode(*args)
        )
        argv = ["summarize", "--model", model_path, "--reviews", corpus_path]
        argv += ["--pair", "harbor_hotel,garden_inn", "--out", out] + SHORT
        assert main(argv) == 1
        assert capsys.readouterr().err == err
        assert not list(tmp_path.iterdir())
        assert decoded == []  # found before any pair is decoded


class TestBuildSynthetic:
    @pytest.mark.parametrize("flag", ["n", "k"])
    def test_count_below_one_is_one_error_line(self, corpus_path, tmp_path, capsys, flag):
        out = tmp_path / "pairs.jsonl"
        argv = ["build-synthetic", "--reviews", corpus_path, "--task", "common"]
        assert main(argv + [f"--{flag}", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be >= 1\n"
        assert not list(tmp_path.iterdir())

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
    def run_summarize(self, model_path, corpus_path, out, extra=(), pair="harbor_hotel,garden_inn"):
        argv = ["summarize", "--model", str(model_path), "--reviews", str(corpus_path)]
        return main(argv + ["--pair", pair, "--out", str(out), *SUMMARIZE_FAST, *extra])

    def test_identical_pair_with_zero_tradeoffs(self, model_path, corpus_path, tmp_path):
        out = tmp_path / "same.json"
        zero = ["--delta", "0", "--gamma", "0"]
        assert self.run_summarize(model_path, corpus_path, out, zero, "harbor_hotel,harbor_hotel") == 0
        (record,) = json.loads(out.read_text())
        assert record["contrastive_a"] == record["contrastive_b"]

    def test_pair_swap_equivariance(self, model_path, corpus_path, tmp_path):
        out_ab = tmp_path / "ab.json"
        out_ba = tmp_path / "ba.json"
        assert self.run_summarize(model_path, corpus_path, out_ab) == 0
        assert self.run_summarize(model_path, corpus_path, out_ba, (), "garden_inn,harbor_hotel") == 0
        (ab,) = json.loads(out_ab.read_text())
        (ba,) = json.loads(out_ba.read_text())
        assert ab["contrastive_a"] == ba["contrastive_b"]
        assert ab["contrastive_b"] == ba["contrastive_a"]
        assert ab["common"] == ba["common"]

    def decode_unseen(self, model_path, unseen_corpus_path, out, flags):
        pair = "airport_express,zz_unseen"
        return self.run_summarize(model_path, unseen_corpus_path, out, flags, pair)

    def test_unseen_words_never_emit_unk(self, model_path, unseen_corpus_path, tmp_path):
        out = tmp_path / "unseen.json"
        flags = ["--max-len-contrastive", "12", "--max-len-common", "12", "--min-len", "5"]
        assert self.decode_unseen(model_path, unseen_corpus_path, out, flags) == 0
        (record,) = json.loads(out.read_text())
        for side in ("contrastive_a", "contrastive_b", "common"):
            assert record[side] and "<unk>" not in record[side]

    def test_unk_only_nucleus_decodes_without_unk(self, model_path, unseen_corpus_path, tmp_path):
        # At top-p 0.5 zz_unseen's nucleus holds only <unk>; masking empties
        # the step, which then comes from LM distributions without <unk>.
        out = tmp_path / "unseen.json"
        assert self.decode_unseen(model_path, unseen_corpus_path, out, ["--top-p", "0.5"]) == 0
        (record,) = json.loads(out.read_text())
        for side in ("contrastive_a", "contrastive_b", "common"):
            assert record[side] and "<unk>" not in record[side]

    def test_unknown_entity_named_in_error(self, model_path, corpus_path, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert self.run_summarize(model_path, corpus_path, out, (), "harbor_hotel,atlantis") == 1
        assert "atlantis" in capsys.readouterr().err

    def test_repeated_pair_is_one_error_line(self, model_path, corpus_path, tmp_path, capsys):
        out = tmp_path / "x.json"
        again = ["--pair", "harbor_hotel, garden_inn"]
        assert self.run_summarize(model_path, corpus_path, out, again) == 1
        assert capsys.readouterr().err == "error: pair 'harbor_hotel, garden_inn' is given twice\n"
        assert not list(tmp_path.iterdir())

    def test_side_with_only_masked_mass_names_pair_and_side(
        self, unseen_corpus_path, corpus_path, tmp_path, capsys
    ):
        # With lambda 1 the model is the cache alone: zz_unseen's reviews give
        # mass only to <unk> and EOS, so the masked LM is empty too.
        cache_only = tmp_path / "cache_only.json"
        assert main(["train", "--reviews", corpus_path, "--out", str(cache_only), "--lam", "1"]) == 0
        out = tmp_path / "unseen.json"
        assert self.decode_unseen(cache_only, unseen_corpus_path, out, []) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(
            "error: pair airport_express|zz_unseen, contrastive_b: empty step distribution"
        )
        assert "<unk>" in err
        assert not out.exists()

    REVIEW = '{"entity_id": "x", "review_id": "1", "text": "ok"}\n'
    # Past the text layer's first 8 KB chunk, so a bad byte's offset is not the chunk's.
    LONG_REVIEWS = "".join(
        json.dumps({"entity_id": "x", "review_id": str(i), "text": "ok " * 40}) + "\n"
        for i in range(250)
    ).encode()

    @pytest.mark.parametrize(
        "flags,model_text,reviews_text,config_text,named",
        [
            (["--delta-grid", ","], None, None, None, "error: empty grid: ','"),
            (["--gamma-grid", " "], None, None, None, "error: empty grid: ' '"),
            ([], "not json", None, None, "bad_model.json: Expecting value: line 1"),
            ([], "[]", None, None, "bad_model.json: expected a JSON object"),
            ([], '{"format_version": 1}', None, None, "bad_model.json: missing key 'voc"),
            ([], None, REVIEW + "7\n", None, "bad.jsonl line 2: expected a JSON object"),
            (
                [],
                None,
                REVIEW + '{"entity_id": "x", "review_id": "2", "text": 3}\n',
                None,
                "bad.jsonl line 2: 'text' must be a string",
            ),
            (
                [],
                None,
                REVIEW + '{"entity_id": 1, "review_id": "2", "text": "ok"}\n',
                None,
                "bad.jsonl line 2: 'entity_id' must be a string",
            ),
            (
                [],
                None,
                REVIEW + '{"entity_id": "x", "review_id": null, "text": "ok"}\n',
                None,
                "bad.jsonl line 2: 'review_id' must be a string",
            ),
            (
                [],
                None,
                REVIEW + '{"entity_id": "x", "review_id": "2", "text": ""}\n',
                None,
                "bad.jsonl line 2: review text must be non-empty",
            ),
            (
                [],
                None,
                None,
                "delta = abc\n",
                "bad.cfg line 1: delta: could not convert string to float: 'abc'",
            ),
            ([], None, None, "# comment\n\nbeam_width = 2.5\n", "bad.cfg line 3: beam_width: invalid"),
            ([], None, None, "gamma = 0\njust words\n", "bad.cfg line 2: expected key=value"),
            ([], None, None, "temperature = 1\n", "bad.cfg line 1: unknown config key 'temp"),
            ([], None, None, "top_p = 2\n", "bad.cfg: top_p must be in (0, 1]"),
            ([], model(order="x"), None, None, "bad_model.json: 'order' must be an integer"),
            ([], model(order=True), None, None, "bad_model.json: 'order' must be an integer"),
            ([], model(cache_order=1.0), None, None, "bad_model.json: 'cache_order' must be"),
            ([], model(eps="1"), None, None, "bad_model.json: 'eps' must be a number"),
            ([], model(**{"lambda": None}), None, None, "bad_model.json: 'lambda' must be a"),
            ([], model(vocabulary=[1, 2]), None, None, "bad_model.json: 'vocabulary' must be"),
            ([], model(vocabulary=["ok", "ok"]), None, None, "'vocabulary' must be a list of distinct"),
            ([], model(vocabulary=["ok", "<unk>"]), None, None, "'vocabulary' must be a list of dist"),
            ([], model(counts={}), None, None, "bad_model.json: 'counts' must be a list"),
            ([], model(counts=[[1]]), None, None, "bad_model.json: 'counts' entry 1 must be"),
            ([], model(counts=[[[], [[1]]]]), None, None, "bad_model.json: 'counts' entry 1"),
            ([], model(counts=[[[], [["ok", 1]]]]), None, None, "bad_model.json: 'counts' entry 1"),
            ([], model(**{"lambda": 2}), None, None, "bad_model.json: interpolation weight"),
            ([], model(order=0), None, None, "bad_model.json: order must be >= 1"),
            (
                [],
                model(counts=MODEL["counts"] + [[[0], [[1, 1]]]]),
                None,
                None,
                "bad_model.json: 'counts' entry 2 must be [context ids, [[token id, count],"
                " ...]] with order - 1 context ids in [0, |V|), token ids in [1, |V|) and"
                " counts >= 1",
            ),
            (
                [],
                model(order=2, cache_order=2, counts=[[[0, 0, 0], [[1, 1]]]]),
                None,
                None,
                "bad_model.json: 'counts' entry 1 must be",
            ),
            (
                [],
                model(order=2, cache_order=2, counts=[[[0], [[1, 1]]], [[4], [[1, 1]]]]),
                None,
                None,
                "bad_model.json: 'counts' entry 2 must be",
            ),
            (
                [],
                model(order=2, cache_order=2, counts=[[[-1], [[1, 1]]]]),
                None,
                None,
                "bad_model.json: 'counts' entry 1 must be",
            ),
            (
                [],
                model(counts=[[[], [[1, 1], [3, 1], [99, 5]]]]),
                None,
                None,
                "bad_model.json: 'counts' entry 1 must be",
            ),
            ([], model(counts=[[[], [[0, 1]]]]), None, None, "bad_model.json: 'counts' entry 1"),
            ([], model(counts=[[[], [[1, 0]]]]), None, None, "bad_model.json: 'counts' entry 1"),
            (
                [],
                model(counts=[[[], [[3, 7], [3, 2]]]]),
                None,
                None,
                "bad_model.json: 'counts' entry 1 repeats a token id",
            ),
            (
                [],
                model(counts=[[[], [[1, 1], [3, 1]]], [[], [[3, 7]]]]),
                None,
                None,
                "bad_model.json: 'counts' entry 2 repeats a context",
            ),
            (
                [],
                model(eps=float("nan")),
                None,
                None,
                "bad_model.json: smoothing mass must be finite and > 0",
            ),
            (
                [],
                model(counts=[[[], [[1, 10**400], [3, 1]]]]),
                None,
                None,
                "bad_model.json: 'counts' entry 1 sums past the float range",
            ),
            (
                [],
                model(
                    order=2,
                    cache_order=2,
                    counts=[[[0], [[1, 1]]], [[1], [[1, 10**308], [3, 10**308]]]],
                ),
                None,
                None,
                "bad_model.json: 'counts' entry 2 sums past the float range",
            ),
            (
                [],
                model(order=10**400, counts=[]),
                None,
                None,
                "bad_model.json: 'counts' must not be empty\n",
            ),
            (
                [],
                model(order=10**400),
                None,
                None,
                "bad_model.json: 'counts' entry 1 must be",
            ),
            (
                [],
                model(cache_order=10**400),
                None,
                None,
                "bad_model.json: 'cache_order' must equal 'order'\n",
            ),
            (
                [],
                model(order=2, cache_order=1, counts=[[[0], [[1, 1]]]]),
                None,
                None,
                "bad_model.json: 'cache_order' must equal 'order'\n",
            ),
            ([], "[" * 100_000, None, None, "bad_model.json: maximum recursion depth"),
            (
                [],
                None,
                REVIEW + "[" * 100_000 + "\n",
                None,
                "bad.jsonl line 2: maximum recursion depth",
            ),
            ([], b"\xff", None, None, "bad_model.json: 'utf-8' codec can't decode byte 0xff"),
            ([], None, REVIEW.encode() + b"\xff\n", None, "bad.jsonl: 'utf-8' codec can't"),
            ([], None, None, b"delta = 0.5\n\xff\n", "bad.cfg: 'utf-8' codec can't decode"),
            (["--length-penalty", "nan"], None, None, None, "error: delta, gamma and length"),
            (["--delta", "inf"], None, None, None, "must be finite and >= 0"),
            (["--gamma", "nan"], None, None, None, "must be finite and >= 0"),
            (["--delta-grid", "0,nan"], None, None, None, "must be finite and >= 0"),
            (["--gamma-grid", "0.5,inf"], None, None, None, "must be finite and >= 0"),
            ([], None, None, "delta = nan\n", "bad.cfg: delta, gamma and length_penalty must be"),
            ([], None, None, "gamma = inf\n", "bad.cfg: delta, gamma and length_penalty must be"),
            (
                ["--delta-grid", "0.1234567,0.1234568"],
                None,
                None,
                None,
                "/out.d0.123457_g0.5.json\n",
            ),
            (["--gamma-grid", "0.5,0.50"], None, None, None, "two grid points would write"),
            ([], None, None, "delta = 0.5\ndelta = 2\n", "bad.cfg line 2: repeats key 'delta'"),
            (
                ["--delta", "1000"] + SHORT,
                None,
                None,
                None,
                "error: pair harbor_hotel|garden_inn, contrastive_a: a value overflowed: (34,",
            ),
            (
                ["--length-penalty", "2000"] + SHORT,
                None,
                None,
                None,
                "error: pair harbor_hotel|garden_inn, contrastive_a: a value overflowed: (34,",
            ),
            (
                ["--gamma", "1e308"] + SHORT,
                None,
                None,
                None,
                "error: pair harbor_hotel|garden_inn, common: a weight overflowed:"
                " the total is inf\n",
            ),
            ([], None, None, "delta = 1000\n", "contrastive_a: a value overflowed: (34,"),
            (["--delta-grid", "0,1000"], None, None, None, "contrastive_a: a value overflowed: (34,"),
            (
                ["--delta", "200"] + SHORT,
                None,
                None,
                None,
                "error: pair harbor_hotel|garden_inn, contrastive_a: a probability"
                " underflowed to 0.0\n",
            ),
            (
                ["--gamma", "1.5e308"] + SHORT,
                None,
                None,
                None,
                "error: pair harbor_hotel|garden_inn, common: a weight overflowed:"
                " the total is inf\n",
            ),
            (
                [],
                None,
                LONG_REVIEWS + b"\xff\n",
                None,
                f"bad.jsonl: 'utf-8' codec can't decode byte 0xff in position {len(LONG_REVIEWS)}:",
            ),
            (
                [],
                None,
                REVIEW.encode() + b"{\n" + LONG_REVIEWS + b"\xff\n",
                None,
                "bad.jsonl: 'utf-8' codec can't decode byte 0xff in position"
                f" {len(REVIEW) + 2 + len(LONG_REVIEWS)}:",
            ),
            (
                ["--pair", "x|y,z"],
                None,
                "".join(
                    json.dumps({"entity_id": e, "review_id": "1", "text": "ok"}) + "\n"
                    for e in ("harbor_hotel", "garden_inn", "x|y", "z")
                ),
                None,
                "error: entity id 'x|y' contains the pair separator '|'\n",
            ),
            (
                ["--delta", "7", "--delta-grid", "0,1"],
                None,
                None,
                None,
                "error: --delta and --delta-grid both set delta; give one\n",
            ),
            (
                ["--gamma", "3", "--gamma-grid", "0,1"],
                None,
                None,
                None,
                "error: --gamma and --gamma-grid both set gamma; give one\n",
            ),
            (["--delta-grid", "0,x"], None, None, None, "error: invalid grid value: 0,x\n"),
            (
                ["--pair", "harbor_hotel"],
                None,
                None,
                None,
                "error: pair must be 'A,B', got 'harbor_hotel'\n",
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
            "review-entity-id-not-string",
            "review-id-null",
            "review-text-empty",
            "config-value-not-float",
            "config-value-not-int",
            "config-line-not-key-value",
            "config-unknown-key",
            "config-value-out-of-range",
            "model-order-not-int",
            "model-order-bool",
            "model-cache-order-float",
            "model-eps-not-number",
            "model-lambda-null",
            "model-vocabulary-not-strings",
            "model-vocabulary-repeats-a-token",
            "model-vocabulary-holds-a-reserved-token",
            "model-counts-not-list",
            "model-counts-entry-short",
            "model-counts-item-not-pair",
            "model-counts-item-not-ints",
            "model-lambda-out-of-range",
            "model-order-out-of-range",
            "model-context-too-long",
            "model-context-too-long-order-2",
            "model-context-id-too-large",
            "model-context-id-negative",
            "model-token-id-too-large",
            "model-token-id-bos",
            "model-count-zero",
            "model-token-id-repeated",
            "model-context-repeated",
            "model-eps-nan",
            "model-count-too-large-for-a-float",
            "model-counts-sum-too-large-for-a-float",
            "model-counts-empty",
            "model-order-past-its-contexts",
            "model-cache-order-past-order",
            "model-cache-order-below-order",
            "model-nested-too-deep",
            "review-nested-too-deep",
            "model-not-utf-8",
            "review-not-utf-8",
            "config-not-utf-8",
            "length-penalty-nan",
            "delta-inf",
            "gamma-nan",
            "delta-grid-nan",
            "gamma-grid-inf",
            "config-delta-nan",
            "config-gamma-inf",
            "delta-grid-points-share-a-path",
            "gamma-grid-repeats-a-value",
            "config-repeats-a-key",
            "delta-overflows",
            "length-penalty-overflows",
            "gamma-overflows",
            "config-delta-overflows",
            "delta-grid-overflows-at-its-second-point",
            "delta-underflows",
            "gamma-overflows-to-nan",
            "review-not-utf-8-past-the-first-8-kb",
            "review-not-utf-8-after-a-malformed-line",
            "entity-id-holds-the-pair-separator",
            "delta-and-delta-grid",
            "gamma-and-gamma-grid",
            "delta-grid-value-not-a-number",
            "pair-without-a-comma",
        ],
    )
    def test_bad_input_is_one_error_line(
        self, model_path, corpus_path, tmp_path, capsys,
        flags, model_text, reviews_text, config_text, named,
    ):
        if model_text is not None:
            model_path = write(tmp_path / "bad_model.json", model_text)
        if reviews_text is not None:
            corpus_path = write(tmp_path / "bad.jsonl", reviews_text)
        if config_text is not None:
            config = write(tmp_path / "bad.cfg", config_text)
            flags = flags + ["--config", str(config)]
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

    def test_grid_flags_override_the_config_files_values(self, model_path, corpus_path, tmp_path):
        # CLI flag > config file, so a grid is no conflict with the file's delta and gamma.
        cfg = write(tmp_path / "decode.cfg", "delta = 0.25\ngamma = 0.75\n")
        grid = ["--config", str(cfg), "--delta-grid", "0", "--gamma-grid", "0.5", *SHORT]
        assert self.run_summarize(model_path, corpus_path, tmp_path / "sweep.json", grid) == 0
        manifest = json.loads((tmp_path / "sweep.d0_g0.5.json.manifest.json").read_text())
        assert (manifest["config"]["delta"], manifest["config"]["gamma"]) == (0.0, 0.5)

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

    @pytest.mark.parametrize("mode,decodes", [("contrastive_poe", 8), ("base", 3)])
    def test_grid_decodes_each_side_once_per_value_it_reads(
        self, model_path, corpus_path, tmp_path, monkeypatch, mode, decodes
    ):
        # Contrastive sides read delta (3 values x 2 sides), the common side
        # reads gamma (2 values); base reads neither.
        calls = []
        beam_decode = cosum.decoding.beam_decode

        def counted(*args, **kwargs):
            calls.append(args)
            return beam_decode(*args, **kwargs)

        monkeypatch.setattr(cosum.decoding, "beam_decode", counted)
        grid = ["--delta-grid", "0,0.5,1", "--gamma-grid", "0,0.5", "--mode", mode]
        sweep = tmp_path / "sweep.json"
        assert self.run_summarize(model_path, corpus_path, sweep, grid) == 0
        assert len(calls) == decodes
        for delta, gamma in itertools.product(("0", "0.5", "1"), ("0", "0.5")):
            single = tmp_path / "single.json"
            point = ["--delta", delta, "--gamma", gamma, "--mode", mode]
            assert self.run_summarize(model_path, corpus_path, single, point) == 0
            swept = tmp_path / f"sweep.d{delta}_g{gamma}.json"
            assert swept.read_bytes() == single.read_bytes()

    def test_memory_stays_flat_over_many_pairs(
        self, model_path, corpus_path, sample_corpus, tmp_path
    ):
        """summarize holds one pair's conditions at a time, whatever the grid."""
        entities = [es.entity_id for es in sample_corpus]
        pairs = [f"{a},{b}" for a, b in itertools.combinations(entities, 2)]
        grid = ["--delta-grid", "0,1", "--gamma-grid", "0,0.5", "--beam-width", "2", *SHORT]

        def peak_bytes(chosen):
            more = [arg for pair in chosen[1:] for arg in ("--pair", pair)]
            tracemalloc.start()
            try:
                out = tmp_path / "sweep.json"
                assert self.run_summarize(model_path, corpus_path, out, grid + more, chosen[0]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Holding every pair's cache counts and memos until the files are
        # written reads about 2.2 MB at 7 pairs and 8 MB at 28.
        assert len(pairs) == 28
        assert peak_bytes(pairs) <= 1.5 * peak_bytes(pairs[:7])


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
        refs = write(tmp_path / "refs.jsonl", references_text)
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
            ("[" * 100_000, None, "generated.json: maximum recursion depth"),
            (None, "[" * 100_000 + "\n", "refs.jsonl line 1: maximum recursion depth"),
            (b'[{"pair_id": "\xff"}]', None, "generated.json: 'utf-8' codec can't decode"),
            (None, b"\xff\n", "refs.jsonl: 'utf-8' codec can't decode byte 0xff"),
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
            "gen-nested-too-deep",
            "ref-nested-too-deep",
            "gen-not-utf-8",
            "ref-not-utf-8",
        ],
    )
    def test_malformed_records_are_one_error_line(
        self, tmp_path, capsys, generated, references, named
    ):
        gen_path, _ = self.make_generated(tmp_path)
        if generated is not None:
            write(gen_path, generated)
        # A string or bytes is the references file's text; anything else is its one record.
        if not isinstance(references, (str, bytes)):
            reference = self.REFERENCE if references is None else references
            references = json.dumps(reference) + "\n"
        assert self.evaluate(tmp_path, gen_path, references) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("repeated", ["generated", "references"])
    def test_repeated_pair_id_is_one_error_line(self, tmp_path, capsys, repeated):
        gen_path, records = self.make_generated(tmp_path)
        references = [self.REFERENCE]
        if repeated == "generated":
            gen_path.write_text(json.dumps(records * 2))
            named = f"{gen_path} record 2: repeats pair_id 'harbor_hotel|garden_inn'"
        else:
            references *= 2
            named = "refs.jsonl line 2: repeats pair_id 'harbor_hotel|garden_inn'"
        text = "".join(json.dumps(r) + "\n" for r in references)
        assert self.evaluate(tmp_path, gen_path, text) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "changes,with_reviews,named",
        [
            (
                {"pair_id": "harbor_hotel"},
                True,
                "pair harbor_hotel: pair_id must be 'A|B' to look up --reviews",
            ),
            (
                {"pair_id": "harbor_hotel|atlantis"},
                True,
                "pair harbor_hotel|atlantis: unknown entity id: atlantis",
            ),
            (
                {"common": ""},
                False,
                "pair harbor_hotel|garden_inn: empty summary",
            ),
            (
                {"pair_id": "harbor_hotel|garden_inn|airport_express"},
                True,
                "pair harbor_hotel|garden_inn|airport_express:"
                " pair_id must be 'A|B' to look up --reviews",
            ),
        ],
        ids=["pair-id-without-bar", "unknown-entity", "empty-side", "pair-id-with-two-bars"],
    )
    def test_scoring_errors_name_file_and_pair(
        self, tmp_path, capsys, corpus_path, changes, with_reviews, named
    ):
        gen_path, records = self.make_generated(tmp_path)
        record = dict(records[0], **changes)
        gen_path.write_text(json.dumps([record]))
        reference = dict(self.REFERENCE, pair_id=record["pair_id"])
        refs = tmp_path / "refs.jsonl"
        refs.write_text(json.dumps(reference) + "\n")
        argv = ["evaluate", "--generated", str(gen_path), "--references", str(refs)]
        argv += ["--out", str(tmp_path / "m.json")]
        if with_reviews:
            argv += ["--reviews", corpus_path]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {gen_path}: {named}\n"
        assert not (tmp_path / "m.json").exists()


def reference_novel_rate(summary, input_tokens, n):
    """Novel n-gram rate from token lists, built apart from the CLI's cached sets."""
    if len(summary) < n:
        raise ValueError("summary too short")
    summary_grams = set(ngrams(summary, n))
    return len(summary_grams - set(ngrams(input_tokens, n))) / len(summary_grams)


def test_evaluate_novelty_matches_novel_ngram_rate_across_the_junction(tmp_path):
    """The common side's source is source_a + source_b, so a bigram made of
    a's last token and b's first token is not novel for it."""
    rows = [
        ("a", "a1", "red apple ."),
        ("a", "a2", "ripe plum"),
        ("b", "b1", "green pear ."),
    ]
    reviews = tmp_path / "reviews.jsonl"
    reviews.write_text(
        "".join(
            json.dumps({"entity_id": e, "review_id": r, "text": t}) + "\n"
            for e, r, t in rows
        )
    )
    # "plum green" occurs only across the junction of the two sources.
    summaries = {
        "contrastive_a": "red plum",
        "contrastive_b": "pear .",
        "common": "plum green",
    }
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps([dict(pair_id="a|b", **summaries)]))
    refs = tmp_path / "refs.jsonl"
    refs.write_text(
        json.dumps(dict(pair_id="a|b", **{s: [t] for s, t in summaries.items()})) + "\n"
    )
    out = tmp_path / "m.json"
    argv = ["evaluate", "--generated", str(gen), "--references", str(refs)]
    assert main(argv + ["--reviews", str(reviews), "--out", str(out)]) == 0
    novelty = json.loads(out.read_text())["pairs"]["a|b"]["novelty"]

    source_a = tokenize_text("red apple . ripe plum")
    source_b = tokenize_text("green pear .")
    sources = {
        "contrastive_a": source_a,
        "contrastive_b": source_b,
        "common": source_a + source_b,
    }
    for side, source in sources.items():
        for n in (1, 2):
            expected = reference_novel_rate(tokenize_text(summaries[side]), source, n)
            assert novelty[side][f"novel_{n}gram"] == expected, (side, n)
    assert novelty["common"]["novel_2gram"] == 0.0
    assert reference_novel_rate(["plum", "green"], source_a, 2) == 1.0
    assert reference_novel_rate(["plum", "green"], source_b, 2) == 1.0
