"""Whole-CLI property: one mutated input file gives exit 0 or one error line.

Each example starts from valid inputs (the sample corpus, a model trained
on it, a decode config, and one pair's generated and reference files),
mutates one file, and runs ``cosum.cli.main`` in-process on a command that
reads it. The run must exit 0, or exit 1 with exactly one stderr line that
starts with ``error: ``; never a traceback. When a byte-level mutation
makes the run fail, that line names the mutated file.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from cosum.cli import main
from cosum.decoding import CONFIG_TYPES

PAIR = "harbor_hotel,garden_inn"
SHORT = [
    "--beam-width", "1", "--min-len", "2", "--max-len-contrastive", "6", "--max-len-common", "6",
]
CONFIG = "delta = 0.5\ngamma = 0.5\ntop_p = 0.9\nlength_penalty = 1.0\nmode = contrastive_poe\n"
# Files read as one JSON value; the corpus and the references are JSONL.
WHOLE_JSON = ("model.json", "generated.json")
# Which commands read each file; their argv is in argv().
READERS = {
    "model.json": ["summarize"],
    "reviews.jsonl": ["summarize", "train"],
    "decode.cfg": ["summarize"],
    "generated.json": ["evaluate"],
    "refs.jsonl": ["evaluate"],
}
VALUE_MUTATIONS = ("wrong type", "drop", "huge int", "non-finite")
BYTE_MUTATIONS = ("truncate", "bom", "invalid utf-8")
WRONG_TYPES = [None, True, 7, 0.5, "x", [], {}]
DEPTH = 100_000  # past any recursion limit, 200 KB of brackets
DEEP = "\0deep\0"  # stands for the nested value until the text is written
HUGE_TRADEOFFS = [1e3, 2e3, 1e10, 1e100, 1e308]


def argv(command, folder):
    """The argv of command on the input files in folder."""
    files = {name: str(folder / name) for name in READERS}
    out = str(folder / "out.json")
    if command == "train":
        return ["train", "--reviews", files["reviews.jsonl"], "--out", out]
    if command == "summarize":
        return [
            "summarize", "--model", files["model.json"], "--reviews", files["reviews.jsonl"],
            "--config", files["decode.cfg"], "--pair", PAIR, "--out", out, *SHORT,
        ]
    return [
        "evaluate", "--generated", files["generated.json"], "--references",
        files["refs.jsonl"], "--reviews", files["reviews.jsonl"], "--out", out,
    ]


def run(command, folder):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv(command, folder))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory, corpus_path):
    """{file name: bytes} of valid inputs that every command accepts."""
    folder = tmp_path_factory.mktemp("base")
    (folder / "reviews.jsonl").write_bytes(Path(corpus_path).read_bytes())
    (folder / "decode.cfg").write_text(CONFIG)
    assert run("train", folder) == (0, "")
    (folder / "out.json").rename(folder / "model.json")
    assert run("summarize", folder) == (0, "")
    (folder / "out.json").rename(folder / "generated.json")
    (record,) = json.loads((folder / "generated.json").read_text())
    reference = {key: [text] if key != "pair_id" else text for key, text in record.items()}
    (folder / "refs.jsonl").write_text(json.dumps(reference) + "\n")
    assert run("evaluate", folder) == (0, "")
    return {name: (folder / name).read_bytes() for name in READERS}


def mutate_value(data, value, kind):
    """Change one node below the root of value (a JSON object or list) by kind."""
    parent, key, node = None, None, value
    while isinstance(node, (dict, list)) and node and (parent is None or data.draw(st.booleans())):
        if isinstance(node, dict):
            key = data.draw(st.sampled_from(sorted(node)))
        else:
            key = data.draw(st.integers(0, len(node) - 1))
        parent, node = node, node[key]
    if kind == "drop":
        del parent[key]
    elif kind == "wrong type":
        parent[key] = data.draw(st.sampled_from([v for v in WRONG_TYPES if type(v) is not type(node)]))
    elif kind == "huge int":
        parent[key] = 10**400
    elif kind == "non-finite":
        parent[key] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:
        parent[key] = DEEP


def dump(value):
    """JSON text of value, with the DEEP placeholder nested DEPTH arrays deep."""
    return json.dumps(value).replace(json.dumps(DEEP), "[" * DEPTH + "]" * DEPTH)


def mutate_config(data, text, kind):
    """The key = value text with one line dropped, or one key set by kind."""
    lines = text.splitlines()
    if kind == "drop":
        del lines[data.draw(st.integers(0, len(lines) - 1))]
    elif kind == "huge trade-off":
        key = data.draw(st.sampled_from(["delta", "gamma", "length_penalty"]))
        lines.append(f"{key} = {data.draw(st.sampled_from(HUGE_TRADEOFFS))!r}")
    else:
        values = {
            "wrong type": ["abc", "2.5", "true", "[]", ""],
            "huge int": [str(10**400)],
            "non-finite": ["nan", "inf", "-inf"],
        }[kind]
        key = data.draw(st.sampled_from(sorted(CONFIG_TYPES)))
        lines.append(f"{key} = {data.draw(st.sampled_from(values))}")
    # A key set twice is its own error; the mutated line replaces the base one.
    last = {line.split("=")[0].strip(): line for line in lines}
    return "".join(line + "\n" for line in last.values())


def mutate_bytes(data, raw, kind):
    """raw with a BOM put first, a 0xff byte put in, or its end cut off."""
    if kind == "bom":
        return b"\xef\xbb\xbf" + raw
    if kind == "invalid utf-8":
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + b"\xff" + raw[at:]
    # Cut inside a line, so the file is left malformed, not just shorter.
    cuts = [at for at in range(1, len(raw)) if b"\n" not in raw[at - 1 : at + 1]]
    return raw[: data.draw(st.sampled_from(cuts))]


def mutate(data, name, raw):
    """(mutated bytes of file name, whether the mutation was byte-level)."""
    value_kinds = VALUE_MUTATIONS + (("huge trade-off",) if name == "decode.cfg" else ("deep",))
    kind = data.draw(st.sampled_from(value_kinds + BYTE_MUTATIONS))
    event(f"{name}: {kind}")
    if kind in BYTE_MUTATIONS:
        return mutate_bytes(data, raw, kind), True
    text = raw.decode()
    if name == "decode.cfg":
        return mutate_config(data, text, kind).encode(), False
    if name in WHOLE_JSON:
        value = json.loads(text)
        mutate_value(data, value, kind)
        return dump(value).encode(), False
    lines = text.splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    value = json.loads(lines[index])
    mutate_value(data, value, kind)
    lines[index] = dump(value)
    return "".join(line + "\n" for line in lines).encode(), False


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_mutated_input_file_is_exit_0_or_one_error_line(base, data):
    name = data.draw(st.sampled_from(sorted(READERS)))
    command = data.draw(st.sampled_from(READERS[name]))
    mutated, byte_level = mutate(data, name, base[name])
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        for other, raw in base.items():
            (folder / other).write_bytes(mutated if other == name else raw)
        code, err = run(command, folder)
        assert code in (0, 1), err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            if byte_level:
                assert str(folder / name) in err, err

