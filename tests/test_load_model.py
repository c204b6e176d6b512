"""load_model's bulk check of the counts table against the per-entry reference,
and its pause of the cyclic garbage collector.

`_count_entry` and `reference_counts` are the per-entry check load_model ran
before it checked the whole table at once, kept verbatim but for the names
of their inputs. For random valid tables and random mutations of them,
load_model must give the same counts, in the same order, or the same error
message.
"""

import gc
import json
import sys
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosum.lm import load_model
from cosum.vocab import BOS_ID

_COUNT_ENTRY = (
    "[context ids, [[token id, count], ...]] with order - 1 context ids"
    " in [0, |V|), token ids in [1, |V|) and counts >= 1"
)


def _count_entry(
    entry: object, ctx_len: int, ids: range
) -> Optional[Tuple[tuple, Dict[int, int]]]:
    """(context, counts) from a _COUNT_ENTRY over the token ids `ids`, or None."""
    try:
        ctx, items = entry
        ctx, counter = tuple(ctx), dict(items)
    except (TypeError, ValueError):
        return None
    types = {*map(type, ctx), *map(type, counter), *map(type, counter.values())}
    valid = (
        types <= {int}
        and len(ctx) == ctx_len
        and all(map(ids.__contains__, ctx))
        and all(map(ids.__contains__, counter))
        and BOS_ID not in counter
        and (not counter or min(counter.values()) >= 1)
    )
    return (ctx, counter) if valid else None


def reference_counts(path: str, entries: list, order: int, size: int) -> dict:
    counts: dict = {}
    for index, entry in enumerate(entries, start=1):
        parsed = _count_entry(entry, order - 1, range(size))
        if parsed is None:
            raise ValueError(f"{path}: 'counts' entry {index} must be {_COUNT_ENTRY}")
        ctx, counter = parsed
        if len(counter) < len(entry[1]):
            raise ValueError(f"{path}: 'counts' entry {index} repeats a token id")
        if ctx in counts:
            raise ValueError(f"{path}: 'counts' entry {index} repeats a context")
        if sum(counter.values()) > sys.float_info.max:
            raise ValueError(f"{path}: 'counts' entry {index} sums past the float range")
        counts[ctx] = counter
    return counts


def outcome(load) -> str:
    """repr of the counts in insertion order (so True != 1 != 1.0), or the error."""
    try:
        counts = load()
    except ValueError as exc:
        return str(exc)
    return repr([(ctx, list(row.items())) for ctx, row in counts.items()])


@st.composite
def valid_tables(draw):
    """(order, |V|, entries) as train would write them, empty rows allowed."""
    order = draw(st.integers(min_value=1, max_value=3))
    size = draw(st.integers(min_value=4, max_value=8))
    ids = st.integers(min_value=0, max_value=size - 1)
    contexts = draw(
        st.lists(st.tuples(*[ids] * (order - 1)), min_size=1, max_size=6, unique=True)
    )
    entries = []
    for ctx in contexts:
        row = draw(
            st.dictionaries(
                st.integers(min_value=1, max_value=size - 1),
                st.integers(min_value=1, max_value=50),
                max_size=4,
            )
        )
        entries.append([list(ctx), [[t, c] for t, c in row.items()]])
    return order, size, entries


# Values that replace a whole entry: not a pair, or a pair that is not
# [context ids, items]; ["", ""] and [{}, {}] are empty pairs the reference reads.
ODD_ENTRIES = [None, 3, "ab", "", {}, [], [[]], [[], [], []], ["", ""], [{}, {}],
               {"a": 1, "b": 2}, [[], {"1": 2}], [[], ""], [[], [[1]]], [[], [["ab"]]],
               [[], [[[1], 2]]], [[[1]], [[1, 1]]], [1, [[1, 1]]]]


MUTATIONS = ["true", "float", "range", "bos", "zero", "repeat-token", "repeat-context",
             "length", "huge", "entry"]


def mutate(data, entries: list, size: int, kind: str) -> None:
    """Apply one mutation of this kind in place; "entry" must come last."""
    index = data.draw(st.integers(min_value=0, max_value=len(entries) - 1))
    if kind == "entry":
        entries[index] = data.draw(st.sampled_from(ODD_ENTRIES))
        return
    ctx, items = entries[index]
    if kind == "repeat-context":
        count = data.draw(st.integers(min_value=1, max_value=3))
        at = data.draw(st.integers(min_value=0, max_value=len(entries)))
        entries.insert(at, [list(ctx), [[size - 1, count]]])
    elif kind == "length":
        if ctx and data.draw(st.booleans()):
            ctx.pop()
        else:
            ctx.append(data.draw(st.integers(min_value=0, max_value=size - 1)))
    elif kind in ("true", "float", "range") and ctx and data.draw(st.booleans()):
        j = data.draw(st.integers(min_value=0, max_value=len(ctx) - 1))
        ctx[j] = {
            "true": data.draw(st.booleans()),
            "float": float(ctx[j]),
            "range": data.draw(st.sampled_from([-1, -5, size, size + 3])),
        }[kind]
    elif items:
        j = data.draw(st.integers(min_value=0, max_value=len(items) - 1))
        item = items[j]
        if kind == "true":
            item[data.draw(st.integers(min_value=0, max_value=1))] = data.draw(st.booleans())
        elif kind == "float":
            item[0] = float(item[0])
        elif kind == "range":
            item[0] = data.draw(st.sampled_from([-1, size, size + 3]))
        elif kind == "bos":
            item[0] = BOS_ID
        elif kind == "zero":
            item[1] = data.draw(st.sampled_from([0, -1]))
        elif kind == "repeat-token":
            items.insert(
                data.draw(st.integers(min_value=0, max_value=len(items))),
                [item[0], data.draw(st.integers(min_value=1, max_value=9))],
            )
        else:  # huge: 10**400 is past the float range, two 10**308 sum past it
            for item in items:
                item[1] = data.draw(st.sampled_from([10**308, 10**400]))


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    return tmp_path_factory.mktemp("load_model") / "model.json"


@settings(max_examples=1000, deadline=None)
@given(table=valid_tables(), data=st.data())
def test_bulk_load_matches_the_per_entry_reference(model_file, table, data):
    order, size, entries = table
    kinds = data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=3))
    for kind in sorted(kinds, key="entry".__eq__):
        mutate(data, entries, size, kind)
    text = json.dumps(
        {
            "format_version": 1,
            "vocabulary": [f"w{i}" for i in range(3, size)],
            "order": order,
            "eps": 0.1,
            "lambda": 0.5,
            "cache_order": order,
            "counts": entries,
        }
    )
    model_file.write_text(text)
    path = str(model_file)
    expected = outcome(lambda: reference_counts(path, json.loads(text)["counts"], order, size))
    assert outcome(lambda: load_model(path).background.counts) == expected


def collections_inside_load_model(path: str) -> list:
    """Generations of the collections that start while load_model(path) runs."""
    generations = []

    def on_collection(phase: str, info: dict) -> None:
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not load_model.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            generations.append(info["generation"])

    gc.callbacks.append(on_collection)
    try:
        load_model(path)
    finally:
        gc.callbacks.remove(on_collection)
    return generations


def test_load_model_runs_no_cyclic_collection_and_restores_the_collector(tmp_path):
    # Each entry parses to 5 lists and loads as a tuple and a dict, so the
    # load allocates about 14 times the threshold that starts a collection.
    n = 2 * gc.get_threshold()[0]
    entries = [[[c], [[1, 2], [c + 1, 3]]] for c in range(2, n + 2)]
    good = {
        "format_version": 1,
        "vocabulary": [f"w{i}" for i in range(n + 1)],
        "order": 2,
        "eps": 0.1,
        "lambda": 0.5,
        "cache_order": 2,
        "counts": entries,
    }
    good_path, bad_path = tmp_path / "good.json", tmp_path / "bad.json"
    good_path.write_text(json.dumps(good))
    bad_path.write_text(json.dumps({**good, "counts": entries + [[[1], [[1, 0]]]]}))
    assert gc.isenabled()
    assert collections_inside_load_model(str(good_path)) == []
    assert gc.isenabled()
    with pytest.raises(ValueError, match=f"'counts' entry {n + 1} must be"):
        collections_inside_load_model(str(bad_path))
    assert gc.isenabled()
    gc.disable()  # a caller's choice outlives the load, good file or bad
    try:
        load_model(str(good_path))
        assert not gc.isenabled()
        with pytest.raises(ValueError):
            load_model(str(bad_path))
        assert not gc.isenabled()
    finally:
        gc.enable()
