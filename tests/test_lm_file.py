"""The one-pass v1 reader against the whole-file reference loader in
``lm_reference``: on any file, valid or damaged, ``load_lm`` returns the
same model or raises ``ConfigError`` with the same message."""

import json
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lm_reference as ref
from subselect.cli import main
from subselect.corpus import Corpus, Sentence
from subselect.errors import ConfigError
from subselect.lm import BOS, EOS, UNK, load_lm, save_lm, train_lm
from test_lm_reference import assert_same_tables
from test_malformed_input import _apply, edits

# "a\x01" sorts before "a b" as a string but after "a" as a token
TOKENS = ["a", "b", "c", "a\x01", "é", BOS, EOS, UNK]


class Members(list):
    """A JSON object as its (key, value) members in file order; a key may repeat."""


def members(obj: dict, rnd: random.Random, decoy=None) -> Members:
    """``obj``'s members in a shuffled order; with ``decoy``, some are preceded by a
    member with the same key and the value ``decoy(value)``, which the later one overrides."""
    items = list(obj.items())
    rnd.shuffle(items)
    out = Members()
    for key, value in items:
        if decoy is not None and rnd.random() < 0.3:
            out.append((key, decoy(value)))
        out.append((key, value))
    return out


def dumps(value, fmt: tuple, depth: int = 0) -> str:
    """JSON text of a value whose objects may be ``Members``, in one of many layouts."""
    indent, item_sep, key_sep, ascii_only = fmt
    if not isinstance(value, Members):
        return json.dumps(value, ensure_ascii=ascii_only, indent=indent, separators=(item_sep, key_sep))
    if not value:
        return "{}"
    pad, end = ("", "") if indent is None else ("\n" + indent * (depth + 1), "\n" + indent * depth)
    items = [json.dumps(key, ensure_ascii=ascii_only) + key_sep + dumps(v, fmt, depth + 1) for key, v in value]
    return "{" + pad + (item_sep + pad).join(items) + end + "}"


def rewritten(payload: dict, rnd: random.Random, fmt: tuple) -> str:
    """The payload as other JSON text that ``json.loads`` reads back the same: members
    reordered, re-spaced and re-escaped, with overridden duplicate keys."""
    payload = dict(payload)
    if isinstance(payload.get("counts"), dict):
        counts = members(payload["counts"], rnd)
        for i in reversed(range(len(counts))):
            name, table = counts[i]
            if isinstance(table, dict):
                counts[i] = (name, members(table, rnd, lambda c: c + 1 if type(c) is int else 1))
            if rnd.random() < 0.3:  # an earlier table of the same order, which the real one overrides
                counts.insert(i, (name, Members([("zz q", 7)])))
        payload["counts"] = counts
    return dumps(members(payload, rnd, lambda v: Members([("1", {"zz": 3})]) if isinstance(v, Members) else 99), fmt)


DAMAGE = [
    lambda p: {**p, "counts": [1]},
    lambda p: {**p, "counts": "1"},
    lambda p: {**p, "counts": None},
    lambda p: {**p, "counts": {**p["counts"], "1": []}},
    lambda p: {**p, "counts": {**p["counts"], str(p["order"]): "a"}},
    lambda p: {**p, "counts": {**p["counts"], "1": 3}},
    lambda p: {**p, "counts": {k: v for k, v in p["counts"].items() if k != str(p["order"])}},
    lambda p: {**p, "counts": {**p["counts"], "0": {}}},
    lambda p: {**p, "counts": {**p["counts"], "01": {}}},
    lambda p: {**p, "order": p["order"] + 1},
    lambda p: {**p, "order": 10**9},
    lambda p: {**p, "counts": {**p["counts"], "1": {**p["counts"]["1"], "zz": 1}}},
    lambda p: {**p, "counts": {**p["counts"], "1": {**p["counts"]["1"], "a a": 1}}},
    lambda p: {**p, "counts": {**p["counts"], "1": {**p["counts"]["1"], "a": 0}}},
    lambda p: {**p, "counts": {**p["counts"], "1": {**p["counts"]["1"], "a": True}}},
    lambda p: {**p, "counts": {**p["counts"], "1": {**p["counts"]["1"], "a": 2**63}}},
    lambda p: {**p, "counts": {**p["counts"], "2": {"zz a": 1, "a zz": 2.5}}},
    lambda p: {**p, "counts": {**p["counts"], "2": {**p["counts"].get("2", {}), "a\x01 b": 1, "b b": 2}}},
    lambda p: {**p, "counts": {**p["counts"], "3": {**p["counts"].get("3", {}), "</s> </s> </s>": 1}}},
    lambda p: {**p, "vocab": [*p["vocab"], BOS]},
    lambda p: {**p, "markers": 1},
    lambda p: {k: v for k, v in p.items() if k != "counts"},
]


def outcome(load, path):
    try:
        return load(path)
    except ConfigError as exc:
        return str(exc)


def assert_same_outcome(path):
    got, want = outcome(load_lm, path), outcome(ref.load_lm, path)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    fields = ("order", "smoothing", "add_k", "markers", "unk_floor", "ids")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert type(got.add_k) is type(want.add_k)
    assert_same_tables(got.tables, want.tables)
    return got


model_args = dict(
    train=st.lists(st.lists(st.sampled_from(TOKENS + ["oov"]), max_size=7), min_size=1, max_size=6),
    order=st.integers(min_value=1, max_value=4),
    smoothing=st.sampled_from(["mle", "add-k:0.25", "interpolated-wb"]),
    markers=st.booleans(),
    fmt=st.tuples(
        st.sampled_from([None, "", "  ", "\t"]),
        st.sampled_from([",", ", ", " ,\r\n"]),
        st.sampled_from([":", ": ", " :\t"]),
        st.booleans(),
    ),
    rnd=st.randoms(use_true_random=False),
)


def payload_of(train, order, smoothing, markers):
    lm = train_lm(Corpus(tuple(Sentence(i, tuple(t)) for i, t in enumerate(train))), order, smoothing, markers)
    return lm, json.loads(ref.file_text(lm))


@settings(max_examples=150, deadline=None)
@given(**model_args)
def test_any_layout_of_a_valid_file_loads_as_the_reference_does(train, order, smoothing, markers, fmt, rnd):
    lm, payload = payload_of(train, order, smoothing, markers)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lm.json"
        path.write_text(rewritten(payload, rnd, fmt), encoding="utf-8", newline="")
        loaded = assert_same_outcome(path)
    assert loaded is not None
    assert loaded.ids == lm.ids
    assert_same_tables(loaded.tables, lm.tables)


@settings(max_examples=400, deadline=None)
@given(
    **model_args,
    damage=st.sampled_from([None, *DAMAGE]),
    edit_list=st.one_of(st.just([]), st.lists(edits, min_size=1, max_size=3)),
    ends=st.one_of(st.just(("", "")), st.sampled_from([("\ufeff", ""), (" ", "\n\n"), ("", "x"), ("", "{}"), ("", " 1")])),
)
def test_a_damaged_file_fails_as_the_reference_does(
    train, order, smoothing, markers, fmt, rnd, damage, edit_list, ends
):
    _, payload = payload_of(train, order, smoothing, markers)
    if damage is not None:
        payload = damage(payload)
    data = (ends[0] + rewritten(payload, rnd, fmt) + ends[1]).encode("utf-8")
    for edit in edit_list:
        data = _apply(data, *edit)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lm.json"
        path.write_bytes(data)
        assert_same_outcome(path)


class TestMissingTables:
    """A header ``order`` needs a table for every order from 1 to it, which ``save_lm`` always writes."""

    def model_file(self, tmp_path, order: int) -> Path:
        (tmp_path / "ground.src").write_text("a b c\nb c d\nc d a\n", encoding="utf-8")
        lm = train_lm(Corpus((Sentence(0, ("a", "b", "c")), Sentence(1, ("b", "c", "d")))), order=3)
        path = tmp_path / "lm.json"
        save_lm(lm, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**payload, "order": order}), encoding="utf-8")
        return path

    def test_a_huge_order_fails_at_once(self, tmp_path):
        path = self.model_file(tmp_path, 10**9)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="the file has no count table for order 4$"):
            load_lm(path)
        assert time.perf_counter() - start < 0.5

    def test_score_exits_2_at_once(self, tmp_path, capsys):
        path = self.model_file(tmp_path, 10**9)
        start = time.perf_counter()
        rc = main(["score", "--ground-src", str(tmp_path / "ground.src"), "--lm-in", str(path),
                   "--lm-out", str(path), "--out", str(tmp_path / "scores.tsv")])
        assert rc == 2 and time.perf_counter() - start < 1.0
        assert "no count table for order 4" in capsys.readouterr().err
        assert not (tmp_path / "scores.tsv").exists()

    def test_the_first_missing_order_is_named(self, tmp_path):
        path = self.model_file(tmp_path, 3)
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["counts"]["2"], payload["counts"]["3"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match="the file has no count table for order 2$"):
            load_lm(path)
