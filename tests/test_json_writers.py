"""The streamed JSON writers of `enumerate` and `poset --out json` are held
to the indented encoder they replaced: the bytes of `json.dumps(obj,
indent=2)` plus one newline, for the object the old code built, on seeded
orientations of Dynkin quivers and on the edge cases of the layout (empty
lists, one-element posets, labels and payloads that take the encoder
fallback).  The writers must also stream: one element per write."""

import contextlib
import io
import json
import random

import pytest

from qtors import FinitePoset, Quiver, catalog, write_stt_pairs_json
from qtors.cli import _poset_label, main
from qtors.taurig import stt_pairs_to_json, tau_tilting

from conftest import linear_quiver

# the underlying graphs of A1-A6, D4-D6 and E6, as edges
SHAPES = {
    **{f"A{n}": [(i, i + 1) for i in range(1, n)] for n in range(1, 7)},
    **{f"D{n}": [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)] for n in range(4, 7)},
    "E6": [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)],
}


def _oriented(name: str, seed: int) -> Quiver:
    rng = random.Random(f"{name}-{seed}")
    edges = SHAPES[name]
    n = max((v for e in edges for v in e), default=1)
    return Quiver(n, tuple((s, t) if rng.random() < 0.5 else (t, s) for s, t in edges))


def _old_pairs_text(q, pairs) -> str:
    """The document the indented encoder wrote for `enumerate`."""
    cat = catalog(q)
    out = [
        {
            "modules": [list(cat.roots[i]) for k, i in sorted(p) if k == "mod"],
            "shifted_projectives": [i for k, i in sorted(p) if k == "proj"],
        }
        for p in pairs
    ]
    return json.dumps({"count": len(pairs), "pairs": out}, indent=2) + "\n"


def _old_payload(e):
    if isinstance(e, frozenset):
        return sorted(e)
    if isinstance(e, (tuple, list)):
        return list(e)
    return e


def _old_poset_text(p: FinitePoset, label=str) -> str:
    """The document the indented encoder wrote for `poset --out json`."""
    return (
        json.dumps(
            {
                "elements": [
                    {"id": i, "label": label(e), "payload": _old_payload(e)}
                    for i, e in enumerate(p.elements)
                ],
                "hasse": [[lo, hi] for lo, hi in sorted(p.hasse)],
            },
            indent=2,
        )
        + "\n"
    )


def _written(write, *args) -> str:
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


CASES = [(name, seed) for name in SHAPES for seed in (0, 1)]


@pytest.mark.parametrize("name, seed", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_writers_match_the_indented_encoder(name, seed):
    q = _oriented(name, seed)
    tt = tau_tilting(q)
    text = _written(write_stt_pairs_json, q, tt.pairs)
    assert text == _old_pairs_text(q, tt.pairs)
    assert stt_pairs_to_json(q, tt.pairs) == text[:-1]
    p = tt.poset
    assert _written(lambda out: p.write_json(out, label=_poset_label)) == _old_poset_text(
        p, _poset_label
    )
    assert p.export_json(label=_poset_label) == _old_poset_text(p, _poset_label)[:-1]


def test_a1_pairs_with_empty_lists():
    q = Quiver(1, ())
    pairs = tau_tilting(q).pairs
    text = _written(write_stt_pairs_json, q, pairs)
    assert '"modules": []' in text and '"shifted_projectives": []' in text
    assert text == _old_pairs_text(q, pairs)


def test_no_pairs():
    q = linear_quiver(2)
    assert _written(write_stt_pairs_json, q, ()) == _old_pairs_text(q, ())


POSETS = {
    "one-element": FinitePoset([frozenset()], lambda a, b: a <= b),
    "empty": FinitePoset([], lambda a, b: a <= b),
    "ints": FinitePoset([1, 2, 3, 4, 6, 12], lambda a, b: b % a == 0),
    "negative-and-bool-ints": FinitePoset([-3, True, 7], lambda a, b: a <= b),
    "tuples": FinitePoset(
        [(0, 0), (0, 1), (1, 0), (1, 1), ("x", 2.5, None)],
        lambda a, b: a == b or (len(a) == len(b) == 2 and a[0] <= b[0] and a[1] <= b[1]),
    ),
    "strings": FinitePoset(["", "a", "ab", "é\n\"q\""], lambda a, b: b.startswith(a)),
    "mixed-frozensets": FinitePoset(
        [frozenset(), frozenset({"a"}), frozenset({3})], lambda a, b: a <= b
    ),
}


@pytest.mark.parametrize("name", POSETS)
def test_poset_writer_payload_fallback(name):
    p = POSETS[name]
    # non-str labels take the encoder fallback, as payloads do
    labels = (str, repr, lambda e: None, lambda e: len(str(e)), lambda e: [str(e), 0.5])
    for label in labels:
        assert _written(lambda out: p.write_json(out, label)) == _old_poset_text(p, label)
    if name == "one-element":
        assert '"hasse": []' in p.export_json()


class _Sink:
    """A text sink that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, s: str) -> int:
        self.writes.append(s)
        return len(s)


def _element_texts(items):
    """Each list item's lines in the document, with the comma and line
    break that end them."""
    texts = ["    " + json.dumps(x, indent=2).replace("\n", "\n    ") for x in items]
    return [t + ",\n" for t in texts[:-1]] + [texts[-1] + "\n"]


def test_writers_stream_one_element_per_write():
    q = _oriented("A6", 0)
    tt = tau_tilting(q)
    old = json.loads(_old_pairs_text(q, tt.pairs))
    sink = _Sink()
    write_stt_pairs_json(q, tt.pairs, sink)
    assert "".join(sink.writes) == _old_pairs_text(q, tt.pairs)
    longest = max(map(len, _element_texts(old["pairs"])))
    assert len(sink.writes) >= len(tt.pairs)
    assert max(map(len, sink.writes)) <= longest

    p = tt.poset
    old = json.loads(_old_poset_text(p, _poset_label))
    sink = _Sink()
    p.write_json(sink, label=_poset_label)
    assert "".join(sink.writes) == _old_poset_text(p, _poset_label)
    longest = max(map(len, _element_texts(old["elements"])))
    assert len(sink.writes) >= len(p.elements) + len(p.hasse)
    assert max(map(len, sink.writes)) <= longest


@pytest.mark.parametrize("argv", [("enumerate",), ("poset", "--out", "json")])
def test_cli_writes_the_whole_document_to_redirected_stdout(tmp_path, argv):
    # the stdout the CLI looks up when it runs, as a worker that captures
    # it with redirect_stdout sees it
    q = _oriented("D5", 1)
    path = tmp_path / "d5.quiver"
    path.write_text(f"vertices {q.n}\n" + "".join(f"arrow {s} {t}\n" for s, t in q.arrows))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([argv[0], str(path), *argv[1:]]) == 0
    tt = tau_tilting(q)
    if argv[0] == "enumerate":
        assert out.getvalue() == _old_pairs_text(q, tt.pairs)
    else:
        assert out.getvalue() == _old_poset_text(tt.poset, _poset_label)
