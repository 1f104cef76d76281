"""Property tests: the report writer gives the bytes of `json.dumps`.

`cli._report` writes a report in one walk over the result, handing
containers of scalars and rows of ints to the C encoder.  On drawn
documents its text must equal `json.dumps(..., sort_keys=True, indent=2)`
plus a newline, applied to the document after the report conversions:
a dataclass becomes a dict of its fields, a Fraction "p/q", a tuple key
"u,v" and any other key `str(key)`, the last of colliding keys winning.
A dict of int keys in [0, 10**15) and int values is written from one
template, its keys sorted as their strings by numpy; `int_maps` draws
such dicts at the size of a strong-edge colouring.  So is a list or tuple
of records of one dataclass whose every field holds a plain int in every
record or a bool in every record; `record_tuples` draws such tuples, and
tuples spoiled by one value or record that the template does not take.
"""

import dataclasses
import json
from fractions import Fraction
from typing import Any

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sparsecolour import __version__, cli  # noqa: E402


@dataclasses.dataclass
class Record:
    name: str
    value: Any
    extra: Any = None


def _plain(obj):
    """Reference conversion of a report value to what `json.dumps` takes."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {
            (",".join(map(str, k)) if isinstance(k, tuple) else str(k)): _plain(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _oracle(config, result) -> str:
    doc = {"version": __version__, "config": _plain(config), "result": _plain(result)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Every code point, lone surrogates and control characters included.
texts = st.text(st.characters(exclude_categories=()), max_size=8)
ints = st.integers(-(2**70), 2**70)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.floats(allow_nan=True, allow_infinity=True),
    texts,
    st.fractions(max_denominator=1000),
)
int_tuples = st.lists(ints, min_size=1, max_size=3).map(tuple)
keys = st.one_of(
    texts,
    ints,
    int_tuples,
    st.tuples(ints, texts),
    st.sampled_from(["1", 1, "1,2", (1, 2), True, "True", None, "None"]),
)


@st.composite
def int_rows(draw):
    """Rows of one width, as lists or tuples; some hold a bool, some are
    ragged or empty, so that every row path is drawn."""
    width = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(ints, min_size=width, max_size=width), max_size=6))
    rows = [tuple(r) if draw(st.booleans()) else r for r in rows]
    if rows and width and draw(st.booleans()):
        rows[-1] = [*rows[-1][:-1], draw(st.booleans())]
    if rows and draw(st.booleans()):
        rows.append(draw(st.lists(ints, max_size=5)))
    return rows


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.builds(Record, texts, children, children),
        int_rows(),
        st.lists(scalars, max_size=6),
        st.dictionaries(keys, scalars, max_size=6),
    )


documents = st.recursive(scalars, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(config=st.dictionaries(texts, scalars, max_size=4), result=documents)
def test_report_matches_json_dumps(config, result):
    assert cli._report(config, result) == _oracle(config, result)


@settings(max_examples=100, deadline=None)
@given(result=st.lists(st.lists(st.dictionaries(keys, documents, max_size=3), max_size=3), max_size=3))
def test_deep_nesting_matches_json_dumps(result):
    assert cli._report({}, result) == _oracle({}, result)


@settings(max_examples=50, deadline=None)
@given(rows=int_rows())
def test_gen_json_matches_json_dumps(rows):
    doc = {"n": len(rows), "edges": rows}
    assert cli._json(doc) == json.dumps(doc, sort_keys=True, indent=2)


# 0, then 9 and 10, 99 and 100, ..., 10**15 - 1 and 10**15: both sides of
# every digit-count boundary, where a key's string and numeric order part,
# and the first key past the template's range.
BOUNDARY_KEYS = [0, *(k for e in range(1, 16) for k in (10**e - 1, 10**e))]
SPOILERS = ["negative key", "key 10**15", "key past int64", "bool key", "bool value"]


@st.composite
def int_maps(draw):
    """An int -> int dict of up to about 3,000 entries, its keys of every
    digit count up to 15 and across the boundaries, its values partly past
    int64, and the kind drawn: "plain", or one of SPOILERS, which adds one
    entry that the template path does not take, first or last."""
    rnd = draw(st.randoms(use_true_random=False))
    keys = rnd.sample(BOUNDARY_KEYS[:-1], draw(st.integers(0, 30)))
    keys += [rnd.randrange(10 ** rnd.randint(1, 15)) for _ in range(draw(st.integers(0, 3000)))]
    obj = {k: rnd.choice([rnd.randrange(200), rnd.randint(-(2**70), 2**70)]) for k in keys}
    kind = draw(st.sampled_from(["plain", *SPOILERS]))
    key, value = {
        "plain": (None, None),
        "negative key": (-rnd.randrange(1, 10**16), 1),
        "key 10**15": (10**15, 2),
        "key past int64": (2**63 + rnd.randrange(2**70), 4),
        "bool key": (True, 3),  # equal to 1, so a key 1 is popped first
        "bool value": (rnd.randrange(10**15), False),
    }[kind]
    if key is not None:
        obj.pop(key, None)
        obj = {key: value, **obj} if draw(st.booleans()) else {**obj, key: value}
    return kind, obj


@settings(max_examples=60, deadline=None)
@given(drawn=int_maps(), depth=st.integers(0, 3))
def test_int_maps_match_json_dumps(drawn, depth):
    kind, obj = drawn
    assert (cli._int_map(obj, depth) != "") == (kind == "plain" and bool(obj))
    assert cli._report({}, {"colours": obj}) == _oracle({}, {"colours": obj})
    expected = json.dumps(_plain(obj), sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)
    assert cli._json(obj, depth) == expected


@dataclasses.dataclass(frozen=True)
class VertexRow:
    vertex: int
    kept: bool
    f1: int
    col: int


@dataclasses.dataclass(frozen=True)
class OtherRow:
    vertex: int
    kept: bool
    f1: int
    col: int


RECORD_SPOILERS = [
    "bool in an int column",
    "int in a bool column",
    "float field",
    "None field",
    "tuple field",
    "nested dataclass",
    "two dataclasses",
]


@st.composite
def record_tuples(draw):
    """A tuple of up to 60 VertexRow records, none, one or many, with ints
    past int64 and negative, and the kind drawn: "plain", or one of
    RECORD_SPOILERS, which puts one value or record that the template path
    does not take at a drawn place."""
    rows = draw(st.lists(st.builds(VertexRow, ints, st.booleans(), ints, ints), max_size=60))
    # A column or a tuple is mixed only if it has two records.
    spoilers = RECORD_SPOILERS if len(rows) > 1 else RECORD_SPOILERS[2:-1]
    kind = draw(st.sampled_from(["plain", *spoilers])) if rows else "plain"
    if kind != "plain":
        at = draw(st.integers(0, len(rows) - 1))
        spoiled = {
            "bool in an int column": {"col": draw(st.booleans())},
            "int in a bool column": {"kept": draw(st.integers(0, 1))},
            "float field": {"f1": draw(st.floats(allow_nan=False))},
            "None field": {"vertex": None},
            "tuple field": {"col": (1, 2)},
            "nested dataclass": {"f1": rows[0]},
        }.get(kind)
        if spoiled is None:
            rows[at] = OtherRow(**dataclasses.asdict(rows[at]))
        else:
            rows[at] = dataclasses.replace(rows[at], **spoiled)
    return kind, tuple(rows)


@settings(max_examples=150, deadline=None)
@given(drawn=record_tuples(), depth=st.integers(0, 3))
def test_record_tuples_match_json_dumps(drawn, depth):
    kind, rows = drawn
    assert (cli._records(rows, depth) != "") == (kind == "plain" and bool(rows))
    expected = json.dumps(_plain(rows), sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)
    assert cli._json(rows, depth) == expected
    doc = {"rounds": [{"index": 0, "vertices": rows}]}
    assert cli._report({}, doc) == _oracle({}, doc)
