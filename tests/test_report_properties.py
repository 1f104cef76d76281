"""Property tests: the report writer gives the bytes of `json.dumps`.

`cli._report` writes a report in one walk over the result, handing
containers of scalars and rows of ints to the C encoder.  On drawn
documents its text must equal `json.dumps(..., sort_keys=True, indent=2)`
plus a newline, applied to the document after the report conversions:
a dataclass becomes a dict of its fields, a Fraction "p/q", a tuple key
"u,v" and any other key `str(key)`, the last of colliding keys winning.
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
