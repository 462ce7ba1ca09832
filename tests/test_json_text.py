"""``cli._json_text`` prints exactly what ``json.dumps(obj, indent=2)`` prints."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratinterp import cli
from ratinterp.cli import _json_text

from test_cli_golden import ROOT, _cases

# past the default int-to-str limit of 4,300 digits
HUGE_INTS = st.integers(10**4300, 10**4310) | st.integers(-(10**4310), -(10**4300))
# non-ASCII, control characters, quotes, backslashes and surrogates
TEXT = st.text(max_size=8) | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é✓😀", "\ud800"])
SCALARS = st.none() | st.booleans() | st.integers() | TEXT
TREES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.lists(TEXT, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(database=None, deadline=None, max_examples=400)
@given(TREES)
def test_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


@settings(database=None, deadline=None, max_examples=20)
@given(st.lists(HUGE_INTS | TEXT, max_size=3))
def test_ints_past_the_str_limit(obj):
    obj = {"big": obj}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert _json_text(obj) == json.dumps(obj, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)
    if any(isinstance(item, int) for item in obj["big"]):  # the same refusal under the limit
        with pytest.raises(ValueError):
            json.dumps(obj, indent=2)
        with pytest.raises(ValueError):
            _json_text(obj)


@pytest.mark.parametrize("obj", [[], {}, (), [[]], {"a": {}}, [[], {}, ()], ""])
def test_empty_containers(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


def test_deep_nesting():
    obj = "leaf"
    for depth in range(300):
        obj = [obj, depth] if depth % 2 else {"k": obj, "n": None}
    assert _json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [1.5, {"a": [0.0]}, [1, {2}], {"a": b"x"}, [object()], {1: "int key"}])
def test_other_types_raise_type_error(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


def _covered(obj) -> bool:
    if type(obj) in (str, int, bool, type(None)):
        return True
    if type(obj) in (list, tuple):
        return all(_covered(item) for item in obj)
    if type(obj) is dict:
        return all(type(key) is str and _covered(value) for key, value in obj.items())
    return False


@pytest.mark.parametrize("case", [case for case in _cases() if "--json" in case["argv"]],
                         ids=lambda case: " ".join(case["argv"]))
def test_every_json_payload_holds_only_covered_types(case, monkeypatch):
    """Every subcommand and mode of the golden file, on problems/*.json and the inline problems."""
    payloads = []
    write = cli._json_text

    def recording(obj, *indent):
        if not indent:  # the whole payload, not a recursive call
            payloads.append(obj)
        return write(obj, *indent)

    monkeypatch.setattr(cli, "_json_text", recording)
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"]))
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        code = cli.main(case["argv"])
    assert len(payloads) == (code == 0)  # the two requests without an answer exit 1
    if payloads:
        assert _covered(payloads[0])
        assert out.getvalue() == json.dumps(payloads[0], indent=2) + "\n"
