"""Fuzz the CLI with random JSON: every input ends in exit 0, 1 or 2, never an exception.

Problems come from two strategies: arbitrary JSON, and JSON shaped like a
problem whose scalars are drawn from both sides of the rational grammar
(ints and integer "p"/"p/q" strings against booleans, floats, decimal and
exponent strings, zero denominators).  The shaped problems stay small
(n <= 6), so the whole module runs in a few seconds.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ratinterp.cli import MAX_DEGREE, main

DEEP = "[" * 200_000

RATIONALS = st.one_of(
    st.integers(-20, 20),
    st.integers(-20, 20).map(str),
    st.tuples(st.integers(-20, 20), st.integers(1, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)
SCALARS = st.one_of(
    RATIONALS,
    st.sampled_from([True, False, None, 1.5, 2.0, "0.5", "1e3", " 1", "+2", "", "x", "1/0", "1/-2"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["points", "x", "values", "r0", "r1"]) | st.text(max_size=3),
                      inner, max_size=4),
    max_leaves=12,
)


def _points(scalars):
    point = st.fixed_dictionaries({"x": scalars, "values": st.lists(scalars, min_size=1, max_size=2)})
    return st.lists(point, min_size=1, max_size=3).map(lambda points: {"points": points})


def _curves(scalars):
    return st.fixed_dictionaries({
        "r0": st.lists(scalars, min_size=1, max_size=6), "r1": st.lists(scalars, max_size=6),
    })


# half of the shaped problems hold well-formed rationals only, so the solvers run too
CURVES = st.one_of(_curves(RATIONALS), _curves(SCALARS))
PROBLEM_TEXT = st.one_of(JSON, _points(RATIONALS), _points(SCALARS), CURVES).map(json.dumps)

DEGREES = st.one_of(st.integers(-2, 8), st.just(MAX_DEGREE + 1))
MODES = st.one_of(
    st.sampled_from([
        ["eea"], ["delta"], ["delta", "--basis"], ["delta", "--set"], ["kappa"], ["kappa", "--min"],
        ["mu-basis"], ["mu-basis", "--projective"], ["oracle"], ["oracle", "--kappa-set"],
        ["oracle", "--min-mu"],
    ]),
    DEGREES.map(lambda d: ["delta", f"--solve={d}"]),
    DEGREES.map(lambda d: ["kappa", f"--solve={d}"]),
    DEGREES.map(lambda d: ["hermite-d", f"--degree={d}"]),
)
FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _exit_code(argv, stdin=""):
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), argv
    assert code != 2 or err.getvalue().startswith("input error: "), argv
    return code


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "problem.json"


@FUZZ
@given(text=PROBLEM_TEXT, mode=MODES, json_flag=st.booleans())
@example(text=DEEP, mode=["eea"], json_flag=False)
@example(text=DEEP, mode=["delta"], json_flag=True)
@example(text='{"points": ' + DEEP, mode=["kappa"], json_flag=False)
def test_problem_files(problem_path, text, mode, json_flag):
    problem_path.write_text(text)
    tail = ["--json"] if json_flag else []
    _exit_code([mode[0], str(problem_path), *mode[1:], *tail])


@FUZZ
@given(text=PROBLEM_TEXT, mode=MODES)
@example(text=DEEP, mode=["delta", "--set"])
def test_stdin(text, mode):
    _exit_code([mode[0], "-", *mode[1:]], stdin=text)


@FUZZ
@given(r0=st.one_of(JSON, CURVES.map(lambda c: c["r0"])).map(json.dumps),
       r1=st.one_of(JSON, CURVES.map(lambda c: c["r1"])).map(json.dumps),
       projective=st.booleans())
@example(r0=DEEP, r1="[1]", projective=False)
@example(r0='["0", "1"]', r1=DEEP, projective=True)
def test_inline_coefficients(r0, r1, projective):
    tail = ["--projective"] if projective else []
    _exit_code(["mu-basis", f"--r0={r0}", f"--r1={r1}", *tail])
