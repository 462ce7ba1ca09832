"""Byte-exact CLI output, against a recorded golden file.

``cli_golden.json`` holds, for every subcommand and mode on the bundled
``problems/*.json`` and on a few inline problems read from stdin, the
argument vector, the exit status and the exact stdout and stderr.
Regenerate it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("cli_golden.json")

# problems read from stdin: a UNIQUE instance, all-zero data (its sample
# above mu2 steps past k = 0), a small UNIQUE instance, a FAMILY instance
# whose representative steps past k = 0, a FAMILY instance with rational
# nodes, and curves with a constant, a zero and an equal-degree r1
INLINE = [
    {"points": [{"x": "0", "values": ["-1/5"]}, {"x": "1", "values": ["-1/4"]},
                {"x": "2", "values": ["-1/3"]}, {"x": "3", "values": ["-1/2"]}]},
    {"points": [{"x": "0", "values": ["0"]}, {"x": "1", "values": ["0", "0"]}]},
    {"points": [{"x": "3", "values": ["-1"]}, {"x": "-2", "values": ["1"]},
                {"x": "4", "values": ["-2"]}]},
    {"points": [{"x": "-4", "values": ["-1"]}, {"x": "-2", "values": ["1"]}]},
    {"points": [{"x": "-4", "values": ["15/2"]}, {"x": "3/2", "values": ["-9"]}]},
    {"r0": ["0", "0", "0", "1"], "r1": ["5"]},
    {"r0": ["0", "0", "-4"], "r1": []},
    {"r0": ["1", "0", "1"], "r1": ["0", "0", "1"]},
]


def _modes(problem: dict) -> list[list[str]]:
    """Every subcommand and mode that applies to the problem, before --json."""
    if "r0" in problem:
        return [["eea"], ["mu-basis"], ["mu-basis", "--projective"], ["oracle", "--min-mu"]]
    from ratinterp import InterpolationData, minimal_basis

    data = InterpolationData.from_json_dict(problem)
    n, mu2 = data.n, minimal_basis(data).mu2
    return [
        ["eea"],
        ["delta"], ["delta", "--basis"], ["delta", "--set"],
        ["delta", "--solve", str(mu2 + 1)],
        ["kappa"], ["kappa", "--min"], ["kappa", "--solve", str(n)],
        *(["hermite-d", "-d", str(d)] for d in range(n)),
        ["oracle"], ["oracle", "--kappa-set"],
    ]


def _cases() -> list[dict]:
    cases = []
    for path in sorted((ROOT / "problems").glob("*.json")):
        problem = json.loads(path.read_text())
        name = f"problems/{path.name}"
        for mode in _modes(problem):
            for tail in ([], ["--json"]):
                cases.append({"argv": [mode[0], name, *mode[1:], *tail], "stdin": ""})
    for problem in INLINE:
        text = json.dumps(problem)
        for mode in _modes(problem):
            for tail in ([], ["--json"]):
                cases.append({"argv": [mode[0], "-", *mode[1:], *tail], "stdin": text})
    return cases


def run(argv: list[str], stdin: str) -> dict:
    from ratinterp.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# empty only while the file is being regenerated; the coverage test then fails
RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


@pytest.mark.parametrize("case", RECORDED, ids=lambda c: " ".join(c["argv"]))
def test_cli_output_is_byte_identical(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    got = run(case["argv"], case["stdin"])
    assert got == {k: case[k] for k in ("exit", "stdout", "stderr")}


def test_golden_covers_every_mode():
    assert [(c["argv"], c["stdin"]) for c in RECORDED] == [
        (c["argv"], c["stdin"]) for c in _cases()
    ]
    kinds = {c["argv"][0] for c in RECORDED}
    assert kinds == {"eea", "delta", "kappa", "hermite-d", "mu-basis", "oracle"}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    golden = [{**case, **run(case["argv"], case["stdin"])} for case in _cases()]
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
