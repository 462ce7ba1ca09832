import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ratinterp import (
    InterpolationData, Poly, RationalFunction, check_interpolates, extended_euclid, kappa_of,
    minimal_basis, monomial,
)
from ratinterp.cli import (
    KAPPA_SET_MAX_DEGREE, MAX_DEGREE, MAX_INPUT_SIZE, ORACLE_MAX_DEGREE, _polynomial, main,
)

from conftest import P

FOUR_POINT = {
    "points": [
        {"x": "0", "values": ["-2"]},
        {"x": "2", "values": ["6"]},
        {"x": "-1", "values": ["-3", "3"]},
    ]
}
SIX_EVEN = {
    "points": [
        {"x": "1", "values": ["1"]},
        {"x": "-1", "values": ["1"]},
        {"x": "2", "values": ["-14"]},
        {"x": "-2", "values": ["-14"]},
        {"x": "3", "values": ["1"]},
        {"x": "-3", "values": ["1"]},
    ]
}
CURVE = {"r0": ["0", "0", "6", "0", "-4"], "r1": ["0", "4", "0", "-4"]}


@pytest.fixture
def four_file(tmp_path):
    path = tmp_path / "four.json"
    path.write_text(json.dumps(FOUR_POINT))
    return str(path)


@pytest.fixture
def six_file(tmp_path):
    path = tmp_path / "six.json"
    path.write_text(json.dumps(SIX_EVEN))
    return str(path)


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(CURVE))
    return str(path)


class TestEEACommand:
    def test_table_layout(self, four_file, capsys):
        assert main(["eea", four_file]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["i", "deg", "r_i", "r_i", "s_i", "t_i", "q_i"]
        assert "x^4 - 3*x^2 - 2*x" in out
        assert "-1/3*x^2 + 1" in out
        assert "3/2*x^2" in out

    def test_json_round_trip(self, four_file, capsys):
        assert main(["eea", "--json", four_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["N"] == 3
        rows = payload["rows"]
        assert Poly(rows[2]["r"]) == P(0, 0, -3)
        assert Poly(rows[3]["s"]) == P(1, 0, "-1/3")
        assert Poly(payload["quotients"][2]) == P(0, 0, "3/2")
        # emitting again from the parsed polynomials reproduces the JSON
        assert Poly(rows[2]["r"]).to_json() == rows[2]["r"]

    def test_parametrization_input(self, curve_file, capsys):
        assert main(["eea", curve_file]) == 0
        assert "2*x^2" in capsys.readouterr().out


class TestDeltaCommand:
    def test_basis(self, four_file, capsys):
        assert main(["delta", "--basis", four_file]) == 0
        out = capsys.readouterr().out
        assert "mu1 = 2, mu2 = 2" in out
        assert "a = -3*x^2, b = -x" in out
        assert "a = -2, b = -1/3*x^2 + 1" in out

    def test_full_report_json(self, six_file, capsys):
        assert main(["delta", "--json", six_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["basis"]["mu1"] == 2
        assert payload["basis"]["mu2"] == 4
        assert payload["report"]["kind"] == "FAMILY"
        assert payload["report"]["minimal_delta"] == 4
        assert payload["admissible"] == {"isolated": None, "threshold": 4}

    def test_set(self, four_file, capsys):
        assert main(["delta", "--set", four_file]) == 0
        assert "delta >= 2" in capsys.readouterr().out

    def test_solve_inadmissible_is_a_domain_error(self, six_file, capsys):
        assert main(["delta", "--solve", "3", six_file]) == 1
        assert "error" in capsys.readouterr().err

    def test_solve(self, four_file, capsys):
        assert main(["delta", "--solve", "2", four_file]) == 0
        assert "/" in capsys.readouterr().out


class TestKappaCommand:
    def test_min(self, four_file, capsys):
        assert main(["kappa", "--min", four_file]) == 0
        out = capsys.readouterr().out
        assert "minimal kappa = 2" in out
        assert "6/(x^2 - 3)" in out

    def test_report_json(self, four_file, capsys):
        assert main(["kappa", "--json", four_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["minimal_kappa"] == 2
        assert payload["tail_threshold"] == 4
        assert [e["kappa"] for e in payload["isolated"]] == [3, 2]
        raw = payload["isolated"][1]["raw_pair"]
        assert Poly(raw["r"]) == P(-2)
        assert Poly(raw["s"]) == P(1, 0, "-1/3")

    def test_solve_inadmissible(self, six_file, capsys):
        assert main(["kappa", "--solve", "5", six_file]) == 1


class TestHermiteDCommand:
    def test_solution(self, four_file, capsys):
        assert main(["hermite-d", four_file, "-d", "3"]) == 0
        assert "x^3 - 2" in capsys.readouterr().out

    def test_no_solution_json(self, four_file, capsys):
        assert main(["hermite-d", four_file, "-d", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"d": 2, "solvable": False, "solution": None}

    def test_out_of_range_is_an_input_error(self, four_file, capsys):
        assert main(["hermite-d", four_file, "-d", "9"]) == 2

    @pytest.mark.parametrize("argv, name", [
        (["hermite-d", "-d", "-1"], "d"), (["delta", "--solve", "-1"], "delta"), (["kappa", "--solve", "-1"], "kappa"),
    ])
    def test_a_negative_degree_is_an_input_error(self, four_file, capsys, argv, name):
        """The degree rule (``exactpoly.as_degree``) refuses it, with its own message."""
        assert main([argv[0], four_file, *argv[1:]]) == 2
        assert capsys.readouterr().err == f"input error: {name} must be a nonnegative integer, got -1\n"


class TestMuBasisCommand:
    def test_inline_coefficients(self, capsys):
        code = main(["mu-basis", "--r0", '["0","0","6","0","-4"]', "--r1", '["0","4","0","-4"]'])
        assert code == 0
        out = capsys.readouterr().out
        assert "mu = 2" in out
        assert "T0 - x*T1 - 2*x^2" in out

    def test_projective(self, curve_file, capsys):
        assert main(["mu-basis", curve_file, "--projective"]) == 0
        assert "z^2*T0 - x*z*T1 - 2*x^2*T2" in capsys.readouterr().out

    def test_json(self, curve_file, capsys):
        assert main(["mu-basis", curve_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu"] == 2
        assert Poly(payload["low"]["ct1"]) == P(0, -1)

    def test_missing_arguments(self, capsys):
        assert main(["mu-basis"]) == 2
        assert main(["mu-basis", "--r0", "[1]"]) == 2

    def test_wrong_problem_kind(self, four_file):
        assert main(["mu-basis", four_file]) == 2


class TestOracleCommand:
    def test_min_delta(self, four_file, capsys):
        assert main(["oracle", four_file]) == 0
        assert "min delta = 2" in capsys.readouterr().out

    def test_kappa_set(self, four_file, capsys):
        assert main(["oracle", "--kappa-set", four_file, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"kappa_below_n": [2, 3]}

    def test_min_mu(self, curve_file, capsys):
        assert main(["oracle", "--min-mu", curve_file]) == 0
        assert "min mu = 2" in capsys.readouterr().out

    def test_min_mu_needs_a_parametrization(self, four_file, capsys):
        assert main(["oracle", "--min-mu", four_file]) == 2
        assert capsys.readouterr().err == "input error: --min-mu needs a parametrization problem file\n"

    def test_kappa_set_degree_cap(self, tmp_path, capsys):
        """Constant values, the slowest measured family, exit 2 above the cap before
        any elimination, and answer at seven values, where a grid scan once ran for minutes."""

        def constant(n):
            path = tmp_path / f"constant{n}.json"
            path.write_text(json.dumps({"points": [{"x": str(x), "values": ["5"]} for x in range(n)]}))
            return str(path)

        cap = KAPPA_SET_MAX_DEGREE
        assert cap == 24
        start = time.perf_counter()
        assert main(["oracle", "--kappa-set", constant(cap + 1)]) == 2
        assert capsys.readouterr().err == f"input error: degree {cap + 1} exceeds the --kappa-set limit {cap}\n"
        assert time.perf_counter() - start < 0.5
        assert main(["oracle", constant(cap + 1)]) == 0
        assert capsys.readouterr().out == "min delta = 0\n"
        assert main(["oracle", "--kappa-set", constant(7)]) == 0
        assert capsys.readouterr().out == "kappa values below n: [0]\n"

    def test_oracle_degree_cap(self, tmp_path, capsys):
        """Rational nodes, the slowest measured family of the default mode, exit 2 above
        the cap before any elimination; --min-mu keeps the general cap."""
        cap = ORACLE_MAX_DEGREE
        assert cap == 72
        data = tmp_path / "rational.json"
        data.write_text(json.dumps({"points": [{"x": f"{x}/3", "values": ["5"]} for x in range(cap + 1)]}))
        start = time.perf_counter()
        assert main(["oracle", str(data)]) == 2
        assert capsys.readouterr().err == f"input error: degree {cap + 1} exceeds the oracle limit {cap}\n"
        assert time.perf_counter() - start < 0.5
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"r0": ["0"] * (cap + 1) + ["1"], "r1": ["0", "1"]}))
        assert main(["oracle", "--min-mu", str(curve)]) == 0
        assert capsys.readouterr().out == "min mu = 1\n"


class TestInputHandling:
    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FOUR_POINT)))
        assert main(["delta", "--set", "-"]) == 0
        assert "delta >= 2" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["eea", str(bad)]) == 2

    def test_duplicate_nodes(self, tmp_path, capsys):
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps({"points": [
            {"x": "1", "values": ["1"]}, {"x": "1", "values": ["2"]}
        ]}))
        assert main(["delta", str(bad)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["eea", "/no/such/file.json"]) == 2

    def test_interpolation_required(self, curve_file):
        assert main(["delta", curve_file]) == 2
        assert main(["kappa", curve_file]) == 2

    @pytest.mark.parametrize("extra", [CURVE, {"r0": CURVE["r0"]}, {"r1": CURVE["r1"]}], ids=["r0 r1", "r0", "r1"])
    @pytest.mark.parametrize("command", [["eea"], ["delta"], ["kappa", "--min"], ["hermite-d", "-d", "1"],
                                         ["mu-basis"], ["oracle"], ["oracle", "--min-mu"]], ids=" ".join)
    def test_a_file_holding_both_kinds_is_refused(self, tmp_path, capsys, monkeypatch, extra, command):
        """{"points": ..., "r0": ..., "r1": ...} was read as interpolation data, r0 and r1 dropped; now
        every subcommand refuses it, as it does "points" with only one of r0 and r1, before any arithmetic."""
        path = tmp_path / "both.json"
        path.write_text(json.dumps({**FOUR_POINT, **extra}))
        monkeypatch.setattr(InterpolationData, "from_json_dict", None)  # no reading, so no arithmetic
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr() == ("", 'input error: problem file must contain "points" or "r0"/"r1", not both\n')

    def test_zero_hermite_data_eea_is_domain_error(self, tmp_path):
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"points": [{"x": "0", "values": ["0"]}]}))
        assert main(["eea", str(zero)]) == 1


def _solve(tmp_path, capsys, command, points) -> tuple[InterpolationData, RationalFunction]:
    """Run ``command`` with --json on single-value points; the data and the printed solution."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"points": [{"x": x, "values": [y]} for x, y in points]}))
    assert main([*command, str(path), "--json"]) == 0
    solution = json.loads(capsys.readouterr().out)["solution"]
    rf = RationalFunction(Poly(solution["numer"]), Poly(solution["denom"]))
    data = InterpolationData.from_pairs([(x, [y]) for x, y in points])
    assert check_interpolates(rf, data)
    return data, rf


class TestSolveAboveTheMinimum:
    @pytest.mark.parametrize(
        "delta, points",
        [
            (3, [("-1", "0"), ("-3", "2"), ("0", "-1")]),  # UNIQUE
            (2, [("-4", "-2"), ("2", "1")]),  # FAMILY
        ],
    )
    def test_forbidden_first_candidate(self, tmp_path, capsys, delta, points):
        data, rf = _solve(tmp_path, capsys, ["delta", "--solve", str(delta)], points)
        assert rf.delta_degree == delta
        # the premise: delta > mu2, and the member for k = 0 has a pole at a node
        basis = minimal_basis(data)
        first = basis.pair2[1] + monomial(delta - basis.mu1) * basis.pair1[1]
        assert delta > basis.mu2
        assert any(first(x) == 0 for x in data.nodes)

    def test_kappa_at_n_is_a_polynomial(self, tmp_path, capsys):
        _, rf = _solve(tmp_path, capsys, ["kappa", "--solve", "2"], [("-4", "-1"), ("-2", "1")])
        assert rf.denom == P(1) and kappa_of(rf) == 2


@pytest.mark.parametrize(
    "argv",
    [["kappa", "--set"], ["kappa", "--hermite-d", "2"], ["oracle", "--min-delta"]],
)
def test_removed_options_exit_2(four_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, four_file])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["delta", "--basis", "--set"],
        ["delta", "--set", "--solve", "2"],
        ["delta", "--basis", "--solve", "2"],
        ["kappa", "--min", "--solve", "2"],
        ["oracle", "--kappa-set", "--min-mu"],
    ],
)
def test_conflicting_modes_exit_2(four_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, four_file])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_mu_basis_file_and_inline_coefficients_exit_2(curve_file, capsys):
    assert main(["mu-basis", curve_file, "--r0", '["0", "0", "1"]', "--r1", '["1"]']) == 2
    assert capsys.readouterr().err.startswith("input error: ")


class TestClosedStdout:
    """A closed stdout, as ``| head`` leaves it, is not an input error: the real entry point exits 1
    with an empty stderr (no message, no traceback, no "Exception ignored" at shutdown)."""

    ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}

    def run(self, *argv):
        return subprocess.Popen([sys.executable, "-m", "ratinterp", *argv], env=self.ENV,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def test_closed_after_one_byte_exits_1_and_an_unreadable_file_still_2(self, tmp_path, capsys):
        rng = random.Random(1)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(
            InterpolationData.from_pairs([(k, [rng.randint(-9, 9)]) for k in range(20)]).to_json_dict()))
        assert main(["eea", str(path)]) == 0
        assert len(capsys.readouterr().out) > 4 * 2**16  # well past the 64 KiB pipe buffer
        with self.run("eea", str(path)) as proc:
            assert proc.stdout.read(1)
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (1, b"")
        with self.run("eea", str(tmp_path / "missing.json")) as proc:
            out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (2, b"") and err.startswith(b"input error: [Errno 2] ")


class TestInputGuards:
    @pytest.mark.parametrize("bad", [True, False, "1e3", "1/0", "0.5", " 1", 1.5, None])
    def test_problem_file_scalars(self, tmp_path, capsys, bad):
        for problem in (
            {"points": [{"x": bad, "values": ["1"]}, {"x": "2", "values": ["3"]}]},
            {"points": [{"x": "1", "values": [bad]}, {"x": "2", "values": ["3"]}]},
            {"r0": ["0", bad, "1"], "r1": ["1"]},
        ):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(problem))
            assert main(["eea", str(path)]) == 2
            assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("bad", ["true", "false", '"1e3"', '"1/0"', "2.0"])
    def test_inline_coefficients(self, capsys, bad):
        assert main(["mu-basis", "--r0", f'["0", {bad}, "1"]', "--r1", '["1"]']) == 2
        assert main(["mu-basis", "--r0", '["0", "0", "1"]', "--r1", f"[{bad}]"]) == 2
        assert "input error: " in capsys.readouterr().err

    def test_integer_ratios_accepted(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"points": [{"x": -1, "values": ["-3/6", 2]}]}))
        assert main(["kappa", "--min", str(path)]) == 0

    def test_degree_cap(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"points": [
            {"x": "0", "values": ["1"] * 300}, {"x": "1", "values": ["2"]},
        ]}))
        r0 = ["0"] * (MAX_DEGREE + 1) + ["1"]
        high = json.dumps(r0)
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"r0": r0, "r1": ["1"]}))
        start = time.perf_counter()
        for argv in (
            ["delta", str(path)], ["kappa", str(path)], ["eea", str(path)],
            ["oracle", str(path)], ["mu-basis", str(curve)], ["eea", str(curve)],
            ["mu-basis", "--r0", high, "--r1", '["1"]'],
        ):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("input error: "), argv
        assert time.perf_counter() - start < 0.5
        curve.write_text(json.dumps({"r0": ["0"] * (MAX_DEGREE - 1) + ["1"], "r1": ["1"]}))
        assert main(["mu-basis", str(curve)]) == 0

    def test_input_size_cap(self, tmp_path, capsys):
        """Few nodes of many digits: nodes k/(10^D + k), k = 1..n, values randint(-9, 9), seed 1."""
        def wide(n, digits):
            rng = random.Random(1)
            data = InterpolationData.from_pairs(
                [(Fraction(k, 10**digits + k), [rng.randint(-9, 9)]) for k in range(1, n + 1)])
            path = tmp_path / f"wide{n}_{digits}.json"
            path.write_text(json.dumps(data.to_json_dict()))
            return str(path), data.input_size

        # n = 4 at D = 2,820 runs in about 0.2 s, just under the cap; at 2,850 digits it is just over.
        # n = 16 at D = 1,000 ran for 19-23 s and n = 16 at D = 4,000 past 120 s before the cap
        under, size = wide(4, 2820)
        assert MAX_INPUT_SIZE - 1_000 < size <= MAX_INPUT_SIZE
        assert main(["hermite-d", "-d", "2", under]) == 0
        assert capsys.readouterr().out.startswith("d = 2: ")
        for n, digits in ((4, 2850), (16, 1000), (16, 4000)):
            path, size = wide(n, digits)
            start = time.perf_counter()
            assert main(["hermite-d", "-d", "2", path]) == 2
            assert time.perf_counter() - start < 0.5
            assert capsys.readouterr().err == (
                f"input error: input size n*B = {size} exceeds the limit {MAX_INPUT_SIZE}, where B sums the "
                "bits of the node numerators and denominators over the conditions and adds the bits of the "
                "largest value\n")

    def test_input_size_counts_every_condition_and_the_largest_value(self):
        data = InterpolationData.from_pairs([(Fraction(5, 3), ["1/2", 7]), (-8, ["-100/9"])])
        # n = 3; the node 5/3 has 3 + 2 bits, counted twice; -8 has 4 + 1; -100/9 has 7 + 4
        assert data.input_size == 3 * (2 * 5 + 5 + 11)

    def test_input_size_cap_on_parametrizations(self, tmp_path, capsys):
        """deg r0 = n, deg r1 = n - 1, coefficients of D digits with random signs, seed 1."""
        def wide(n, digits):
            rng = random.Random(1)
            r0, r1 = ([str(rng.choice((-1, 1)) * rng.randint(10 ** (digits - 1), 10 ** digits - 1))
                       for _ in range(count)] for count in (n + 1, n))
            path = tmp_path / f"curve{n}_{digits}.json"
            path.write_text(json.dumps({"r0": r0, "r1": r1}))
            return str(path), n * (_polynomial(r0)[1] + _polynomial(r1)[1])

        # n = 16 at D = 85 runs in about 0.1 s, just under the cap; at 86 digits it is just over.
        # n = 64 at D = 100 ran for 16 s before the cap, and at D = 1,000 past 60 s
        under, size = wide(16, 85)
        assert MAX_INPUT_SIZE - 1_000 < size <= MAX_INPUT_SIZE
        assert main(["mu-basis", under]) == 0
        assert capsys.readouterr().out.startswith("mu = ")
        for n, digits in ((16, 86), (64, 100), (64, 1000)):
            path, size = wide(n, digits)
            start = time.perf_counter()
            assert main(["mu-basis", path]) == 2
            assert time.perf_counter() - start < 0.5
            assert capsys.readouterr().err == (
                f"input error: input size n*B = {size} exceeds the limit {MAX_INPUT_SIZE}, where B sums the "
                "bits of the coefficient numerators and denominators of r0 and r1\n")

    def test_the_bits_of_a_parametrization_count_every_coefficient(self):
        # 1/2 has 1 + 2 bits, 0 has 0 + 1, -8 has 4 + 1 and 6/4 = 3/2 has 2 + 2
        assert _polynomial(["1/2", 0, "-8", "6/4"]) == (P("1/2", 0, -8, "3/2"), 3 + 1 + 5 + 4)

    @pytest.mark.parametrize("command", ["delta", "kappa"])
    def test_requested_degree_cap(self, four_file, capsys, command):
        """--solve above MAX_DEGREE exits 2 before building anything of that degree."""
        start = time.perf_counter()
        for degree in (MAX_DEGREE + 1, 20_000_000):
            assert main([command, four_file, "--solve", str(degree)]) == 2
            assert capsys.readouterr().err.startswith("input error: ")
        assert time.perf_counter() - start < 0.5
        assert main([command, four_file, "--solve", str(MAX_DEGREE)]) == 0
        assert capsys.readouterr().out.startswith(f"{command} = {MAX_DEGREE}: ")

    def test_deep_nesting(self, tmp_path, capsys, monkeypatch):
        """200,000 nested arrays are an input error from a file, stdin and --r0."""
        deep = "[" * 200_000
        path = tmp_path / "deep.json"
        path.write_text(deep)
        assert main(["eea", str(path)]) == 2
        assert capsys.readouterr().err.startswith("input error: ")
        monkeypatch.setattr("sys.stdin", io.StringIO(deep))
        assert main(["delta", "-"]) == 2
        assert capsys.readouterr().err.startswith("input error: ")
        assert main(["mu-basis", "--r0", deep, "--r1", "[1]"]) == 2
        assert capsys.readouterr().err.startswith("input error: ")


def test_answers_past_the_int_to_str_limit(capsys, monkeypatch):
    """A 2,958-digit input coefficient gives remainders past 4,300 digits; all print."""
    problem = {"r0": ["1", "1", "0", "1"], "r1": ["1", "0", str(7**3500)]}
    trace = extended_euclid(Poly(problem["r0"]), Poly(problem["r1"]))
    outputs = {}
    for tail in ([], ["--json"]):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(problem)))
        assert main(["eea", "-", *tail]) == 0
        outputs[bool(tail)] = capsys.readouterr().out
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert max(len(str(c.numerator)) for row in trace.rows for p in row for c in p.coeffs) > limit
        assert json.loads(outputs[True])["rows"] == [
            {"i": i, "r": [str(c) for c in r.coeffs], "s": [str(c) for c in s.coeffs],
             "t": [str(c) for c in t.coeffs]}
            for i, (r, s, t) in enumerate(trace.rows)
        ]
        assert all(str(abs(c)) in outputs[False] for row in trace.rows for p in row for c in p.coeffs)
    finally:
        sys.set_int_max_str_digits(limit)


def test_parser_is_built_once_per_process(four_file, capsys, monkeypatch):
    from ratinterp import cli

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert main(["eea", four_file]) == 0
        assert main(["kappa", "--min", four_file]) == 0
        with pytest.raises(SystemExit):
            main(["delta", "--basis", "--set", four_file])
        assert main(["delta", "--basis", four_file]) == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    assert "x^2 - 3" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["frobnicate"], ["--json", "eea", "FILE"], ["delta", "-h"], ["delta"],
    ["delta", "--basis", "--set", "FILE"], ["hermite-d", "FILE"], ["kappa", "--solve", "x", "FILE"],
    ["eea", "FILE", "--bogus"], ["delta", "FILE", "extra"],
], ids=" ".join)
def test_parse_matches_the_top_level_parser(argv, four_file, capsys):
    """``main`` parses with the subcommand's parser, yet exits, prints and fails as the full parser does."""
    from ratinterp.cli import build_parser

    argv = [four_file if word == "FILE" else word for word in argv]
    outcomes = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outcomes.append((exc.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


def _refuse(*_args, **_kwargs):
    raise RuntimeError("this output form must not be built")


COMMANDS = [
    ["eea"], ["delta"], ["delta", "--basis"], ["delta", "--set"], ["delta", "--solve", "3"],
    ["kappa"], ["kappa", "--min"], ["kappa", "--solve", "4"], ["hermite-d", "-d", "1"],
    ["hermite-d", "-d", "2"],
]


class TestOneOutputForm:
    """Each invocation builds only the form it prints."""

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_text_builds_no_json(self, four_file, capsys, monkeypatch, argv):
        from ratinterp import EEATrace, KappaReport

        for owner in (EEATrace, KappaReport, Poly):
            monkeypatch.setattr(owner, "to_json", _refuse)
        assert main([*argv, four_file]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_json_builds_no_text(self, four_file, capsys, monkeypatch, argv):
        from ratinterp import EEATrace, KappaReport

        monkeypatch.setattr(EEATrace, "__str__", _refuse)
        monkeypatch.setattr(KappaReport, "text", _refuse)
        monkeypatch.setattr(Poly, "format", _refuse)
        assert main([*argv, four_file, "--json"]) == 0
        json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("projective", [[], ["--projective"]])
    def test_mu_basis(self, curve_file, capsys, monkeypatch, projective):
        from ratinterp.mubasis import MuBasis

        monkeypatch.setattr(Poly, "to_json", _refuse)
        assert main(["mu-basis", curve_file, *projective]) == 0
        monkeypatch.undo()
        monkeypatch.setattr(MuBasis, "text", _refuse)  # the projective JSON lines are text
        assert main(["mu-basis", curve_file, *projective, "--json"]) == 0

    def test_kappa_min_json_renders_no_isolated_entry(self, four_file, capsys, monkeypatch):
        from ratinterp.kappasolver import KappaIsolated

        monkeypatch.setattr(KappaIsolated, "to_json", _refuse)
        assert main(["kappa", "--min", four_file, "--json"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["minimal_kappa", "minimal_solutions"]
