"""The FAMILY representative and the samplers: the least free parameter, found by the trace's node test."""

import random

import pytest

import ratinterp.deltasolver as ds
from ratinterp import (
    ONE,
    InterpolationData,
    check_interpolates,
    kappa_of,
    minimal_delta_solutions,
    monomial,
    sample_solution_of_delta,
    sample_solution_of_kappa,
)
from ratinterp.hermite import combine

from conftest import integer_node_data, rational_node_data, repeated_node_data


def _small_values(rng):
    """Values -1..1 at nodes -2..2: node constraints often forbid p = x**e itself."""
    nodes = sorted(rng.sample(range(-2, 3), rng.randint(2, 5)))
    return InterpolationData.from_pairs([(x, [rng.randint(-1, 1)]) for x in nodes])


@pytest.fixture(scope="module")
def family():
    """300 distinct FAMILY instances with their reports, half of them with small values."""
    rng = random.Random(15)
    makers = (
        lambda r: integer_node_data(r, r.randint(2, 8)),
        lambda r: repeated_node_data(r, r.randint(2, 8)),
        lambda r: rational_node_data(r, r.randint(2, 8)),
    )
    seen, out = set(), []
    while len(out) < 300:
        data = _small_values(rng) if len(out) % 2 else rng.choice(makers)(rng)
        if data in seen:
            continue
        seen.add(data)
        report = minimal_delta_solutions(data)
        if report.kind == "FAMILY":
            out.append((data, report))
    return out


def _reference_member(data, report):
    """The member for p = x**e + k, k the least integer >= 0 that no node constraint forbids."""
    e = report.family_degree
    banned = {v - x**e for x, v in report.node_constraints if v is not None}
    k = 0
    while k in banned:
        k += 1
    basis = report.basis
    return k, combine(basis.pair1, basis.pair2, monomial(e) + k, ONE, data)


def test_representative_is_the_member_of_the_least_free_parameter(family):
    shifted = 0
    for data, report in family:
        k, member = _reference_member(data, report)
        shifted += k > 0
        assert member is not None
        assert report.representative == member
        assert sample_solution_of_delta(data, report.minimal_delta) == member
    # the search must step past a forbidden k on some of the instances
    assert shifted >= 10, shifted


def test_samplers_need_no_exact_node_constraints(family, monkeypatch):
    def unused(*args):
        raise AssertionError("the samplers read the trace's node test, not the node constraints")

    monkeypatch.setattr(ds, "_node_constraints", unused)
    for data, report in family:
        mu2 = report.minimal_delta
        for delta in (mu2, mu2 + 1):
            rf = sample_solution_of_delta(data, delta)
            assert rf.delta_degree == delta and check_interpolates(rf, data)
        rf = sample_solution_of_kappa(data, data.n)
        assert kappa_of(rf) == data.n and check_interpolates(rf, data)

