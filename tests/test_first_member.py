"""The FAMILY representative and the samplers: the least free parameter, found by the trace's node test."""

import random

import pytest

import ratinterp.deltasolver as ds
from ratinterp import (
    ONE,
    InterpolationData,
    check_interpolates,
    evaluate_parametrization,
    kappa_of,
    minimal_delta_solutions,
    monomial,
    sample_solution_of_delta,
    sample_solution_of_kappa,
)

from conftest import integer_node_data, rational_node_data, repeated_node_data


def _small_values(rng):
    """Values -1..1 at nodes -2..2: node constraints often forbid p = x**e itself."""
    nodes = sorted(rng.sample(range(-2, 3), rng.randint(2, 5)))
    return InterpolationData.from_pairs([(x, [rng.randint(-1, 1)]) for x in nodes])


def _draw(kind, count):
    """count distinct instances of the kind with their reports, half of them with small values."""
    rng = random.Random(15)
    makers = (
        lambda r: integer_node_data(r, r.randint(2, 8)),
        lambda r: repeated_node_data(r, r.randint(2, 8)),
        lambda r: rational_node_data(r, r.randint(2, 8)),
    )
    seen, out = set(), []
    while len(out) < count:
        data = _small_values(rng) if len(out) % 2 else rng.choice(makers)(rng)
        if data in seen:
            continue
        seen.add(data)
        report = minimal_delta_solutions(data)
        if report.kind == kind:
            out.append((data, report))
    return out


@pytest.fixture(scope="module")
def family():
    """300 distinct FAMILY instances with their reports."""
    return _draw("FAMILY", 300)


@pytest.fixture(scope="module")
def unique():
    """150 distinct UNIQUE instances with their reports."""
    return _draw("UNIQUE", 150)


def _reference_member(data, basis, delta):
    """The member for p = x**(delta - mu1) + k, k the least integer >= 0 that no node constraint forbids."""
    e = delta - basis.mu1
    banned = {v - x**e for x, v in ds._node_constraints(data, basis) if v is not None}
    k = 0
    while k in banned:
        k += 1
    return k, evaluate_parametrization(basis, monomial(e) + k, ONE, data)


def test_representative_is_the_member_of_the_least_free_parameter(family, unique):
    """The delta samples at mu2, mu2 + 1 and n + 1 of either kind, and the FAMILY representative."""
    targets = {"mu2": lambda data, mu2: mu2, "mu2 + 1": lambda data, mu2: mu2 + 1,
               "n + 1": lambda data, mu2: data.n + 1}
    for name, target in targets.items():
        shifted = 0
        for data, report in family + unique:
            basis = report.basis
            delta = target(data, basis.mu2)
            k, member = _reference_member(data, basis, delta)
            shifted += k > 0
            assert member is not None and member.delta_degree == delta
            if report.kind == "FAMILY" and delta == basis.mu2:
                assert report.representative == member
            assert sample_solution_of_delta(data, delta) == member, (name, data)
        # the search must step past a forbidden k on some of the instances
        assert shifted >= 25, (name, shifted)


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

