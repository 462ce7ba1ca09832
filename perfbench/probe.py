"""One-shot scaling probe: the baseline table of the repository roadmap.

Not a benchmark workload.  For each n it times ``extended_euclid``, the
full delta report (minimal basis, admissible set and minimal solutions),
the kappa report and ``mu_basis`` once, on simple integer nodes 0..n-1
with values ``randint(-9, 9)`` (seed 1), and records the largest
coefficient of the trace in bits.  Every case runs in its own process
under a time limit and records ``"timeout"`` instead of hanging.

    python3 perfbench/probe.py [--sizes 16 24 32 64] [--timeout 60]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CASES = ("extended_euclid", "delta_report", "kappa_report", "mu_basis")


def _instance(n: int):
    from ratinterp import InterpolationData, PlaneParametrization, Poly

    rng = random.Random(1)
    data = InterpolationData.from_pairs([(x, [rng.randint(-9, 9)]) for x in range(n)])
    r0 = Poly([rng.randint(-9, 9) for _ in range(n)] + [rng.choice((1, 2, 3))])
    r1 = Poly([rng.randint(-9, 9) for _ in range(n - 1)] + [1])
    return data, PlaneParametrization(r0, r1)


def _max_bits(trace) -> int:
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for row in trace.rows for poly in row for c in poly.coeffs
    )


def _case(name: str, n: int, queue) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import ratinterp as ri

    data, param = _instance(n)
    start = time.perf_counter()
    bits = None
    if name == "extended_euclid":
        trace = ri.extended_euclid(ri.nodal_poly(data), ri.hermite_polynomial(data))
        elapsed = time.perf_counter() - start
        bits = _max_bits(trace)
    elif name == "delta_report":
        ri.minimal_basis(data)
        ri.admissible_delta_set(data)
        ri.minimal_delta_solutions(data)
        elapsed = time.perf_counter() - start
    elif name == "kappa_report":
        ri.admissible_kappa(data)
        elapsed = time.perf_counter() - start
    else:
        ri.mu_basis(param)
        elapsed = time.perf_counter() - start
        bits = _max_bits(ri.extended_euclid(param.r0, param.r1))
    queue.put({"seconds": round(elapsed, 4), "max_coeff_bits": bits})


def run_case(name: str, n: int, timeout: float) -> dict:
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    proc = ctx.Process(target=_case, args=(name, n, queue))
    proc.start()
    try:
        result = queue.get(timeout=timeout)
    except Exception:  # queue.Empty: the case ran past its limit
        result = {"seconds": "timeout", "max_coeff_bits": None}
    finally:
        if proc.is_alive():
            proc.terminate()
        proc.join()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[16, 24, 32, 64])
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per case")
    args = parser.parse_args(argv)
    table = []
    for n in args.sizes:
        for name in CASES:
            row = {"n": n, "case": name, **run_case(name, n, args.timeout)}
            print(json.dumps(row), flush=True)
            table.append(row)
    print(json.dumps({"timeout_s": args.timeout, "cases": table}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
