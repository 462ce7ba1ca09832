"""The ratinterp benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` the run times requests back to back, in whole decks,
until ``--seconds`` have passed, and reports the end-to-end metrics,
calibrated for machine speed.  With ``--trace 1`` it runs the first
decks twice, untraced and then traced, and reports the per-layer
metrics, including the tracing overhead; the spans and a per-layer
table are written to ``perfbench/out/``.  Every answer is checked
outside the timed region.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
CALIBRATION_EVERY_S = 0.75
CALIBRATION_WINDOW_S = 2.5
CALIBRATION_REFERENCE_S = {True: 0.06, False: 0.03}  # by small_requests


def _quantile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); one sample is its own quantile."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _import_library() -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import ratinterp.cli
    except ImportError as exc:
        print(f"cannot import ratinterp from {HERE.parent / 'src'}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if (HERE.parent / "src") not in Path(ratinterp.cli.__file__).resolve().parents:
        print(f"ratinterp was imported from {ratinterp.cli.__file__}, not from this checkout",
              file=sys.stderr)
        raise SystemExit(2)
    return time.perf_counter() - start


def _remainder_sequence(r0: list, r1: list) -> None:
    """Plain Fraction remainder sequence of r0, r1 (ascending coefficient lists)."""
    while r1:
        rem = list(r0)
        for k in range(len(rem) - len(r1), -1, -1):
            c = rem[k + len(r1) - 1] / r1[-1]
            for j, cj in enumerate(r1):
                rem[k + j] -= c * cj
        rem = rem[: len(r1) - 1]
        while rem and rem[-1] == 0:
            rem.pop()
        r0, r1 = r1, rem


def _calibration_input() -> tuple[list, list]:
    f = [Fraction(1)]
    for node in range(-10, 12):  # prod (x - node), degree 22
        f = [Fraction(0)] + f
        for k in range(len(f) - 1):
            f[k] -= node * f[k + 1]
    g = [Fraction((7 * k * k + 3 * k + 5) % 19 - 9) for k in range(21)] + [Fraction(1)]
    return f, g


CALIBRATION_INPUT = _calibration_input()
CALIBRATION_PARSER = argparse.ArgumentParser(prog="calibration")
CALIBRATION_PARSER.add_argument("problem")
CALIBRATION_PARSER.add_argument("--json", action="store_true")
CALIBRATION_PARSER.add_argument("-d", type=int)
CALIBRATION_DOC = {
    "points": [{"x": str(Fraction(k, 3)), "values": [str(Fraction(k * k, 7))]} for k in range(12)]
}


def _small_requests() -> None:
    """Argument parsing, JSON and small Fractions: the fixed costs of a CLI request."""
    for _ in range(150):
        CALIBRATION_PARSER.parse_args(["-", "--json", "-d", "3"])
        doc = json.loads(json.dumps(CALIBRATION_DOC))
        acc = Fraction(0)
        for point in doc["points"]:
            acc += Fraction(point["x"]) * Fraction(point["values"][0]) + 1


def calibration_sample(small_requests: bool) -> float:
    """Seconds for fixed stdlib work written here, not in the library.

    The kinds of work the workloads do: a Fraction remainder sequence
    whose coefficients grow to ~2000 bits and, unless the workload runs
    on big coefficients alone, the small-object work of a CLI request.
    Its time tracks how fast the machine runs that work right now.
    """
    start = time.perf_counter()
    _remainder_sequence(*CALIBRATION_INPUT)
    if small_requests:
        _small_requests()
    return time.perf_counter() - start


class Pass:
    """Latencies, failures and machine-speed samples of one sequence of requests."""

    def __init__(self, small_requests: bool = True) -> None:
        self.latencies: list[float] = []
        self.ends: list[float] = []
        self.failures: list[str] = []
        self.calibration: list[tuple[float, float]] = []  # (when, seconds)
        self.small_requests = small_requests
        self.reference_s = CALIBRATION_REFERENCE_S[small_requests]

    def calibrate(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.calibration or now - self.calibration[-1][0] >= CALIBRATION_EVERY_S:
            self.calibration.append((now, calibration_sample(self.small_requests)))

    def slowness(self, when: float) -> float:
        """Median calibration time near `when` over the reference: above 1 on a slower machine.

        The samples within CALIBRATION_WINDOW_S count, or the three
        nearest when fewer fall inside it.
        """
        near = sorted(self.calibration, key=lambda c: abs(c[0] - when))
        inside = [s for t, s in near if abs(t - when) <= CALIBRATION_WINDOW_S]
        samples = inside if len(inside) >= 3 else [s for _, s in near[:3]]
        return statistics.median(samples) / self.reference_s

    def calibrated(self) -> list[float]:
        return [lat / self.slowness(end) for lat, end in zip(self.latencies, self.ends)]

    def run(self, req, checker, execute, check, done=None) -> None:
        self.latencies.append(execute(req))
        self.ends.append(time.perf_counter())
        if done is not None:
            done()
        self.calibrate()
        try:
            check(req, checker)
        except Exception as exc:  # CheckFailed, or a bug in a check: both count
            self.failures.append(f"{req.kind} [{req.inst.family}, n={req.inst.n}]: {exc}")
        req.result = None

    def p50_ms(self) -> float:
        return 1000 * _quantile(self.latencies, 50)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ratinterp benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_library()
    import workloads as wl
    from check import Checker

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")

    # set-up: instance generation and warm-up, repeated; the median counts.
    # Every round sees the warm-up instances of the rounds before it, so no
    # timed request repeats one the library has already cached.
    warmed: set = set()
    setups = []
    timed = Pass(wl.SMALL_REQUESTS[args.workload])
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        seen = set(warmed)
        decks = wl.decks(args.workload, args.seed, seen)
        deck = next(decks)
        before = set(seen)
        for req in wl.warmup(args.workload, args.seed, rep, seen):
            wl.execute(req)
        warmed |= seen - before
        setups.append(time.perf_counter() - start)
        timed.calibrate(force=True)
    setup_s = import_s + statistics.median(setups)
    setup_slowness = timed.slowness(timed.calibration[SETUP_REPEATS // 2][0])
    checker = Checker(args.seed)

    if args.trace:
        reqs = deck + [req for _ in range(wl.TRACED_DECKS[args.workload] - 1) for req in next(decks)]
        return _traced_run(args, wl, reqs, checker)

    # whole decks until the time is up, so every run sees complete mixes
    deadline = time.perf_counter() + args.seconds
    done = 0
    while True:
        for req in deck:
            timed.run(req, checker, wl.execute, wl.check)
        done += 1
        if done == wl.RSS_DECKS[args.workload]:
            peak_rss_mb = _peak_rss_mb()
        if time.perf_counter() >= deadline:
            break
        deck = next(decks)
    if done < wl.RSS_DECKS[args.workload]:
        peak_rss_mb = _peak_rss_mb()

    count = len(timed.latencies)
    failed = len(timed.failures)
    busy = sum(timed.latencies)
    latencies = timed.calibrated()
    metrics = {
        "latency_p50_ms": (1000 * _quantile(latencies, 50), "ms"),
        "latency_p90_ms": (1000 * _quantile(latencies, 90), "ms"),
        "throughput_rps": ((count - failed) / sum(latencies), "1/s"),
        "setup_s": (setup_s / setup_slowness, "s"),
    }
    raw = {
        "latency_p50_ms": 1000 * _quantile(timed.latencies, 50),
        "latency_p90_ms": 1000 * _quantile(timed.latencies, 90),
        "throughput_rps": (count - failed) / busy,
        "setup_s": setup_s,
    }
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    slowness = [s / timed.reference_s for _, s in timed.calibration]
    print(f"workload {args.workload}, seed {args.seed}: {count} requests "
          f"(latency samples: {count}), {busy:.2f} s of request time; machine slowness "
          f"{min(slowness):.3f}..{max(slowness):.3f} in {len(slowness)} calibration samples")
    for name, (value, unit) in metrics.items():
        extra = f"   (uncalibrated {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:16s} {value:12.4f} {unit}{extra}")
    print(f"  {'failed_frac':16s} {failed / count:12.4f} fraction ({failed} of {count})")
    for line in timed.failures[:10]:
        print(f"  FAILED {line}")
    _emit(count, failed, metrics)
    return 0


@dataclass
class TraceResult:
    metrics: dict  # name -> (value, unit)
    report: dict
    spans: list
    failures: list


def trace_requests(wl, reqs: list, checker) -> TraceResult:
    """Run reqs untraced, then traced; the library's caches are emptied before each pass."""
    from ratinterp import hermite
    from tracing import Tracer, layer_metrics

    cached = [f for f in (hermite.nodal_poly, hermite.hermite_polynomial) if hasattr(f, "cache_info")]
    for fn in cached:
        fn.cache_clear()
    plain = Pass()
    for req in reqs:
        plain.run(req, checker, wl.execute, wl.check)

    for fn in cached:
        fn.cache_clear()
    tracer = Tracer()
    traced = Pass()
    tracer.install()
    try:
        for i, req in enumerate(reqs):
            root = tracer.begin_request(i, req.kind)
            root.info = {"family": req.inst.family, "n": req.inst.n}
            traced.run(req, checker, wl.execute, wl.check, lambda: tracer.close(root))
    finally:
        tracer.uninstall()
    infos = [f.cache_info() for f in cached]
    cache = {
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
        "size": sum(i.currsize for i in infos),
    }
    metrics, report = layer_metrics(tracer.spans, len(reqs), cache)
    metrics["trace.latency_p50_ms"] = (traced.p50_ms(), "ms")
    metrics["trace.untraced_p50_ms"] = (plain.p50_ms(), "ms")
    metrics["trace.overhead_ms"] = (traced.p50_ms() - plain.p50_ms(), "ms")
    return TraceResult(metrics, report, tracer.spans, plain.failures + traced.failures)


def _traced_run(args, wl, reqs: list, checker) -> int:
    """The first decks, untraced then traced: a fixed list, so counts repeat exactly."""
    result = trace_requests(wl, reqs, checker)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    report = dict(result.report, metrics={k: v for k, (v, _) in result.metrics.items()})
    (out_dir / f"trace-{stem}.json").write_text(json.dumps(report, indent=1))
    with open(out_dir / f"spans-{stem}.jsonl", "w") as fh:
        for span in result.spans:
            fh.write(json.dumps(span.to_json()) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(reqs)} requests untraced, "
          f"then traced into {len(result.spans)} spans -> {out_dir}/trace-{stem}.json")
    print(f"  {'layer':14s} {'spans':>7s} {'total ms':>10s} {'self ms':>10s}")
    for layer, row in sorted(report["layers"].items()):
        print(f"  {layer:14s} {row['spans']:7d} {row['ms']:10.2f} {row['self_ms']:10.2f}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    for line in result.failures[:10]:
        print(f"  FAILED {line}")
    _emit(2 * len(reqs), len(result.failures), result.metrics)
    return 0


def _emit(attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    raise SystemExit(main())
