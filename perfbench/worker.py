"""One workload in one process: set up, run the closed loop, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace] [--setup-only] [--t0 MONOTONIC]

``run.py`` starts this once per measurement.  It imports ``dircomplex`` from
the checkout's ``src`` (and refuses any other copy), loads the pool, and
builds the workload's round: every manifest request of the workload,
repeated by its weight.  Each round is the same multiset of requests in a
new order drawn from the seed; one client sends them back to back, and whole
rounds run until ``--seconds`` have passed, so every run measures the same
mix.

The end-to-end timings are given at the host's nominal speed.  On a shared
host the speed of the same code drifts by tens of percent for seconds to
minutes at a time, so the worker also times a fixed pure-Python reference
kernel that calls nothing of ``dircomplex``: after set-up, and between
requests about every ``REF_EVERY_S`` of request time (outside every request's
timing).  Each request of the round is taken at its median latency over
the run's repeats of it, and scaled by ``REF_NOMINAL_S`` over the median
reference time of the run; the set-up time is scaled by the median of the
reference timed right after it.  A change to ``dircomplex`` moves these
figures as it moves the plain ones, while the host's drift, which slows the
reference as much as the library, largely cancels.  (Best-of-run latencies,
as ``timeit`` takes them, spread two to five times as much: a short kernel
timed often finds the host's brief fast spells, a long request timed a dozen
times does not.)  ``ops_per_s`` is the round's size over the sum of its
requests' scaled latencies; ``op_p50_ms`` and ``op_p90_ms`` are their median
and 90th percentile over the round.  The plain figure, requests over summed
request time, is reported as ``raw_ops_per_s``, and ``speed`` is the run's
nominal over its median reference time.  The last line of stdout is one JSON
object with the results.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

REF_NOMINAL_S = 0.005   # the reference kernel's time at nominal speed
REF_EVERY_S = 0.25      # request time between two timings of the reference
REF_AFTER_SETUP = 5     # timings of the reference right after set-up

# the checker self-test's known-good requests
SELFTEST_CLI = "check-molecule:globe3"
SELFTEST_LIB = "gray:simplex2-globe1"


def _caches(package) -> list:
    """Every ``cache_clear``-bearing function bound in the library."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def _operands(dc, pool: Path, names) -> dict:
    return {name: dc.OgPoset.from_json((pool / f"{name}.json").read_text())
            for name in names}


def reference_kernel() -> int:
    """Fixed dict, tuple, sort and set work of a few milliseconds."""
    counts: dict = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return len(frozenset(k for k, v in sorted(counts.items()) if v > 1))


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["recognize", "realize", "algebra"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, help="time.monotonic() at spawn")
    args = ap.parse_args()
    t0 = args.t0 if args.t0 is not None else time.monotonic()

    sys.path.insert(0, str(SRC))
    import dircomplex as dc
    if not Path(dc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"dircomplex imported from {dc.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    from dircomplex import cli

    import algebra
    import stream

    manifest = stream.load_manifest()
    specs = {s["id"]: s for s in manifest["requests"]}
    caches = _caches(dc)
    if args.workload == "algebra":
        operands = _operands(dc, stream.POOL, manifest["operands"])
        shape_caches = [f for f in caches if f.__module__ == "dircomplex.shapes"]

        def make(spec):
            return stream.LibRequest(spec, algebra.OPS[spec["op"]], operands,
                                     shape_caches)
    else:
        def make(spec):
            return stream.CliRequest(spec, cli, caches)
    deck = [make(s) for s in specs.values() if s["workload"] == args.workload
            for _ in range(s["weight"])]
    setup_s = time.monotonic() - t0
    setup_speed = REF_NOMINAL_S / statistics.median(
        time_reference() for _ in range(REF_AFTER_SETUP))
    setup_s *= setup_speed
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    rng = random.Random(args.seed)
    latencies, failures, escaped = [], [], Counter()
    by_request: dict[str, list] = {}
    references = []
    since_reference = 0.0
    scales: dict[str, dict[str, list]] = {}
    rounds = 0
    start = time.monotonic()
    while rounds == 0 or time.monotonic() - start < args.seconds:
        order = deck[:]
        rng.shuffle(order)
        for req in order:
            latency, outcome = stream.execute(req, tracer)
            latencies.append(latency)
            by_request.setdefault(req.id, []).append(latency)
            since_reference += latency
            if since_reference >= REF_EVERY_S:
                references.append(time_reference())
                since_reference = 0.0
            if req.scale:
                family, x = req.scale
                scales.setdefault(family, {}).setdefault(str(x), []).append(latency)
            if not outcome.ok:
                failures.append(f"{req.id}: {outcome.reason}")
            if outcome.escaped:
                escaped[outcome.escaped] += 1
        rounds += 1
    wall_s = time.monotonic() - start

    lib_spec = specs[SELFTEST_LIB]
    wrong = stream.selftest(
        cli, specs[SELFTEST_CLI], lib_spec, algebra.OPS[lib_spec["op"]],
        _operands(dc, stream.POOL, lib_spec["args"]))

    busy_s = sum(latencies)
    references.append(time_reference())
    speed = REF_NOMINAL_S / statistics.median(references)
    # each entry of the round at its request's median latency in the run,
    # at nominal speed
    typical = sorted(statistics.median(by_request[req.id]) * speed
                     for req in deck)
    result = {
        "workload": args.workload,
        "setup_s": setup_s,
        "rounds": rounds,
        "round_size": len(deck),
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:20],
        "malformed": sum(1 for r in deck if r.malformed) * rounds,
        "escaped": dict(escaped),
        "wall_s": wall_s,
        "busy_s": busy_s,
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1000,
        "op_p90_ms": statistics.quantiles(typical, n=10,
                                          method="inclusive")[8] * 1000,
        "raw_ops_per_s": len(latencies) / busy_s,
        "speed": speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "scales": {fam: {x: statistics.median(v) * 1000 for x, v in pts.items()}
                   for fam, pts in scales.items()},
        "selftest_wrong": wrong,
        "trace": tracer.snapshot() if tracer else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
