"""The dircomplex benchmark.

    python3 perfbench/run.py --workload recognize|realize|algebra|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Each workload is one seeded, single-client, closed-loop request stream over
the pool in ``perfbench/pool`` (see ``make_pool.py``):

- ``recognize``: cold ``dircomplex check ...`` CLI requests; the molecule
  split search, the boundary kernel and JSON validation do the work;
- ``realize``: cold ``dircomplex topo ...`` CLI requests on atoms; nerves,
  homology, the dd = 0 check and Smith normal form do the work;
- ``algebra``: library calls on shared, warm operands: constructors,
  boundary formulas, map enumeration, pasting laws and the shape towers.

Every workload runs in its own process (``worker.py``), one after another,
with BLAS/OpenMP threads pinned to 1.  With ``--trace 0`` the end-to-end
metrics are printed, each request counted at its median latency in the run
and scaled to the host's nominal speed by a reference kernel (see
``worker.py``);
set-up time is the median over several fresh processes.
With ``--trace 1`` an untraced and a traced process each run half of
``--seconds`` and the per-layer metrics are printed.  Every answer is checked;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("recognize", "realize", "algebra")
SETUP_SAMPLES = 7          # fresh processes whose set-up time is the median
DEADLINE_S = 170           # every child is stopped before the run's 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(argv: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv, "--t0", repr(t0)],
        stdout=subprocess.PIPE, cwd=ROOT, env=_child_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(argv)} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    """Metrics, counts and diagnostics of one workload."""
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        plain = _spawn(base + ["--seconds", str(seconds / 2)], deadline)
        traced = _spawn(base + ["--seconds", str(seconds / 2), "--trace"],
                        deadline)
        values = tracer.per_layer_values(traced["trace"], traced["busy_s"],
                                         plain["ops_per_s"], traced["ops_per_s"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracer.per_layer_names()}
        runs = [plain, traced]
    else:
        setups = [_spawn(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        main = _spawn(base + ["--seconds", str(seconds)], deadline)
        main["setup_s"] = statistics.median(setups + [main["setup_s"]])
        metrics = {name: {"value": main[name], "unit": unit}
                   for name, unit in END_TO_END}
        runs = [main]
    return {"workload": workload, "metrics": metrics, "runs": runs,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["failed"] == 0 and not r["selftest_wrong"]
                           for r in runs)}


def report(res: dict) -> None:
    """Human-readable lines for one workload (all before the JSON line)."""
    run = res["runs"][0]
    print(f"== {res['workload']}: {run['rounds']} rounds of {run['round_size']}"
          f" requests, {run['attempted']} requests, one client, closed loop")
    for name, m in res["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"  (timings at nominal speed, each request at its median latency in"
          f" the run; host speed {run['speed']:.3f} of nominal; plain requests"
          f" over summed request time {run['raw_ops_per_s']:.6g} 1/s)")
    escaped = sum(run["escaped"].values())
    print(f"  failed {res['failed']} of {res['attempted']} requests"
          f" (fail_ratio {res['failed'] / res['attempted']:.4f})")
    if run["malformed"]:
        kinds = ", ".join(f"{k} {v}" for k, v in sorted(run["escaped"].items()))
        print(f"  malformed-input requests refused: {run['malformed']}, of which"
              f" {escaped} escaped cli.run as exceptions ({kinds});"
              f" escape share {escaped / run['attempted']:.4f}")
    for r in res["runs"]:
        for line in r["failures"]:
            print(f"  FAILED {line}")
        for line in r["selftest_wrong"]:
            print(f"  CHECKER SELF-TEST WRONG: {line}")
    if not any(r["selftest_wrong"] for r in res["runs"]):
        print("  answer checker self-test: all cases judged right")
    for family, points in run["scales"].items():
        print(f"  scaling, {family} (median ms):")
        for x, ms in sorted(points.items(), key=lambda kv: _num(kv[0])):
            print(f"    {x:>8s} {ms:12.3f}")
    traced = res["runs"][-1].get("trace")
    if traced:
        _report_trace(res, traced)


def _num(text: str):
    head = text.split("->")[0]
    return (int(head), text) if head.isdigit() else (0, text)


def _report_trace(res: dict, snapshot: dict) -> None:
    values = {k: m["value"] for k, m in res["metrics"].items()}
    share = {layer: values[f"{layer}.self_share"] for layer in tracer.LAYERS}
    print("  self time share of request time: " + ", ".join(
        f"{layer} {s:.3f}" for layer, s in share.items()))
    checks = {
        "recognize": [("molecule + ogposet self time > 1/2",
                       share["molecule"] + share["ogposet"] > 0.5),
                      ("topology ~ 0", share["topology"] < 0.01)],
        "realize": [("topology self time > 1/2", share["topology"] > 0.5),
                    ("molecule.iter_splits ~ 0",
                     values["molecule.iter_splits.self_s"]
                     < 0.01 * values["traced.request_s"])],
        "algebra": [("construct + ogposet + shapes self time > 1/2",
                     share["construct"] + share["ogposet"] + share["shapes"] > 0.5),
                    ("topology ~ 0", share["topology"] < 0.01)],
    }[res["workload"]]
    for text, ok in checks:
        print(f"  design check, {text}: {'holds' if ok else 'DOES NOT HOLD'}")
    absent = sorted({key for _, key, _ in tracer.PER_FUNCTION
                     if key not in snapshot})
    if absent:
        print("  absent at this commit: " + ", ".join(absent))
    print("  busiest wrapped functions (calls, self s, raised):")
    top = sorted(snapshot.items(), key=lambda kv: -kv[1]["self_s"])[:15]
    for key, s in top:
        print(f"    {key:42s} {s['calls']:9d} {s['self_s']:10.4f} {s['raised']:6d}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if not (ROOT / "src" / "dircomplex" / "__init__.py").is_file():
        print(f"no dircomplex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace), deadline)
                   for w in names]
    except BenchError as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m
                   for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
