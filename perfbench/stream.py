"""Requests of the three workloads, and the checker of their answers.

A request is built from one manifest entry.  ``prepare`` does the untimed
work that must precede it (clearing caches), ``call`` is the timed work,
and ``judge`` turns what the call returned or raised into an ``Outcome``.
A request fails on a wrong answer, a wrong exit code, an exception, or an
output whose canonical-JSON digest differs from the one recorded in the
manifest when the pool was made.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

POOL = Path(__file__).resolve().parent / "pool"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_manifest() -> dict:
    return json.loads((POOL / "manifest.json").read_text())


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    # malformed-input requests only: the exception type that escaped
    # ``cli.run`` instead of a clean non-zero exit
    escaped: Optional[str] = None


def run_cli(run: Callable, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def _homology_equal(got, want) -> bool:
    """Equal up to trailing zero groups (unreduced, per degree)."""
    pad = (0, [])
    got = [(g["betti"], g["torsion"]) for g in got]
    want = [(b, t) for b, t in want]
    n = max(len(got), len(want))
    return all((got[d] if d < len(got) else pad)
               == (want[d] if d < len(want) else pad) for d in range(n))


def check_cli_answer(spec: dict, code: int, out: str) -> str:
    """Empty when exit code and parsed answer match ``spec``; else why not."""
    want = spec["answer"]
    if code != spec["exit"]:
        return f"exit code {code}, expected {spec['exit']}"
    try:
        got = json.loads(out)
    except ValueError:
        return "output is not one JSON document"
    group, verb = spec["argv"][1], spec["argv"][2]
    if group == "check":
        if got.get("check") != verb or got.get("ok") != want["ok"]:
            return f"check {verb}: ok={got.get('ok')}, expected {want['ok']}"
    elif verb == "homology":
        if not _homology_equal(got["H"], want["H"]):
            return f"homology {got['H']}, expected {want['H']}"
    elif verb == "euler":
        if got["euler"] != want["euler"]:
            return f"euler {got['euler']}, expected {want['euler']}"
    elif verb == "cwcheck":
        seen = {k: got.get(k) for k in ("ok", "failures", "checked")}
        if seen != want:
            return f"cwcheck {seen}, expected {want}"
    else:
        return f"no checker for {group} {verb}"
    return ""


class CliRequest:
    """A cold ``dircomplex`` CLI request on a pool file, run in-process.

    Cold means what a fresh process would see: the file is parsed again and
    every ``cache_clear``-bearing function of the library starts empty.
    """

    def __init__(self, spec: dict, cli, caches: list):
        self.spec = spec
        self.id = spec["id"]
        self.scale = spec.get("scale")
        self.malformed = spec["answer"] == {"rejected": True}
        self.argv = [str(POOL / spec["file"]) if a == "{file}" else a
                     for a in spec["argv"]]
        self._cli = cli
        self._caches = caches

    def prepare(self) -> None:
        for fn in self._caches:
            fn.cache_clear()

    def call(self):
        return run_cli(self._cli.run, self.argv)

    def judge(self, result, exc: Optional[BaseException]) -> Outcome:
        if self.malformed:
            # the input must be refused; an exception escaping the CLI is a
            # refusal too, but it is tallied so the traceback stays visible
            if exc is not None:
                return Outcome(True, escaped=type(exc).__name__)
            if result[0] == 0:
                return Outcome(False, "malformed input accepted")
            return Outcome(True)
        if exc is not None:
            return Outcome(False, f"raised {type(exc).__name__}: {exc}")
        code, out = result
        reason = check_cli_answer(self.spec, code, out)
        if reason:
            return Outcome(False, reason)
        if digest(out) != self.spec["digest"]:
            return Outcome(False, "output digest differs from the pool's")
        return Outcome(True)


class LibRequest:
    """A library call of the ``algebra`` workload on shared, warm operands."""

    def __init__(self, spec: dict, op, operands: dict, shape_caches: list):
        self.spec = spec
        self.id = spec["id"]
        self.scale = spec.get("scale")
        self.malformed = False
        self._op = op
        self._env = operands
        self._caches = shape_caches if op.clears_shapes else []

    def prepare(self) -> None:
        for fn in self._caches:
            fn.cache_clear()

    def call(self):
        return self._op.call(self._env, *self.spec["args"])

    def judge(self, result, exc: Optional[BaseException]) -> Outcome:
        if exc is not None:
            return Outcome(False, f"raised {type(exc).__name__}: {exc}")
        try:
            got = self._op.answer(self._env, result, *self.spec["args"])
            text = self._op.canon(result)
        except Exception as err:  # a broken result is a failed request
            return Outcome(False, f"checking raised {type(err).__name__}: {err}")
        if got != self.spec["answer"]:
            return Outcome(False, f"answer {got}, expected {self.spec['answer']}")
        if digest(text) != self.spec["digest"]:
            return Outcome(False, "result digest differs from the pool's")
        return Outcome(True)


def execute(req, tracer=None) -> tuple[float, Outcome]:
    """Run one request; return its latency in seconds and its outcome."""
    req.prepare()
    result, exc = None, None
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    try:
        result = req.call()
    except Exception as err:  # the request's own failure, judged below
        exc = err
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return latency, req.judge(result, exc)


class _Raising:
    """Stands in for the CLI module with a ``run`` that always raises."""

    @staticmethod
    def run(argv):
        raise RuntimeError("injected failure")


def selftest(cli, cli_spec: dict, lib_spec: dict, op, operands: dict
             ) -> list[str]:
    """Show that the checker fails what it must and passes what it must.

    ``cli_spec`` must be a correct ``check`` request and ``lib_spec`` a
    correct library request for ``op``.  Returns the cases the checker got
    wrong (empty when it is sound).
    """
    flipped = {"ok": not cli_spec["answer"]["ok"]}
    cases = [
        ("correct CLI request", CliRequest(cli_spec, cli, []), True),
        ("corrupted expected answer",
         CliRequest(dict(cli_spec, answer=flipped), cli, []), False),
        ("raising request", CliRequest(cli_spec, _Raising, []), False),
        ("digest mismatch",
         CliRequest(dict(cli_spec, digest="0" * 64), cli, []), False),
        ("correct library request", LibRequest(lib_spec, op, operands, []),
         True),
        ("corrupted library answer",
         LibRequest(dict(lib_spec, answer={"corrupted": True}), op,
                    operands, []), False),
        ("library digest mismatch",
         LibRequest(dict(lib_spec, digest="0" * 64), op, operands, []),
         False),
    ]
    wrong = []
    for name, req, should_pass in cases:
        _, outcome = execute(req)
        if outcome.ok != should_pass:
            wrong.append(f"{name}: judged {'pass' if outcome.ok else 'fail'}")
    return wrong
