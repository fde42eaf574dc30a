"""Command-line front end.

Every verb is a thin wrapper over library calls; complexes travel as
canonical JSON on files or stdin (``-``).  Exit codes: 0 success, 1 failed
check, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ogposet import OgPoset, ClosedSubset, InvalidStructure, bits
from .molecule import (
    is_molecule, is_atom, has_spherical_boundary, is_regular_complex,
    is_totally_loop_free,
)
from . import construct
from . import shapes
from . import topology
from .corpus import gen_corpus


def _read_complex(path: str) -> OgPoset:
    # a file is JSON, so UTF-8 whatever the locale; json.loads refuses a BOM
    if path == "-":
        return OgPoset.from_json(sys.stdin.read())
    with open(path, "rb", buffering=0) as f:
        return OgPoset.from_json(f.read().decode("utf-8"))


def _subset(p: OgPoset, selector: str | None) -> ClosedSubset:
    if not selector:
        return p.whole()
    items = []
    for token in selector.split(","):
        try:
            i = int(token)
        except ValueError:
            i = -1
        if not 0 <= i < p.size:
            print(f"usage: {token!r} is not an element index "
                  f"(0 to {p.size - 1})", file=sys.stderr)
            raise SystemExit(2)
        items.append(i)
    return p.closure(items)


def _integer(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        print(f"usage: {token!r} is not an integer", file=sys.stderr)
        raise SystemExit(2) from None


def export_dot(p: OgPoset) -> str:
    """Hasse diagram in DOT, one rank per dimension, edges labelled by sign."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for d in range(p.dim + 1):
        members = " ".join(f"e{i};" for i in p.elements_of_dim(d))
        lines.append(f"  {{ rank=same; {members} }}")
    for i in range(p.size):
        lines.append(f'  e{i} [label="{i}:{p.dims[i]}"];')
    for i in range(p.size):
        for j in sorted(bits(p.faces_minus[i])):
            lines.append(f'  e{j} -> e{i} [label="-"];')
        for j in sorted(bits(p.faces_plus[i])):
            lines.append(f'  e{j} -> e{i} [label="+"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# built once: ``json.dumps`` with any option builds an encoder per call
_COMPACT = json.JSONEncoder(separators=(",", ":")).encode
_INDENTED = json.JSONEncoder(indent=2).encode


def _emit(obj, as_json: bool) -> None:
    print((_COMPACT if as_json else _INDENTED)(obj))


def _emit_check(kind: str, ok: bool, cert, as_json: bool) -> None:
    """``_emit`` of ``{"check": kind, "ok": ok, "certificate": ...}``.

    The certificate's text comes from ``MoleculeCert.to_json``, which
    walks each shared node once, where a tree of dicts would be walked at
    every place a node is written.
    """
    if as_json:
        head = f'{{"check":"{kind}","ok":{json.dumps(ok)},"certificate":'
        body = "null" if cert is None else cert.to_json()
        print(f"{head}{body}}}")
    else:
        head = f'{{\n  "check": "{kind}",\n  "ok": {json.dumps(ok)},\n'
        body = "null" if cert is None else cert.to_json(2, 1)
        print(f'{head}  "certificate": {body}\n}}')


# the most elements ``shape`` and ``map`` build.  Memory grows with the
# square of the size (every element's downward closure is a mask over all of
# them): the largest shapes under it, simplex 13 (16,383 elements) and cube
# 9 (19,683), take ~140 and ~205 MB and ~1.5 s, and simplex 14 ~0.5 GB
_SHAPE_LIMIT = 20_000


def _simplex_size(n: int) -> int:
    return 2 ** (min(n, 64) + 1) - 1


# family -> (parameter count, builder, the least number of elements it
# builds in closed form): the element count of a globe, simplex, cube,
# compositor phi or C, and for E and Etilde the n-simplex that
# ``extr(0, n)`` pastes onto and that ``extr(k, n)`` and ``extrtil(k, n)``
# recurse down to.  Invalid parameters count 0, so that the builder
# reports them.  Exponents are capped at 64, already far over the limit,
# so that a huge parameter takes no huge power
_SHAPES = {
    "globe": (1, shapes.globe, lambda n: 2 * n + 1),
    "simplex": (1, shapes.simplex, _simplex_size),
    "cube": (1, shapes.cube, lambda n: 3 ** min(n, 64)),
    "phi": (1, lambda m: shapes.phi(m).whole,
            lambda m: 2 * m + 3 if m >= 2 else 0),
    "C": (2, lambda n, k: shapes.compositor_c(n, k).whole,
          lambda n, k: (2 * n + 3 + 4 * (n - k) * (n - k - 1)
                        if 0 <= k < n else 0)),
    "E": (2, lambda k, n: shapes.extr(k, n).whole,
          lambda k, n: _simplex_size(n)),
    "Etilde": (2, lambda k, n: shapes.extrtil(k, n).whole,
               lambda k, n: _simplex_size(n)),
}


def _arity_error(what: str, counts: tuple[int, ...], params: list) -> int:
    print(f"usage: {what} takes {' or '.join(map(str, counts))} "
          f"parameter{'s' * (counts != (1,))}, got {len(params)}",
          file=sys.stderr)
    return 2


def _size_error(what: str, params: list) -> int:
    print(f"usage: {what} {' '.join(map(str, params))} builds more than "
          f"{_SHAPE_LIMIT} elements", file=sys.stderr)
    return 2


def _cmd_shape(args) -> int:
    count, build, size = _SHAPES[args.family]
    if len(args.params) != count:
        return _arity_error(f"shape {args.family}", (count,), args.params)
    if size(*args.params) > _SHAPE_LIMIT:
        return _size_error(f"shape {args.family}", args.params)
    print(build(*args.params).to_json())
    return 0


# name -> builder of the map from the n-simplex, which each of them builds;
# gamma builds an assignment, not a PosetMap
_MAPS = {"a": shapes.folding_a, "c": shapes.folding_c,
         "gamma": shapes.last_vertex, "sprec": shapes.sprec}


def _cmd_map(args) -> int:
    if len(args.params) != 1:
        return _arity_error(f"map {args.name}", (1,), args.params)
    if _simplex_size(args.params[0]) > _SHAPE_LIMIT:
        return _size_error(f"map {args.name}", args.params)
    m = _MAPS[args.name](args.params[0])
    if args.name == "gamma":
        _emit({"assignment": list(m)}, args.json)
    else:
        _emit({"source": m.source.to_json_obj(),
               "target": m.target.to_json_obj(),
               "assignment": list(m.assignment)}, args.json)
    return 0


def _cmd_check(args) -> int:
    try:
        p = _read_complex(args.file)
    except InvalidStructure as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    sub = _subset(p, args.subset)
    kind = args.predicate
    cert = None
    if kind == "molecule":
        cert = is_molecule(sub)
        ok = cert is not None
    elif kind == "atom":
        ok = is_atom(sub)
    elif kind == "spherical":
        cert = is_molecule(sub)
        ok = cert is not None and has_spherical_boundary(cert)
    elif kind == "regular":
        ok = is_regular_complex(sub)
    else:  # loopfree, the last of the choices
        ok = is_totally_loop_free(sub.extract()[0])
    _emit_check(kind, ok, cert, args.json)
    return 0 if ok else 1


def _op_subst(u: str, v: str, w: str):
    p = _read_complex(u)
    return construct.substitute(p, _subset(p, v), _read_complex(w))


# verb -> (operand counts, constructor call, emitted map -> attribute of the
# result); the call returns the complex or a result holding it as ``whole``
_OPS = {
    "paste": ((3,), lambda u, v, k: construct.paste(
        _read_complex(u), _read_complex(v), _integer(k)),
        {"left": "left_incl", "right": "right_incl"}),
    "gray": ((2,), lambda u, v: construct.gray(
        _read_complex(u), _read_complex(v)), {}),
    "join": ((2,), lambda u, v: construct.join(
        _read_complex(u), _read_complex(v)), {}),
    "suspend": ((1,), lambda u: construct.suspend(_read_complex(u)), {}),
    "dual": ((1, 2), lambda u, dims=None: construct.dual(
        _read_complex(u),
        [] if dims is None else [_integer(s) for s in dims.split(",")]), {}),
    "inflate": ((1,), lambda u: construct.inflate(_read_complex(u)),
                {"tau": "tau", "iota_minus": "iota_minus",
                 "iota_plus": "iota_plus"}),
    "celto": ((2,), lambda u, v: construct.celto(
        _read_complex(u), _read_complex(v)),
        {"minus": "minus_incl", "plus": "plus_incl"}),
    "compos": ((1,), lambda u: construct.compos(_read_complex(u)), {}),
    "subst": ((3,), _op_subst, {"w": "w_incl"}),
}


def _cmd_op(args) -> int:
    counts, build, maps = _OPS[args.operation]
    if len(args.args) not in counts:
        return _arity_error(f"op {args.operation}", counts, args.args)
    res = build(*args.args)
    print((res if isinstance(res, OgPoset) else res.whole).to_json())
    if args.emit_maps and maps:
        _emit({k: list(getattr(res, attr).assignment)
               for k, attr in maps.items()}, True)
    return 0


def _cmd_topo(args) -> int:
    p = _read_complex(args.file)
    sub = _subset(p, args.subset)
    if args.boundary:
        sub = sub.boundary()
    verb = args.verb
    if verb == "nerve":
        k = topology.nerve(sub)
        _emit({"counts": k.counts(),
               "simplices": [[list(c) for c in lv] for lv in k.simplices]},
              args.json)
        return 0
    if verb == "homology":
        h = topology.homology(sub)
        _emit({"H": [{"betti": b, "torsion": t} for b, t in h]}, args.json)
        return 0
    if verb == "euler":
        _emit({"euler": topology.euler(sub)}, args.json)
        return 0
    rep = topology.face_poset_roundtrip(p)  # cwcheck, the last choice
    _emit(rep.to_json_obj(), args.json)
    return 0 if rep.ok else 1


def _cmd_corpus(args) -> int:
    corp = gen_corpus(args.seed, args.max_dim, args.max_size)
    if args.emit:
        if args.emit not in corp:
            print(f"no corpus member named {args.emit}", file=sys.stderr)
            return 2
        print(corp[args.emit].to_json())
        return 0
    for name, p in corp.items():
        print(f"{name}\t{p.size}\t{p.dim}")
    return 0


def _cmd_dot(args) -> int:
    sys.stdout.write(export_dot(_read_complex(args.file)))
    return 0


# the grammar: command -> (handler, ``add_parser`` keywords, arguments as
# ``add_argument`` (name, keywords) pairs: positionals, then switches and
# one-value options).  ``build_parser`` and ``_plain_parse`` read it
_COMMANDS = {
    "shape": (_cmd_shape, {"help": "emit a named shape"}, (
        ("family", {"choices": list(_SHAPES)}),
        ("params", {"nargs": "*", "type": int}))),
    "map": (_cmd_map, {"help": "emit a named map"}, (
        ("name", {"choices": list(_MAPS)}),
        ("params", {"nargs": "*", "type": int}))),
    "check": (_cmd_check, {"help": "run a predicate on a complex"}, (
        ("predicate", {"choices": ["molecule", "atom", "spherical",
                                   "regular", "loopfree"]}),
        ("file", {}),
        ("--subset", {"help": "comma-separated generating elements"}))),
    "op": (_cmd_op, {"help": "apply a constructor"}, (
        ("operation", {"choices": list(_OPS)}),
        ("args", {"nargs": "*"}),
        ("--emit-maps", {"action": "store_true"}))),
    "topo": (_cmd_topo, {
        "help": "nerve / homology backend",
        "description": "nerve, homology and euler act on the selected "
                       "subset (--subset, --boundary); cwcheck always "
                       "reports on every atom of the whole complex"}, (
        ("verb", {"choices": ["nerve", "homology", "euler", "cwcheck"]}),
        ("file", {}),
        ("--subset", {"help": "comma-separated generating elements "
                              "(ignored by cwcheck)"}),
        ("--boundary", {"action": "store_true",
                        "help": "take the boundary of the subset (ignored "
                                "by cwcheck)"}))),
    "corpus": (_cmd_corpus, {"help": "list or emit corpus members"}, (
        ("--seed", {"type": int, "default": 0}),
        ("--max-dim", {"type": int, "default": 4}),
        ("--max-size", {"type": int, "default": 200}),
        ("--emit", {"help": "name of the member to print"}))),
    "dot": (_cmd_dot, {"help": "Hasse diagram in DOT format"}, (
        ("file", {}),)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dircomplex",
        description="regular directed complexes: checks, operations, shapes")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (func, keywords, arguments) in _COMMANDS.items():
        sp = sub.add_parser(command, **keywords)
        for name, kw in arguments:
            sp.add_argument(name, **kw)
        sp.set_defaults(func=func)
    return ap


def _plain_value(token: str, kw: dict):
    """token as ``add_argument(..., **kw)`` stores it, or None where the
    plain parse declines: a token starting with - (but the file -), a
    failing type or a word outside the choices."""
    if token[:1] == "-" and token != "-":
        return None
    try:
        value = kw.get("type", str)(token)
    except ValueError:
        return None
    return value if value in kw.get("choices", (value,)) else None


def _plain_parse(argv: list) -> argparse.Namespace | None:
    """``_PARSER.parse_args(argv)`` read from ``_COMMANDS`` for argv in the
    plain form: an optional leading ``--json``, the command, its positionals
    in order, then exact option strings, each value option followed by its
    value.  None for anything else (abbreviations, ``--opt=value``, ``-h``,
    ``--``, misplaced or missing tokens), which argparse then parses."""
    as_json = argv[:1] == ["--json"]
    command, *rest = argv[as_json:] or [None]
    if command not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[command]
    ns = {"json": as_json, "command": command, "func": func}
    i, n = 0, len(rest)
    for name, kw in arguments:
        if name[0] == "-":
            ns[name[2:].replace("-", "_")] = kw.get(
                "default", False if "action" in kw else None)
            continue
        many, values = kw.get("nargs") == "*", []
        while i < n and (many or not values):
            value = _plain_value(rest[i], kw)
            if value is None:
                break
            values.append(value)
            i += 1
        if not (many or values):
            return None
        ns[name] = values if many else values[0]
    options = dict(arguments)
    while i < n and rest[i][:2] == "--" and rest[i] in options:
        kw, dest = options[rest[i]], rest[i][2:].replace("-", "_")
        if "action" in kw:  # store_true
            ns[dest], i = True, i + 1
            continue
        ns[dest] = value = _plain_value(rest[i + 1], kw) if i + 1 < n else None
        if value is None:
            return None
        i += 2
    return argparse.Namespace(**ns) if i == n else None


# built once: building takes far longer than parsing one request
_PARSER = build_parser()


def run(argv) -> int:
    """One CLI invocation in this process; returns the exit code.

    A closed stdout pipe raises ``BrokenPipeError``; ``main`` handles it.
    """
    args = _plain_parse(argv)
    if args is None:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        raise
    except (InvalidStructure, ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early, which is no error; stdout goes to
        # devnull so that the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
