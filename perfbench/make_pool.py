"""Regenerate the benchmark's input pool and its known answers.

    python3 perfbench/make_pool.py      # from the repository root

Builds every pool member with the library, writes each as canonical JSON to
``perfbench/pool/<name>.json``, and writes ``perfbench/pool/manifest.json``:
per member its size metadata, per request its CLI argv or library call, its
weight in the workload's round, its expected answer with where that answer
comes from (a theorem, or how the member was built), and the sha256 digest
of its output.  The script writes no manifest when the library contradicts
any expected answer.  The benchmark only reads the committed files, so a later change
to the corpus or to a constructor cannot change what is measured; rerunning
this script is a change to the benchmark.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import dircomplex as dc  # noqa: E402
from dircomplex import cli, shapes  # noqa: E402
from dircomplex.ogposet import bits  # noqa: E402

import algebra  # noqa: E402
import stream  # noqa: E402

POOL = HERE / "pool"

T_REGULAR = ("theorem: globes, simplices, cubes, the compositor and "
             "inflation-tower shapes, and pastings, Gray products, joins, "
             "suspensions and duals of regular molecules are regular molecules")
T_ATOM_ROUND = "theorem: an atom of a regular directed complex has spherical boundary"
T_BOUNDARY = ("theorem: the input and output boundaries of a regular atom are "
              "molecules with spherical boundary")
T_SPHERE = ("theorem: the whole boundary of an atom of dimension >= 1 realizes "
            "a sphere, and a molecule realizes a ball, so it is no molecule")
T_LOOPFREE = "theorem: globes, simplices and cubes are totally loop-free"
T_BALL = ("theorem: the nerve of an atom's closure is a cone, so its homology "
          "and Euler characteristic are those of a point")
T_CW = ("theorem: a regular directed complex is the face poset of a regular CW "
        "complex, so an n-atom's boundary nerve is an (n-1)-sphere")
C_NOT_ATOM = "construction: a pasting of atoms has more than one maximal element"
C_DISJOINT = ("construction: two disjoint edges are disconnected; a molecule is "
              "connected, its atoms are arrows, and its nerve has two components")
C_PARALLEL = ("construction: the 2-cell's input boundary is two parallel arrows, "
              "which paste to no molecule; its boundary nerve is a theta graph")
C_LOOP = "construction: two arrows that form a cycle are a directed loop"
C_MALFORMED = "construction: the record breaks the input format"
T_OMEGA = ("theorem: pasting of molecules satisfies the partial omega-category "
           "unit and associativity laws")


def _edges(*pairs):
    return [{"dim": 1, "minus": [a], "plus": [b]} for a, b in pairs]


def _points(n):
    return [{"dim": 0, "minus": [], "plus": []} for _ in range(n)]


NEGATIVES = {
    "two-disjoint-edges": _points(4) + _edges((0, 1), (2, 3)),
    "parallel-input-2cell": _points(2) + _edges((0, 1), (0, 1), (0, 1))
    + [{"dim": 2, "minus": [2, 3], "plus": [4]}],
    "two-edge-loop": _points(2) + _edges((0, 1), (1, 0)),
}

# records that break the input format; the manifest notes how the CLI
# reacted to each when the pool was made
MALFORMED = {
    "malformed-minus-missing": [{"dim": 0, "plus": []}],
    "malformed-string-dim": _points(2) + [{"dim": "1", "minus": [0], "plus": [1]}],
    "malformed-bare-integer": [0, 1],
    "malformed-face-out-of-range": _points(2) + _edges((0, 7)),
    "malformed-sign-clash": _points(2) + [{"dim": 1, "minus": [0], "plus": [0]}],
}


def build_members() -> dict:
    g, s, c = shapes.globe, shapes.simplex, shapes.cube
    m = {}
    for n in range(7):
        m[f"globe{n}"] = g(n)
    for n in range(8):
        m[f"simplex{n}"] = s(n)
    for n in range(6):
        m[f"cube{n}"] = c(n)
    for k in range(2, 6):
        m[f"phi{k}"] = shapes.phi(k).whole
    m["C3-0"] = shapes.compositor_c(3, 0).whole
    m["C4-1"] = shapes.compositor_c(4, 1).whole
    m["E1-2"] = shapes.extr(1, 2).whole
    m["E0-3"] = shapes.extr(0, 3).whole
    m["Etilde0-3"] = shapes.extrtil(0, 3).whole
    m["Etilde1-2"] = shapes.extrtil(1, 2).whole
    m["vert2"] = dc.paste(g(2), g(2), 1).whole
    m["horiz2"] = dc.paste(g(2), g(2), 0).whole
    m["gray-globe1-globe2"] = dc.gray(g(1), g(2))
    m["gray-simplex2-globe1"] = dc.gray(s(2), g(1))
    m["gray-globe2-globe2"] = dc.gray(g(2), g(2))
    m["gray-simplex2-globe2"] = dc.gray(s(2), g(2))
    m["join-globe1-globe1"] = dc.join(g(1), g(1))
    m["join-globe2-globe1"] = dc.join(g(2), g(1))
    m["join-simplex2-globe1"] = dc.join(s(2), g(1))
    m["suspend-simplex3"] = dc.suspend(s(3))
    m["suspend-cube3"] = dc.suspend(c(3))
    m["dual-simplex4"] = dc.dual(s(4), [1, 3])
    m["inflate-simplex3"] = dc.inflate(s(3)).whole
    m["compos-vert2"] = dc.compos(m["vert2"])
    # operands of paste_along / substitute, as in acceptance criterion 4
    v = _first_output_atom(m["phi3"])
    src, _ = v.extract()
    m["phi3-unit-cell"] = dc.celto(src, src).whole
    m["vert2-top-copy"], _ = dc.ClosedSubset(
        m["vert2"], m["vert2"].down[_top_elements(m["vert2"])[0]]).extract()
    m.update(_seeded_pastings())
    for name, records in NEGATIVES.items():
        m[name] = dc.OgPoset.from_records(records)
    return m


def _first_output_atom(p):
    tops = p.whole().boundary(+1).maximal()
    return dc.ClosedSubset(p, p.down[tops[0]])


def _top_elements(p):
    return list(p.whole().elements_of_dim(p.dim))


def _seeded_pastings(count=6, seed=0) -> dict:
    """Pastings of small atoms along matching boundaries, drawn with a fixed
    seed; each is a regular molecule by ``T_REGULAR``."""
    atoms = [("globe1", shapes.globe(1)), ("globe2", shapes.globe(2)),
             ("globe3", shapes.globe(3)), ("simplex2", shapes.simplex(2)),
             ("simplex3", shapes.simplex(3)), ("cube2", shapes.cube(2)),
             ("cube3", shapes.cube(3)), ("phi3", shapes.phi(3).whole)]
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        (na, a), (nb, b) = rng.choice(atoms), rng.choice(atoms)
        k = rng.randrange(min(a.dim, b.dim))
        name = f"paste-{na}-{nb}-{k}"
        if name in out:
            continue
        try:
            out[name] = dc.paste(a, b, k).whole
        except (dc.BoundaryMismatch, ValueError):
            continue
    return out


def nerve_count(p, mask: int) -> int:
    """Number of simplices (nonempty chains) in the nerve of a closed subset."""
    chains = {}
    for e in bits(mask):
        chains[e] = 1 + sum(chains[f] for f in bits(p.down[e] & mask & ~(1 << e)))
    return sum(chains.values())


def metadata(p) -> dict:
    w = p.whole()
    meta = {"elements": p.size, "dim": p.dim, "maximal": len(w.maximal()),
            "nerve": nerve_count(p, w.mask)}
    if dc.is_atom(w) and p.dim >= 1:
        meta["boundary_nerve"] = nerve_count(p, w.boundary().mask)
    return meta


def _cli(workload, rid, argv, member, answer, source, **extra):
    code = (0 if answer.get("ok", True) else 1) if "rejected" not in answer else None
    return dict(workload=workload, id=rid, argv=argv, file=f"{member}.json",
                weight=1, exit=code, answer=answer, source=source, **extra)


def check(pred, member, ok, source, subset=None, label=None, scale=None):
    argv = ["--json", "check", pred, "{file}"]
    if subset is not None:
        argv += ["--subset", ",".join(map(str, subset))]
    rid = f"check-{pred}:{label or member}"
    return _cli("recognize", rid, argv, member, {"ok": ok}, source,
                **({"scale": scale} if scale else {}))


def sphere(n):
    if n == 0:
        return [[2, []]]
    return [[1, []]] + [[0, []]] * (n - 1) + [[1, []]]


def topo(verb, member, meta, boundary=False):
    argv = ["--json", "topo", verb, "{file}"] + (["--boundary"] if boundary else [])
    n = meta["dim"]
    if verb == "homology":
        answer = {"H": sphere(n - 1) if boundary else [[1, []]]}
    elif verb == "euler":
        answer = {"euler": 1 + (-1) ** (n - 1) if boundary else 1}
    else:
        answer = {"ok": True, "failures": [], "checked": meta["elements"]}
    extra = {}
    if verb == "homology" and boundary:
        extra["scale"] = ["topo homology --boundary: nerve size",
                          meta["boundary_nerve"]]
    rid = f"topo-{verb}{'-boundary' if boundary else ''}:{member}"
    return _cli("realize", rid, argv, member, answer,
                T_CW if boundary or verb == "cwcheck" else T_BALL, **extra)


def recognize_requests(m, meta) -> list:
    reqs = []
    for n in range(2, 8):
        reqs.append(check("regular", f"simplex{n}", True, T_REGULAR,
                          scale=["check regular: simplex(n)", n]))
    for n in range(2, 6):
        reqs.append(check("regular", f"cube{n}", True, T_REGULAR,
                          scale=["check regular: cube(n)", n]))
    for name in ["globe2", "globe4", "phi3", "phi4", "C3-0", "C4-1", "E1-2",
                 "E0-3", "Etilde0-3", "Etilde1-2", "vert2", "gray-globe1-globe2",
                 "gray-simplex2-globe1", "join-globe2-globe1",
                 "suspend-simplex3", "dual-simplex4", "paste-cube3-cube3-0",
                 "paste-globe3-globe2-1"]:
        reqs.append(check("regular", name, True, T_REGULAR))
    for name in ["globe3", "simplex4", "cube3", "phi4", "horiz2",
                 "gray-simplex2-globe2", "join-simplex2-globe1",
                 "suspend-cube3", "inflate-simplex3"] + \
            [n for n in m if n.startswith("paste-")]:
        reqs.append(check("molecule", name, True, T_REGULAR))
    for name in ["globe3", "simplex5", "cube4", "phi5", "compos-vert2"]:
        reqs.append(check("spherical", name, True, T_ATOM_ROUND))
    for name in ["simplex3", "cube3", "globe4"]:
        reqs.append(check("atom", name, True, T_REGULAR))
    for name in ["vert2", "paste-cube3-cube3-0"]:
        reqs.append(check("atom", name, False, C_NOT_ATOM))
    for name in ["globe3", "simplex5", "cube4"]:
        reqs.append(check("loopfree", name, True, T_LOOPFREE))
    # boundary closures: the input/output halves are molecules, the whole
    # boundary sphere is not
    for name, preds in [("simplex5", ["spherical"]), ("simplex6", ["molecule", "spherical"]),
                        ("simplex7", ["molecule"]), ("cube4", ["spherical"]),
                        ("cube5", ["molecule"])]:
        p = m[name]
        for sign, tag in ((-1, "input"), (+1, "output")):
            tops = p.whole().boundary(sign).maximal()
            for pred in preds:
                reqs.append(check(pred, name, True, T_BOUNDARY, subset=tops,
                                  label=f"{name}-{tag}-boundary"))
        facets = sorted(p.whole().boundary().maximal())
        reqs.append(check("molecule", name, False, T_SPHERE, subset=facets,
                          label=f"{name}-boundary-sphere"))
    reqs.append(check("molecule", "two-disjoint-edges", False, C_DISJOINT))
    reqs.append(check("regular", "parallel-input-2cell", False, C_PARALLEL))
    reqs.append(check("loopfree", "two-edge-loop", False, C_LOOP))
    reqs.append(check("molecule", "two-edge-loop", False, C_LOOP))
    for name in MALFORMED:
        reqs.append(_cli("recognize", f"check-molecule:{name}",
                         ["--json", "check", "molecule", "{file}"], name,
                         {"rejected": True}, C_MALFORMED))
    return reqs


# the largest boundary nerves (364 to 728 simplices): 0.1 to 0.5 s each at
# the pool's commit, most of the realize round
REALIZE_HEAVY = ["globe6", "gray-simplex2-globe2", "join-simplex2-globe1",
                 "simplex4", "suspend-cube3", "gray-globe2-globe2"]
REALIZE_ATOMS = ["globe1", "globe2", "globe3", "globe4", "globe5", "simplex1",
                 "simplex2", "simplex3", "cube1", "cube2", "cube3", "phi2",
                 "phi3", "phi4", "phi5", "inflate-simplex3", "compos-vert2",
                 "join-globe1-globe1", "join-globe2-globe1",
                 "gray-simplex2-globe1", "suspend-simplex3"]


def realize_requests(m, meta) -> list:
    reqs = []
    for name in REALIZE_ATOMS + REALIZE_HEAVY:
        reqs.append(topo("homology", name, meta[name], boundary=True))
    for name in REALIZE_ATOMS + ["cube4"]:
        reqs.append(topo("homology", name, meta[name]))
    for name in ["globe3", "simplex3", "cube3", "phi4", "cube4"]:
        reqs.append(topo("euler", name, meta[name]))
    for name in ["globe2", "simplex3", "phi3", "join-globe1-globe1"]:
        reqs.append(topo("euler", name, meta[name], boundary=True))
    for name in ["globe2", "globe4", "simplex2", "simplex3", "cube2", "cube3",
                 "phi3", "inflate-simplex3", "simplex4", "suspend-cube3"]:
        reqs.append(topo("cwcheck", name, meta[name]))
    reqs.append(_cli("realize", "topo-homology:two-disjoint-edges",
                     ["--json", "topo", "homology", "{file}"], "two-disjoint-edges",
                     {"H": [[2, []]]}, C_DISJOINT))
    reqs.append(_cli("realize", "topo-homology-boundary:parallel-input-2cell",
                     ["--json", "topo", "homology", "{file}", "--boundary"],
                     "parallel-input-2cell", {"H": [[1, []], [2, []]]}, C_PARALLEL))
    reqs.append(_cli("realize", "topo-cwcheck:parallel-input-2cell",
                     ["--json", "topo", "cwcheck", "{file}"], "parallel-input-2cell",
                     {"ok": False, "failures": [5], "checked": 6}, C_PARALLEL))
    return reqs


# constructor calls take about a millisecond each; weighting them 3 gives
# construction about a third of the algebra round next to enumerate_maps
CONSTRUCTORS = {"paste", "paste_along", "substitute", "celto", "compos",
                "inflate", "gray", "join", "suspend", "dual", "unitor_shape"}


def _lib(rid, op, args, answer, source, **extra):
    weight = 3 if op in CONSTRUCTORS else 1
    return dict(workload="algebra", id=rid, op=op, args=args, weight=weight,
                answer=answer, source=source, **extra)


def algebra_requests(m) -> list:
    size = {name: p.size for name, p in m.items()}
    reqs = []
    for a, b, k in [("globe2", "globe2", 1), ("globe2", "globe2", 0),
                    ("simplex3", "cube3", 0), ("phi3", "globe2", 1),
                    ("cube3", "cube3", 1), ("simplex3", "cube3", 1),
                    ("globe3", "phi3", 2)]:
        bd = m[a].whole().boundary(+1, k)
        reqs.append(_lib(f"paste:{a}-{b}-{k}", "paste", [a, b, k],
                         {"size": size[a] + size[b] - len(bd), "molecule": True},
                         "construction: pushout along the k-boundary; " + T_REGULAR))
    v = _first_output_atom(m["phi3"])
    reqs.append(_lib("paste_along:phi3-unit-cell", "paste_along",
                     ["phi3-unit-cell", "phi3", sorted(v.maximal()), +1],
                     {"size": size["phi3-unit-cell"] + size["phi3"] - len(v),
                      "molecule": True},
                     "construction: pushout along a boundary submolecule; "
                     + T_REGULAR))
    top = _top_elements(m["vert2"])[0]
    reqs.append(_lib("substitute:vert2-top", "substitute",
                     ["vert2", [top], "vert2-top-copy"],
                     {"isomorphic_to_input": True, "molecule": True},
                     "construction: a submolecule replaced by a copy of itself"))
    for u in ["simplex2", "simplex3", "cube2", "phi3", "cube3", "simplex4"]:
        bd = m[u].whole().boundary()
        reqs.append(_lib(f"celto:{u}", "celto", [u, u],
                         {"size": 2 * size[u] - len(bd) + 1, "atom": True},
                         "construction: glue along the boundary, add a top cell"))
    for u in ["vert2", "gray-globe1-globe2", "phi4"]:
        bd = m[u].whole().boundary()
        reqs.append(_lib(f"compos:{u}", "compos", [u],
                         {"size": len(bd) + 1, "atom": True},
                         "construction: one cell with the molecule's boundary"))
    for u in ["simplex3", "cube2", "phi3", "cube3", "cube4", "simplex4"]:
        reqs.append(_lib(f"inflate:{u}", "inflate", [u],
                         {"retracts": True, "molecule": True},
                         "theorem: the inflation retracts onto both boundary copies; "
                         + T_REGULAR))
    for a, b in [("simplex2", "globe1"), ("globe2", "globe2"), ("cube2", "globe1"),
                 ("simplex3", "globe1"), ("phi3", "simplex2"), ("cube3", "globe2"),
                 ("simplex3", "simplex2")]:
        reqs.append(_lib(f"gray:{a}-{b}", "gray", [a, b],
                         {"size": size[a] * size[b], "molecule": True},
                         "theorem: |p x q| = |p||q|; " + T_REGULAR))
    for a, b in [("simplex2", "globe1"), ("globe1", "globe1"), ("globe2", "globe1"),
                 ("simplex2", "simplex2"), ("simplex3", "simplex2")]:
        reqs.append(_lib(f"join:{a}-{b}", "join", [a, b],
                         {"size": (size[a] + 1) * (size[b] + 1) - 1, "molecule": True},
                         "theorem: |p * q| = (|p|+1)(|q|+1)-1; " + T_REGULAR))
    for a in ["simplex3", "phi3", "cube3"]:
        reqs.append(_lib(f"suspend:{a}", "suspend", [a],
                         {"size": size[a] + 2, "molecule": True},
                         "construction: two poles below a shifted copy; " + T_REGULAR))
    for a, dims in [("simplex3", [1, 3]), ("cube3", [2]), ("phi4", [1, 2, 3, 4])]:
        reqs.append(_lib(f"dual:{a}-{''.join(map(str, dims))}", "dual", [a, dims],
                         {"size": size[a], "involution": True},
                         "construction: dualizing twice restores every orientation"))
    for u, side in [("phi3", "left"), ("simplex3", "left"), ("globe3", "right")]:
        p = m[u]
        bd = p.whole().boundary(-1 if side == "left" else +1)
        x = next(iter(bd.elements_of_dim(p.dim - 1)))
        sign = +1 if side == "left" else -1
        reqs.append(_lib(f"unitor_shape:{u}-{side}", "unitor_shape",
                         [u, [x], side, sign],
                         {"molecule": True, "retraction_is_map": True},
                         "theorem: a unit cylinder is a molecule retracting onto its base"))
    for a, b in [("simplex2", "globe1"), ("globe2", "globe2"), ("cube2", "globe1"),
                 ("phi3", "globe1"), ("cube3", "globe1")]:
        cases = 2 * (m[a].dim + m[b].dim + 1)
        reqs.append(_lib(f"gray_boundary_check:{a}-{b}", "gray_boundary_check",
                         [a, b], {"holds": True, "cases": cases},
                         "theorem: boundary formula for Gray products of molecules"))
    for a, b in [("simplex2", "globe1"), ("globe2", "globe1"), ("simplex1", "simplex1"),
                 ("cube2", "globe0"), ("simplex3", "globe1")]:
        cases = 2 * (m[a].dim + m[b].dim + 2)
        reqs.append(_lib(f"join_boundary_check:{a}-{b}", "join_boundary_check",
                         [a, b], {"holds": True, "cases": cases},
                         "theorem: boundary formula for joins of molecules"))
    for n in range(4):
        for k in range(4):
            if (n, k) == (3, 3):
                continue
            reqs.append(_lib(f"enumerate_maps:simplex{n}-simplex{k}", "enumerate_maps",
                             [f"simplex{n}", f"simplex{k}"],
                             {"count": math.comb(n + k + 1, n + 1), "valid": True},
                             "theorem: maps of simplices are monotone maps of "
                             "vertex sets, C(n+m+1, n+1) of them",
                             scale=["enumerate_maps: simplex(n) -> simplex(m)",
                                    f"{n}->{k}"]))
    for a in ["simplex3", "cube2", "vert2", "phi3", "gray-simplex2-globe1", "E1-2",
              "cube3", "paste-globe1-phi3-0"]:
        reqs.append(_lib(f"laws:{a}", "laws", [a], {"laws": True}, T_OMEGA))
    for a in ["simplex6", "cube5", "gray-simplex2-globe2", "E0-3", "C4-1"]:
        reqs.append(_lib(f"find_isomorphism:{a}", "find_isomorphism", [a, a],
                         {"identity": True},
                         "theorem: molecules have no nontrivial automorphisms"))
    T_RETRACT = "theorem: the shape retracts onto the named sub-shape"
    for k, n in [(0, 2), (1, 2), (0, 3), (1, 3)]:
        reqs.append(_lib(f"extr:{k}-{n}", "extr", [k, n], {"retracts": True}, T_RETRACT))
    for k, n in [(0, 3), (1, 2), (0, 4)]:
        reqs.append(_lib(f"extrtil:{k}-{n}", "extrtil", [k, n], {"retracts": True},
                         T_RETRACT))
    for n, k in [(3, 0), (4, 0), (4, 1)]:
        reqs.append(_lib(f"compositor_c:{n}-{k}", "compositor_c", [n, k],
                         {"retracts": True}, T_RETRACT))
    for mm in [3, 4, 5]:
        reqs.append(_lib(f"folding_c:{mm}", "folding_c", [mm],
                         {"folding_squares": True},
                         "theorem: the compositor folding restricts to globe "
                         "foldings on the faces d0, d1, d2"))
    for n in [3, 4, 5]:
        reqs.append(_lib(f"sprec:{n}", "sprec", [n], {"folds_to_globe": True},
                         "theorem: sprec followed by the inflated folding is the "
                         "globe folding"))
    return reqs


def run_cli_request(spec):
    t0 = time.perf_counter()
    try:
        code, out = stream.CliRequest(spec, cli, []).call()
    except Exception as exc:  # malformed records escape at this commit
        return time.perf_counter() - t0, type(exc).__name__, None
    return time.perf_counter() - t0, code, out


def main() -> None:
    POOL.mkdir(exist_ok=True)
    members = build_members()
    meta = {name: metadata(p) for name, p in members.items()}
    for name, p in members.items():
        (POOL / f"{name}.json").write_text(p.to_json() + "\n")
    for name, records in MALFORMED.items():
        text = json.dumps({"elements": records}, separators=(",", ":"))
        (POOL / f"{name}.json").write_text(text + "\n")

    requests = recognize_requests(members, meta) + realize_requests(members, meta)
    problems = []
    cost: dict[str, float] = {}
    for spec in requests:
        dt, code, out = run_cli_request(spec)
        cost[spec["workload"]] = cost.get(spec["workload"], 0) + dt * spec["weight"]
        print(f"{dt * 1000:9.1f} ms  {spec['id']}", flush=True)
        if "rejected" in spec["answer"]:
            spec["seen_at_pool_commit"] = code if isinstance(code, str) else f"exit {code}"
            continue
        if not isinstance(code, int):
            problems.append(f"{spec['id']}: raised {code}")
            continue
        reason = stream.check_cli_answer(spec, code, out)
        if reason:
            problems.append(f"{spec['id']}: {reason}")
        spec["digest"] = stream.digest(out)

    operands = {name: dc.OgPoset.from_json(p.to_json()) for name, p in members.items()}
    lib = algebra_requests(members)
    for spec in lib:
        op = algebra.OPS[spec["op"]]
        if op.clears_shapes:
            for fn in vars(shapes).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
        t0 = time.perf_counter()
        result = op.call(operands, *spec["args"])
        dt = time.perf_counter() - t0
        cost["algebra"] = cost.get("algebra", 0) + dt * spec["weight"]
        print(f"{dt * 1000:9.1f} ms  {spec['id']}", flush=True)
        got = op.answer(operands, result, *spec["args"])
        if got != spec["answer"]:
            problems.append(f"{spec['id']}: {got} != {spec['answer']}")
        spec["digest"] = stream.digest(op.canon(result))
    if problems:
        sys.exit("the library contradicts the pool's answers:\n  "
                 + "\n  ".join(problems))

    for w, total in cost.items():
        n = sum(s["weight"] for s in requests + lib if s["workload"] == w)
        print(f"{w}: {n} requests per round, {total:.2f} s at pool time")
    manifest = {"members": meta,
                "operands": sorted({a for s in lib for a in s["args"]
                                    if isinstance(a, str) and a in members}),
                "requests": requests + lib}
    (POOL / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
