"""Library calls of the ``algebra`` workload and the answers they must give.

Every operation is one request: ``call`` does the timed work on operands
that were loaded once at set-up and are shared by all requests, ``answer``
derives the checked answer from the result (untimed; it may call the library
again), and ``canon`` renders the result as canonical JSON for the digest.
Arguments come from the pool manifest: strings name pool operands, other
values are passed as they are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import dircomplex as dc
from dircomplex import shapes


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _poset(p) -> str:
    return p.to_json()


def _map(m) -> str:
    return _compact({"source": m.source.to_json_obj(),
                     "target": m.target.to_json_obj(),
                     "assignment": list(m.assignment)})


def _identity(m) -> bool:
    return m.assignment == tuple(range(m.source.size))


def _verified(p) -> bool:
    """``p`` is a molecule whose certificate re-checks from scratch."""
    cert = dc.is_molecule(p.whole())
    return cert is not None and cert.verify()


@dataclass(frozen=True)
class Op:
    call: Callable
    answer: Callable
    canon: Callable
    # towers are lru-cached in ``shapes``; their requests clear those caches
    # first so that they time construction, not a cache lookup
    clears_shapes: bool = False


def _paste_along(e, u1, u2, elems, sign):
    return dc.paste_along(e[u1], e[u2], e[u2].closure(elems), sign)


def _substitute(e, u, elems, w):
    return dc.substitute(e[u], e[u].closure(elems), e[w])


def _unitor(e, u, elems, side, sign):
    return dc.unitor_shape(e[u], e[u].closure(elems), side, sign)


def _boundary_checks(check, p, q, extra):
    return [check(p, q, k, sign)
            for k in range(p.dim + q.dim + extra) for sign in (-1, +1)]


def _laws(p):
    """Molecules of ``p`` and whether pasting obeys the unit and
    associativity laws on them (as acceptance criterion 11 states them)."""
    mols = dc.enumerate_molecules(p)
    ok = True
    for s in mols:
        for k in range(s.dim):
            up = dc.ClosedSubset(p, s.boundary(+1, k).mask)
            lo = dc.ClosedSubset(p, s.boundary(-1, k).mask)
            ok = ok and dc.composable(s, up, k) and dc.composable(lo, s, k)
    pairs: dict[int, list] = {}
    for a in mols:
        for b in mols:
            for k in range(min(a.dim, b.dim)):
                if dc.composable(a, b, k):
                    pairs.setdefault(k, []).append((a, b))
    for k, plist in pairs.items():
        by_left: dict[int, list] = {}
        for a, b in plist:
            by_left.setdefault(a.mask, []).append(b)
        for a, b in plist:
            for c in by_left.get(b.mask, []):
                ab = dc.ClosedSubset(p, a.mask | b.mask)
                bc = dc.ClosedSubset(p, b.mask | c.mask)
                ok = ok and dc.composable(ab, c, k) == dc.composable(a, bc, k)
    return mols, ok


def _folding_c_faces(c, m):
    n = m - 1
    ph = shapes.phi(m)
    a = shapes.folding_a(n)
    faces = [(0, ph.incl_plus2), (1, ph.incl_minus), (2, ph.incl_plus1)]
    return all(shapes.simplex_face(m, i).then(c).assignment
               == a.then(incl).assignment for i, incl in faces)


def _sprec_folds(r, n):
    rec = r.then(dc.inflate_map(shapes.folding_a(n - 1)))
    iso = dc.find_isomorphism(rec.target, shapes.globe(n))
    return iso is not None and \
        rec.then(iso).assignment == shapes.folding_a(n).assignment


OPS: dict[str, Op] = {
    "paste": Op(
        lambda e, a, b, k: dc.paste(e[a], e[b], k),
        lambda e, r, *_: {"size": r.whole.size, "molecule": _verified(r.whole)},
        lambda r: _poset(r.whole) + _map(r.left_incl) + _map(r.right_incl)),
    "paste_along": Op(
        _paste_along,
        lambda e, r, *_: {"size": r.whole.size, "molecule": _verified(r.whole)},
        lambda r: _poset(r.whole) + _map(r.left_incl) + _map(r.right_incl)),
    "substitute": Op(
        _substitute,
        lambda e, r, u, *_: {
            "isomorphic_to_input": dc.find_isomorphism(r.whole, e[u]) is not None,
            "molecule": _verified(r.whole)},
        lambda r: _poset(r.whole) + _map(r.w_incl)),
    "celto": Op(
        lambda e, u, v: dc.celto(e[u], e[v]),
        lambda e, r, *_: {"size": r.whole.size,
                          "atom": dc.is_atom(r.whole.whole())},
        lambda r: _poset(r.whole)),
    "compos": Op(
        lambda e, u: dc.compos(e[u]),
        lambda e, r, *_: {"size": r.size, "atom": dc.is_atom(r.whole())},
        _poset),
    "inflate": Op(
        lambda e, u: dc.inflate(e[u]),
        lambda e, r, *_: {
            "retracts": _identity(r.iota_minus.then(r.tau))
            and _identity(r.iota_plus.then(r.tau)),
            "molecule": _verified(r.whole)},
        lambda r: _poset(r.whole) + _map(r.tau)),
    "gray": Op(
        lambda e, a, b: dc.gray(e[a], e[b]),
        lambda e, r, *_: {"size": r.size, "molecule": _verified(r)},
        _poset),
    "join": Op(
        lambda e, a, b: dc.join(e[a], e[b]),
        lambda e, r, *_: {"size": r.size, "molecule": _verified(r)},
        _poset),
    "suspend": Op(
        lambda e, a: dc.suspend(e[a]),
        lambda e, r, *_: {"size": r.size, "molecule": _verified(r)},
        _poset),
    "dual": Op(
        lambda e, a, dims: dc.dual(e[a], dims),
        lambda e, r, a, dims: {"size": r.size,
                               "involution": dc.dual(r, dims) == e[a]},
        _poset),
    "unitor_shape": Op(
        _unitor,
        lambda e, r, *_: {"molecule": _verified(r[0]),
                          "retraction_is_map": r[1].is_valid()},
        lambda r: _poset(r[0]) + _map(r[1])),
    "gray_boundary_check": Op(
        lambda e, a, b: _boundary_checks(dc.gray_boundary_check, e[a], e[b], 1),
        lambda e, r, *_: {"holds": all(r), "cases": len(r)},
        _compact),
    "join_boundary_check": Op(
        lambda e, a, b: _boundary_checks(dc.join_boundary_check, e[a], e[b], 2),
        lambda e, r, *_: {"holds": all(r), "cases": len(r)},
        _compact),
    "enumerate_maps": Op(
        lambda e, a, b: dc.enumerate_maps(e[a], e[b]),
        lambda e, r, *_: {"count": len(r), "valid": all(f.is_valid() for f in r)},
        lambda r: _compact([list(f.assignment) for f in r])),
    "laws": Op(
        lambda e, a: _laws(e[a]),
        lambda e, r, *_: {"laws": r[1]},
        lambda r: _compact([s.mask for s in r[0]])),
    "find_isomorphism": Op(
        lambda e, a, b: dc.find_isomorphism(e[a], e[b]),
        lambda e, r, *_: {"identity": r is not None and _identity(r)},
        _map),
    "extr": Op(
        lambda e, k, n: shapes.extr(k, n),
        lambda e, r, *_: {"retracts": _identity(r.j_incl.then(r.retr))},
        lambda r: _poset(r.whole) + _map(r.retr), clears_shapes=True),
    "extrtil": Op(
        lambda e, k, n: shapes.extrtil(k, n),
        lambda e, r, *_: {"retracts": _identity(r.globe_incl.then(r.retr))},
        lambda r: _poset(r.whole) + _map(r.retr), clears_shapes=True),
    "compositor_c": Op(
        lambda e, n, k: shapes.compositor_c(n, k),
        lambda e, r, *_: {"retracts": _identity(r.incl.then(r.retr))},
        lambda r: _poset(r.whole) + _map(r.retr), clears_shapes=True),
    "folding_c": Op(
        lambda e, m: shapes.folding_c(m),
        lambda e, r, m: {"folding_squares": _folding_c_faces(r, m)},
        _map, clears_shapes=True),
    "sprec": Op(
        lambda e, n: shapes.sprec(n),
        lambda e, r, n: {"folds_to_globe": _sprec_folds(r, n)},
        _map, clears_shapes=True),
}
