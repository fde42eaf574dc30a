"""The standard shape families and the explicit maps between them.

Globes, simplices (addressed by bit strings), cubes, the compositor atoms,
the folding surjections from simplices onto globes and compositors, the
inflation towers used by the retraction squares, horns, and exhaustive map
enumeration between small atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .ogposet import (
    IndexOutOfRange, OgPoset, ClosedSubset, PosetMap, bits, find_isomorphism,
    _boundary_rows,
)
from .construct import (
    BoundaryMismatch, amalgamate, paste, paste_along, substitute, celto,
    gray, inflate, inflate_map, _agreeing_map, _boundary_iso,
    _boundary_pairing,
)


# -- globes ---------------------------------------------------------------


def globe_element(n: int, k: int, sign: int) -> int:
    """Index of the k-dimensional sign-pole in the n-globe (top for k = n)."""
    if k == n:
        return 2 * n
    return 2 * k + (1 if sign > 0 else 0)


@lru_cache(maxsize=None)
def globe(n: int) -> OgPoset:
    """The n-globe: one input and one output pole in every lower dimension."""
    if n < 0:
        raise ValueError(f"globe needs n >= 0, got {n}")
    dims, fm, fp = [], [], []
    for k in range(n):
        for _ in range(2):
            dims.append(k)
            fm.append(0 if k == 0 else 1 << globe_element(n, k - 1, -1))
            fp.append(0 if k == 0 else 1 << globe_element(n, k - 1, +1))
    dims.append(n)
    fm.append(0 if n == 0 else 1 << globe_element(n, n - 1, -1))
    fp.append(0 if n == 0 else 1 << globe_element(n, n - 1, +1))
    return OgPoset(dims, fm, fp)


def globe_tau(n: int, k: int) -> PosetMap:
    """The unique surjection collapsing the n-globe onto the k-globe."""
    if not 0 <= k <= n:
        raise ValueError(f"globe_tau needs k in 0..{n}, got k = {k}")
    assign = []
    for j in range(n):
        for s in (-1, +1):
            assign.append(globe_element(k, j, s) if j < k
                          else globe_element(k, k, 0))
    assign.append(globe_element(k, k, 0))
    return PosetMap(globe(n), globe(k), tuple(assign))


def globe_incl(n: int, k: int, sign: int) -> PosetMap:
    """The k-globe as the sign-pole closure inside the n-globe."""
    if not 0 <= k <= n:
        raise ValueError(f"globe_incl needs k in 0..{n}, got k = {k}")
    if sign not in (-1, +1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    assign = [globe_element(n, j, s)
              for j in range(k) for s in (-1, +1)]
    assign.append(globe_element(n, k, sign))
    return PosetMap(globe(k), globe(n), tuple(assign))


# -- simplices ------------------------------------------------------------


@lru_cache(maxsize=None)
def _simplex_elements(n: int) -> tuple[tuple[int, ...], ...]:
    elems = [b for b in product((0, 1), repeat=n + 1) if any(b)]
    elems.sort(key=lambda b: (sum(b), b))
    return tuple(elems)


@lru_cache(maxsize=None)
def _simplex_index_table(n: int) -> dict[tuple[int, ...], int]:
    return {b: i for i, b in enumerate(_simplex_elements(n))}


def simplex_bits(n: int, i: int) -> tuple[int, ...]:
    return _simplex_elements(n)[i]


def simplex_index(bits_: tuple[int, ...]) -> int:
    return _simplex_index_table(len(bits_) - 1)[bits_]


@lru_cache(maxsize=None)
def simplex(n: int) -> OgPoset:
    """The n-simplex, elements indexed by bit strings in lexicographic
    order within each dimension."""
    elems = _simplex_elements(n)
    table = _simplex_index_table(n)
    dims, fm, fp = [], [], []
    for b in elems:
        used = [k for k, x in enumerate(b) if x]
        dims.append(len(used) - 1)
        # dropping the j-th used vertex gives a + face for even j, a - face
        # for odd j
        faces = [0, 0]
        if len(used) > 1:  # a vertex has no faces
            for j, k in enumerate(used):
                faces[j % 2] |= 1 << table[b[:k] + (0,) + b[k + 1:]]
        fp.append(faces[0])
        fm.append(faces[1])
    return OgPoset(dims, fm, fp)


@lru_cache(maxsize=None)
def cube(n: int) -> OgPoset:
    """The n-cube, an iterated cylinder over the point."""
    if n < 0:
        raise ValueError(f"cube needs n >= 0, got {n}")
    if n == 0:
        return OgPoset.point()
    return gray(globe(1), cube(n - 1))


def simplex_face(n: int, k: int) -> PosetMap:
    """Co-face d^k: insert an unused vertex at position k."""
    if not 0 <= k <= n:
        raise ValueError("face index out of range")
    assign = []
    for b in _simplex_elements(n - 1):
        target = b[:k] + (0,) + b[k:]
        assign.append(simplex_index(target))
    return PosetMap(simplex(n - 1), simplex(n), tuple(assign))


def simplex_degeneracy(n: int, k: int) -> PosetMap:
    """Co-degeneracy s^k: merge vertices k and k+1."""
    if not 0 <= k <= n:
        raise ValueError("degeneracy index out of range")
    assign = []
    for b in _simplex_elements(n + 1):
        target = b[:k] + (b[k] | b[k + 1],) + b[k + 2:]
        assign.append(simplex_index(target))
    return PosetMap(simplex(n + 1), simplex(n), tuple(assign))


# -- folding --------------------------------------------------------------


def _fold_target(b: tuple[int, ...]) -> tuple[int, int]:
    """Globe pole hit by a simplex element: (dimension, sign); sign 0 = top.

    All ones goes to the top; a zero-prefixed block of ones to an output
    pole; otherwise the count of trailing ones names an input pole.  A
    string ending in 0 counts zero trailing ones and lands on the bottom
    input vertex (the only reading that keeps the assignment a valid map).
    """
    n = len(b) - 1
    if all(b):
        return n, 0
    k = 0
    while b[k] == 0:
        k += 1
    if all(b[k:]):
        return n - k, +1
    j = 0
    while b[-1 - j] == 1:
        j += 1
    return j, -1


@lru_cache(maxsize=None)
def folding_a(n: int) -> PosetMap:
    """The canonical surjection from the n-simplex onto the n-globe."""
    assign = []
    for b in _simplex_elements(n):
        d, s = _fold_target(b)
        assign.append(globe_element(n, d, s))
    return PosetMap(simplex(n), globe(n), tuple(assign))


def fatten(p: PosetMap) -> PosetMap:
    """Lift an atom surjection with dimension drop one through the inflation
    of its target: boundaries land on the matching boundary copy, the top
    on the new top."""
    u, v = p.source, p.target
    if u.whole().greatest() is None or v.whole().greatest() is None:
        raise ValueError("fatten needs atoms")
    if u.dim != v.dim + 1 or not p.is_surjective:
        raise ValueError("fatten needs a surjection with dimension drop 1")
    inf = inflate(v)
    clauses = [(u.whole().greatest(), inf.whole.size - 1)]
    for sign, iota in ((-1, inf.iota_minus), (+1, inf.iota_plus)):
        clauses += [(x, iota(p(x)))
                    for x in bits(u.whole().boundary(sign).mask)]
    return _agreeing_map(u, inf.whole, clauses,
                         "boundary images disagree on the overlap")


def iterated_inflate(p: OgPoset, k: int) -> OgPoset:
    """The k-fold inflation of p, built afresh: a reference for the towers."""
    for _ in range(k):
        p = inflate(p).whole
    return p


def _iterated_inflate_map(f: PosetMap, k: int) -> PosetMap:
    for _ in range(k):
        f = inflate_map(f)
    return f


@lru_cache(maxsize=None)
def sprec(n: int) -> PosetMap:
    """s^0 fattened: the n-simplex onto the inflated (n-1)-simplex."""
    return fatten(simplex_degeneracy(n - 1, 0))


# -- compositors ----------------------------------------------------------


@dataclass(frozen=True)
class PhiResult:
    whole: OgPoset
    names: dict[str, int]
    incl_minus: PosetMap   # the n-globe as the input cell
    incl_plus1: PosetMap   # first output copy
    incl_plus2: PosetMap   # second output copy


@lru_cache(maxsize=None)
def phi(m: int) -> PhiResult:
    """The binary compositor atom: one n-cell pointing at two pasted ones."""
    if m < 2:
        raise ValueError("compositors start in dimension 2")
    n = m - 1
    g = globe(n)
    pr = paste(g, g, n - 1)
    ct = celto(g, pr.whole)
    names: dict[str, int] = {}
    for k in range(n):
        names[f"{k}-"] = ct.minus_incl(globe_element(n, k, -1))
        names[f"{k}+"] = ct.minus_incl(globe_element(n, k, +1))
    names[f"{n}-"] = ct.minus_incl(globe_element(n, n, 0))
    names[f"{n}+1"] = ct.plus_incl(pr.left_incl(globe_element(n, n, 0)))
    names[f"{n}+2"] = ct.plus_incl(pr.right_incl(globe_element(n, n, 0)))
    names[f"{n-1}0"] = ct.plus_incl(
        pr.left_incl(globe_element(n, n - 1, +1)))
    names[f"{m}"] = ct.top
    incl1 = pr.left_incl.then(ct.plus_incl)
    incl2 = pr.right_incl.then(ct.plus_incl)
    return PhiResult(ct.whole, names, ct.minus_incl, incl1, incl2)


@lru_cache(maxsize=None)
def folding_c(m: int) -> PosetMap:
    """The surjection from the m-simplex onto the binary compositor.

    Three elements override the globe folding: the two output-side blocks
    and the middle vertex between them.
    """
    if m < 2:
        raise ValueError("compositor foldings start in dimension 2")
    n = m - 1
    ph = phi(m)
    over = {
        (1, 1, 0) + (1,) * (n - 1): ph.names[f"{n}+1"],
        (0, 1, 1) + (1,) * (n - 1): ph.names[f"{n}+2"],
        (0, 1, 0) + (1,) * (n - 1): ph.names[f"{n-1}0"],
    }
    assign = []
    for b in _simplex_elements(m):
        if b in over:
            assign.append(over[b])
            continue
        d, s = _fold_target(b)
        if s == 0:
            assign.append(ph.names[f"{m}"])
        elif d == n and s == -1:
            assign.append(ph.names[f"{n}-"])
        else:
            assign.append(ph.names[f"{d}{'-' if s < 0 else '+'}"])
    return PosetMap(simplex(m), ph.whole, tuple(assign))


@dataclass(frozen=True)
class CompositorResult:
    whole: OgPoset
    incl: PosetMap    # pasted pair of globes into the compositor
    retr: PosetMap    # retraction back onto the pair


@lru_cache(maxsize=None)
def compositor_c(n: int, k: int) -> CompositorResult:
    """C_{n,k}: the pasted pair of n-globes with the cell tower filling it."""
    if not 0 <= k < n:
        raise ValueError("need n > k >= 0")
    if n == k + 1:
        pr = paste(globe(n), globe(n), k)
        ident = PosetMap.identity(pr.whole)
        return CompositorResult(pr.whole, ident, ident)
    prev = compositor_c(n - 1, k)
    inf = inflate(prev.whole)
    pair_n = paste(globe(n), globe(n), k)
    pair_m = prev.incl.source  # the pasted pair of (n-1)-globes
    iso = _boundary_iso(pair_m.whole(), pair_n.whole.whole().boundary(+1))
    whole, j_pair, j_inf = amalgamate(pair_n.whole, inf.whole, {
        iso[x]: inf.iota_minus(prev.incl(x)) for x in range(pair_m.size)})
    # the inflated tower collapses through tau and the previous retraction,
    # then includes along the shared output boundary of the globe pair
    collapse = inf.tau.then(prev.retr)
    retr = _agreeing_map(
        whole, pair_n.whole,
        [(j_pair(x), x) for x in range(pair_n.whole.size)]
        + [(j_inf(y), iso[collapse(y)]) for y in range(inf.whole.size)],
        "compositor retraction is inconsistent")
    incl = PosetMap(pair_n.whole, whole, j_pair.assignment)
    return CompositorResult(whole, incl, retr)


# -- inflation towers over simplices (E and E-tilde) ----------------------


@dataclass(frozen=True)
class ExtrResult:
    whole: OgPoset
    j_incl: PosetMap   # the inflated simplex tower inside the shape
    retr: PosetMap     # retraction onto that tower


@lru_cache(maxsize=None)
def extr(k: int, n: int) -> ExtrResult:
    """E_k^n: the k-fold inflated n-simplex rebuilt from the tower over the
    (n-1)-simplex, with its retraction."""
    if n <= 1 or k < 0:
        raise ValueError("need n > 1 and k >= 0")
    if k == 0:
        inf = inflate(simplex(n - 1))
        d0 = simplex_face(n, 0)
        face = d0.image(simplex(n - 1).whole())
        pr = paste_along(inf.whole, simplex(n), face, +1)
        s0 = simplex_degeneracy(n - 1, 0)
        retr = _agreeing_map(
            pr.whole, inf.whole,
            [(pr.right_incl(x), inf.iota_minus(s0(x)))
             for x in range(simplex(n).size)]
            + [(pr.left_incl(y), y) for y in range(inf.whole.size)],
            "retraction clauses disagree")
        return ExtrResult(pr.whole, pr.left_incl, retr)

    prev = extr(k - 1, n)
    tower_prev = prev.j_incl.source                        # O^k(D^{n-1})
    inf = inflate(tower_prev)                              # O^{k+1}(D^{n-1})
    osprec = _iterated_inflate_map(sprec(n), k - 1)
    base = osprec.source                                   # O^{k-1}(D^n)
    a = celto(base, prev.whole)
    b = celto(prev.whole, base)
    # the inflated tower is pasted onto its copy inside the output boundary
    # of the first cell, then the second cell swallows the whole new output
    v1 = a.whole.closure(
        a.plus_incl(prev.j_incl(x)) for x in range(tower_prev.size))
    pr1 = paste_along(inf.whole, a.whole, v1, +1)
    pr2 = paste(pr1.whole, b.whole, n + k - 1)
    whole = pr2.whole
    jm = pr1.left_incl.then(pr2.left_incl)
    ja = pr1.right_incl.then(pr2.left_incl)
    jb = pr2.right_incl
    top_prev = tower_prev.whole().greatest()

    def clauses():
        for x in range(base.size):
            yield ja(a.minus_incl(x)), inf.iota_minus(osprec(x))
            yield jb(b.plus_incl(x)), inf.iota_plus(osprec(x))
        for e in range(prev.whole.size):
            yield ja(a.plus_incl(e)), inf.iota_minus(prev.retr(e))
            yield jb(b.minus_incl(e)), inf.iota_plus(prev.retr(e))
        yield ja(a.top), inf.iota_minus(top_prev)
        yield jb(b.top), inf.iota_plus(top_prev)
        for y in range(inf.whole.size):
            yield jm(y), y

    retr = _agreeing_map(whole, inf.whole, clauses(),
                         "retraction clauses disagree")
    return ExtrResult(whole, PosetMap(inf.whole, whole, jm.assignment), retr)


@dataclass(frozen=True)
class ExtrTilResult:
    whole: OgPoset
    globe_incl: PosetMap   # the (k+n)-globe sitting inside
    retr: PosetMap         # composite retraction onto that globe


@lru_cache(maxsize=None)
def extrtil(k: int, n: int) -> ExtrTilResult:
    """E~_k^n: E_k^n with its tower recursively replaced, retracting all the
    way down to a globe."""
    if n == 2:
        e = extr(k, 2)
        tower = e.j_incl.source
        g = globe(k + 2)
        iso = find_isomorphism(tower, g)
        if iso is None:
            raise BoundaryMismatch("tower and globe are not isomorphic")
        inv = sorted(range(g.size), key=iso)  # the inverse of iso
        ginc = PosetMap(g, e.whole,
                        tuple(e.j_incl(inv[x]) for x in range(g.size)))
        return ExtrTilResult(e.whole, ginc, e.retr.then(iso))
    e = extr(k, n)
    t = extrtil(k + 1, n - 1)
    tower = e.j_incl.source
    v = e.j_incl.image(tower.whole())
    sub = substitute(e.whole, v, t.whole)

    bmap = _boundary_pairing(tower.whole(), t.whole.whole())
    rt = _agreeing_map(
        sub.whole, t.whole,
        [(sub.w_incl(w_i), w_i) for w_i in range(t.whole.size)]
        + [(res_i, bmap[e.retr(x)]) for x, res_i in sub.kept.items()
           if e.retr(x) in bmap],
        "induced retraction is inconsistent")
    return ExtrTilResult(sub.whole, t.globe_incl.then(sub.w_incl),
                         rt.then(t.retr))


# -- horns, last vertex, map enumeration ----------------------------------


def horn(p: OgPoset, face_el: int) -> tuple[OgPoset, PosetMap]:
    """The boundary of an atom minus the interior of one codim-1 face."""
    if not 0 <= face_el < p.size:
        raise IndexOutOfRange(f"element index {face_el} out of range")
    top = p.whole().greatest()
    if top is None:
        raise ValueError("horns live in atoms")
    if p.dims[face_el] != p.dim - 1:
        raise ValueError("horn face must have codimension 1")
    v = ClosedSubset(p, p.down[face_el])
    lam = p.whole().boundary() - (v - v.boundary())
    return lam.extract()


def last_vertex(n: int) -> tuple[int, ...]:
    """Order-preserving collapse of simplex elements onto their last vertex."""
    out = []
    for b in _simplex_elements(n):
        k = 0
        while b[-1 - k] == 0:
            k += 1
        out.append(n - k)
    return tuple(out)


def enumerate_maps(u: OgPoset, v: OgPoset) -> list[PosetMap]:
    """All maps from the atom u to v, sorted by assignment in (-dim, i) order.

    A map sends cl{x} onto cl{f(x)}, so f on cl{x} - x forces f(x): it is the
    greatest element of that image or has it as its proper down-set.  Going
    bottom-up, each element right after the last vertex of its closure, only
    vertices and parallel cells branch.  Once f(x) is placed, the law at x
    is checked for each n < dim x, and the first mismatch prunes the branch:
    f must send bd-_n cl{x} and bd+_n cl{x} onto bd-_n cl{f(x)} and
    bd+_n cl{f(x)}.  At n = dim x the law holds by the choice of f(x), so
    every map yielded passes ``PosetMap.check`` at every element and is not
    checked again.  The boundaries are computed once per element, for this
    call only: those of u up front, those of v on first use."""
    if u.whole().greatest() is None:
        raise ValueError("map enumeration works on atoms")
    forced: dict[int, list[int]] = {}  # f(cl{x} - x) -> choices of f(x)
    for c in range(v.size):
        forced.setdefault(v.down[c], []).append(c)
        forced.setdefault(v.down[c] & ~(1 << c), []).append(c)
    walk = sorted(range(u.size), key=lambda x: (
        (u.down[x] & u.dim_mask(0)).bit_length(), u.dims[x], x))
    assign = [0] * u.size

    # u's rows as element lists, to be mapped by image(); v's as masks
    u_rows = [[(list(bits(minus)), list(bits(plus)))
               for minus, plus in _boundary_rows(u, x, u.dims[x])]
              for x in range(u.size)]
    u_faces = [list(bits(u.faces_minus[x] | u.faces_plus[x]))
               for x in range(u.size)]
    v_rows: dict[int, list[tuple[int, int]]] = {}

    def image(elements):
        out = 0
        for y in elements:
            out |= 1 << assign[y]
        return out

    def lawful(x, c):
        want = v_rows.get(c)
        if want is None:
            want = v_rows[c] = _boundary_rows(v, c, u.dim)
        return all(image(minus) == w_minus and image(plus) == w_plus
                   for (minus, plus), (w_minus, w_plus)
                   in zip(u_rows[x], want))

    def search(pos):
        if pos == len(walk):
            yield PosetMap(u, v, tuple(assign))
            return
        x = walk[pos]
        for assign[x] in forced.get(v.closure_mask(image(u_faces[x])), ()):
            if lawful(x, assign[x]):
                yield from search(pos + 1)

    top_down = sorted(range(u.size), key=lambda x: (-u.dims[x], x))
    return sorted(search(0), key=lambda f: [f(x) for x in top_down])
