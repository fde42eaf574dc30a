"""The operation algebra on molecules and regular directed complexes.

Every constructor returns a new OgPoset in canonical labelling (pushout
elements are numbered left part first, then non-glued right part, each in
source order within every dimension) together with the structural maps, so
repeated runs are bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .ogposet import (
    OgPoset, ClosedSubset, PosetMap, bits, _match,
)
from .molecule import (
    MoleculeCert, NotAMolecule, is_molecule, has_spherical_boundary,
    find_submolecule,
)


class BoundaryMismatch(ValueError):
    pass


class NotASubmolecule(ValueError):
    pass


class NotSpherical(ValueError):
    pass


class NotClosed(ValueError):
    pass


# the arrow: 0 source vertex, 1 target vertex, 2 edge
_O1 = OgPoset((0, 0, 1), (0, 0, 0b001), (0, 0, 0b010))


def _require_molecule(p: OgPoset) -> MoleculeCert:
    cert = is_molecule(p.whole())
    if cert is None:
        raise NotAMolecule(
            f"input complex is not a molecule: maximal elements "
            f"{p.whole().maximal()}, dim {p.dim}")
    return cert


def _require_spherical(cert: MoleculeCert) -> MoleculeCert:
    if not has_spherical_boundary(cert):
        raise NotSpherical("molecule does not have spherical boundary")
    return cert


def _require_submolecule(v: ClosedSubset, ambient: ClosedSubset, stray: str,
                         where: str) -> MoleculeCert:
    """v's certificate, once v is a molecule in ambient's poset that
    ``find_submolecule`` finds in ambient; ``stray`` is the message for a v
    of another poset, ``where`` names ambient in the last refusal."""
    if v.parent != ambient.parent:
        raise NotASubmolecule(stray)
    cv = is_molecule(v)
    if cv is None:
        raise NotASubmolecule("v is not a molecule")
    ca = is_molecule(ambient)
    if ca is None or find_submolecule(cv, ca) is None:
        raise NotASubmolecule(f"v is not a submolecule of {where}")
    return cv


def _image(table: list[int], mask: int) -> int:
    """The union of ``table[i]`` over the bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def amalgamate(u: OgPoset, v: OgPoset, pairing: dict[int, int]
               ) -> tuple[OgPoset, PosetMap, PosetMap]:
    """Pushout of two inclusions: glue v onto u, identifying each element x
    of u named in ``pairing`` with the element pairing[x] of v.

    The result is numbered by dimension; within one dimension the elements
    of u come first in index order, then the unglued elements of v in index
    order.  Returns the glued poset and the inclusions of u and v.
    """
    glued = {y: x for x, y in pairing.items()}
    if len(glued) != len(pairing):
        raise BoundaryMismatch("two elements are glued onto one")
    if any(u.dims[x] != v.dims[y] for x, y in pairing.items()):
        raise BoundaryMismatch("identified elements have different dimensions")
    order = sorted([(u.dims[x], 0, x) for x in range(u.size)]
                   + [(v.dims[y], 1, y) for y in range(v.size)
                      if y not in glued])
    pos = {(part, i): n for n, (_, part, i) in enumerate(order)}
    ju = [pos[(0, x)] for x in range(u.size)]
    jv = [ju[glued[y]] if y in glued else pos[(1, y)] for y in range(v.size)]
    bu, bv = [1 << n for n in ju], [1 << n for n in jv]
    fm, fp = [], []
    for _, part, i in order:
        r, bit = (u, bu) if part == 0 else (v, bv)
        fm.append(_image(bit, r.faces_minus[i]))
        fp.append(_image(bit, r.faces_plus[i]))
    for y, x in glued.items():
        if (_image(bv, v.faces_minus[y]), _image(bv, v.faces_plus[y])) != (
                fm[ju[x]], fp[ju[x]]):
            raise BoundaryMismatch("glued elements disagree on their faces")
    whole = OgPoset([d for d, _, _ in order], fm, fp)
    return whole, PosetMap(u, whole, tuple(ju)), PosetMap(v, whole, tuple(jv))


@dataclass(frozen=True)
class PastingResult:
    whole: OgPoset
    left_incl: PosetMap
    right_incl: PosetMap
    k: int


def _boundary_iso(a: ClosedSubset, b: ClosedSubset) -> dict[int, int]:
    """``ogposet._match`` of a onto b as ambient indices: in order when the
    shapes agree, else the first found; the only one on regular molecules,
    whose boundaries are molecules.  A relabelled 1,000-arrow path takes
    28 to 60 ms."""
    iso = _match(a, b)
    if iso is None:
        raise BoundaryMismatch("boundaries are not isomorphic")
    return {x: iso[x] for x in bits(a.mask)}


def _boundary_pairing(a: ClosedSubset, b: ClosedSubset) -> dict[int, int]:
    """The input and the output boundary isomorphisms of a onto b, which
    must agree where the two boundaries meet."""
    pairing: dict[int, int] = {}
    for sign in (-1, +1):
        for x, y in _boundary_iso(a.boundary(sign), b.boundary(sign)).items():
            if pairing.setdefault(x, y) != y:
                raise BoundaryMismatch(
                    "input/output boundary isomorphisms disagree")
    return pairing


def paste(u: OgPoset, v: OgPoset, k: int) -> PastingResult:
    """Glue v after u along bd+_k(u) = bd-_k(v)."""
    if k < 0:
        raise ValueError(f"paste needs k >= 0, got k = {k}")
    _require_molecule(u)
    _require_molecule(v)
    bu = u.whole().boundary(+1, k)
    bv = v.whole().boundary(-1, k)
    whole, ju, jv = amalgamate(u, v, _boundary_iso(bu, bv))
    return PastingResult(whole, ju, jv, k)


def paste_along(u1: OgPoset, u2: OgPoset, v: ClosedSubset, sign: int
                ) -> PastingResult:
    """Paste u1 onto the submolecule v of the sign-boundary of u2.

    For sign = -1 the output boundary of u1 is glued onto v inside the
    input boundary of u2 (u1 feeds u2); dually for sign = +1.
    """
    _require_molecule(u1)
    _require_molecule(u2)
    _require_submolecule(v, u2.whole().boundary(sign),
                         "v must be a subset of u2", "the boundary")
    bu1 = u1.whole().boundary(-sign)
    whole, j1, j2 = amalgamate(u1, u2, _boundary_iso(bu1, v))
    return PastingResult(whole, j1, j2, u1.dim - 1)


@dataclass(frozen=True)
class SubstitutionResult:
    whole: OgPoset
    kept: dict[int, int]      # index in u -> index in whole, off the interior
    w_incl: PosetMap


def substitute(u: OgPoset, v: ClosedSubset, w: OgPoset) -> SubstitutionResult:
    """Replace the submolecule v of u by w, glued along their boundaries."""
    _require_molecule(u)
    cv = _require_submolecule(v, u.whole(), "v must be a subset of u", "u")
    cw = _require_molecule(w)
    if not (u.dim == v.dim == w.dim):
        raise BoundaryMismatch("substitution requires equal dimensions")
    _require_spherical(cv)
    _require_spherical(cw)

    pairing = _boundary_pairing(v, w.whole())
    interior = v.mask & ~v.boundary().mask
    kept_mask = u.all_mask & ~interior
    if u.closure_mask(kept_mask) != kept_mask:
        raise NotASubmolecule("complement of the interior is not closed")
    kept_sub = ClosedSubset(u, kept_mask)
    kpos, kincl = kept_sub.extract()
    back = {e: i for i, e in enumerate(kincl.assignment)}
    whole, jk, jw = amalgamate(
        kpos, w, {back[x]: y for x, y in pairing.items()})
    kept = {kincl.assignment[i]: jk.assignment[i] for i in range(kpos.size)}
    return SubstitutionResult(whole, kept, jw)


@dataclass(frozen=True)
class CeltoResult:
    whole: OgPoset
    minus_incl: PosetMap
    plus_incl: PosetMap
    top: int


def celto(u: OgPoset, v: OgPoset) -> CeltoResult:
    """The atom u => v: glue u and v along their boundaries, add a top cell."""
    _require_spherical(_require_molecule(u))
    _require_spherical(_require_molecule(v))
    if u.dim != v.dim:
        raise BoundaryMismatch("celto requires equal dimensions")
    n = u.dim
    glued, ju, jv = amalgamate(u, v, _boundary_pairing(u.whole(), v.whole()))
    whole = OgPoset(glued.dims + (n + 1,),
                    glued.faces_minus + (ju.image_mask(u.dim_mask(n)),),
                    glued.faces_plus + (jv.image_mask(v.dim_mask(n)),))
    lift = lambda m: PosetMap(m.source, whole, m.assignment)
    return CeltoResult(whole, lift(ju), lift(jv), whole.size - 1)


def compos(u: OgPoset) -> OgPoset:
    """The atom <u> with the same boundaries as the spherical molecule u."""
    _require_spherical(_require_molecule(u))
    bm, _ = u.whole().boundary(-1).extract()
    bp, _ = u.whole().boundary(+1).extract()
    return celto(bm, bp).whole


# -- Gray products, joins, suspensions, duals ---------------------------


def gray_with_index(p: OgPoset, q: OgPoset
                    ) -> tuple[OgPoset, dict[tuple[int, int], int]]:
    """Gray product plus the (p element, q element) -> product element map."""
    dims, fm, fp, idx = _gray_tables(
        *((r.dims, r.faces_minus, r.faces_plus) for r in (p, q)))
    return OgPoset(dims, fm, fp), idx


def _gray_tables(p, q):
    """The Gray product of two posets given as ``(dims, faces_minus,
    faces_plus)`` tables, each sorted by dimension, as such tables plus
    the pair index; nothing is validated here.

    Pairs are numbered in (dimension sum, p element, q element) order, so
    the faces of a pair are numbered before it, at ``pos[i][j]``.  The
    second factor's orientation is twisted by the first factor's dimension.
    """
    (p_dims, *p_tab), (q_dims, *q_tab) = p, q
    p_faces, q_faces = ([(list(bits(m)), list(bits(pl)))
                         for m, pl in zip(*tab)] for tab in (p_tab, q_tab))
    q_twisted = [(pl, m) for m, pl in q_faces]
    p_dim, q_dim = (max(dims, default=-1) for dims in (p_dims, q_dims))
    p_by_dim = [range(bisect_left(p_dims, d), bisect_right(p_dims, d))
                for d in range(p_dim + 1)]
    q_by_dim = [range(bisect_left(q_dims, d), bisect_right(q_dims, d))
                for d in range(q_dim + 1)]
    pos = [[0] * len(q_dims) for _ in p_dims]
    idx, dims, fm, fp = {}, [], [], []
    for s in range(p_dim + q_dim + 1):
        for d in range(max(0, s - q_dim), min(s, p_dim) + 1):
            qf = q_twisted if d % 2 else q_faces
            for i in p_by_dim[d]:
                row, (pm, pp) = pos[i], p_faces[i]
                for j in q_by_dim[s - d]:
                    idx[(i, j)] = row[j] = len(dims)
                    dims.append(s)
                    m = pl = 0
                    for i2 in pm:
                        m |= 1 << pos[i2][j]
                    for i2 in pp:
                        pl |= 1 << pos[i2][j]
                    qm, qp = qf[j]
                    for j2 in qm:
                        m |= 1 << row[j2]
                    for j2 in qp:
                        pl |= 1 << row[j2]
                    fm.append(m)
                    fp.append(pl)
    return dims, fm, fp, idx


def gray(p: OgPoset, q: OgPoset) -> OgPoset:
    return gray_with_index(p, q)[0]


def _factor_rows(p: OgPoset) -> list[tuple[list[int], list[int]]]:
    """``(bd-_i p, bd+_i p)`` as element lists for i < dim p, then p itself,
    which is bd_i p for every larger i."""
    rows = [(list(bits(m)), list(bits(q))) for m, q in p.whole().boundaries()]
    return rows + [(list(range(p.size)), list(range(p.size)))]


def _product_boundary(u_rows, v_rows, idx, k: int, sign: int) -> int:
    """The union over i <= k of bd^sign_i u x bd^(sign (-1)^i)_(k-i) v as a
    mask over the pair index ``idx``, skipping the pair (-1, -1) of two
    bottoms, which a join lacks; a factor's last row serves for later i."""
    out = 0
    for i in range(k + 1):
        us = u_rows[min(i, len(u_rows) - 1)][sign > 0]
        vs = v_rows[min(k - i, len(v_rows) - 1)][(sign > 0) == (i % 2 == 0)]
        for a in us:
            for b in vs:
                if a >= 0 or b >= 0:
                    out |= 1 << idx[(a, b)]
    return out


def gray_boundary_check(u: OgPoset, v: OgPoset, k: int, sign: int) -> bool:
    """bd^sign_k(u (x) v) is the union over i of bd^sign_i u (x)
    bd^(sign (-1)^i)_(k-i) v, also when a factor is empty."""
    whole, *rows = _gray_check_parts(u, v)
    return whole.boundary(sign, k).mask == _product_boundary(*rows, k, sign)


@lru_cache(maxsize=1)
def _gray_check_parts(u: OgPoset, v: OgPoset):
    """The validated product, both factors' rows and the pair index: what
    the Gray check of the ordered pair (u, v) needs for every (k, sign)."""
    prod, idx = gray_with_index(u, v)
    return prod.whole(), _factor_rows(u), _factor_rows(v), idx


def join_with_index(p: OgPoset, q: OgPoset
                    ) -> tuple[OgPoset, dict[tuple[int, int], int]]:
    """Join plus the pair index; -1 stands for the absent factor.

    The join is the Gray product of the two posets with a least element
    adjoined, less its least element (bottom, bottom), with dimensions
    shifted back down by one.  The bottom, at index 0, is the + face of
    every vertex; only the join itself is built as a poset and validated.
    """
    bottomed = [([0] + [d + 1 for d in r.dims],
                 [0] + [m << 1 for m in r.faces_minus],
                 [0] + [m << 1 | (d == 0)
                        for d, m in zip(r.dims, r.faces_plus)])
                for r in (p, q)]
    dims, fm, fp, idx = _gray_tables(*bottomed)
    joined = OgPoset([d - 1 for d in dims[1:]], [m >> 1 for m in fm[1:]],
                     [m >> 1 for m in fp[1:]])
    return joined, {(i - 1, j - 1): n - 1 for (i, j), n in idx.items() if n}


def join(p: OgPoset, q: OgPoset) -> OgPoset:
    return join_with_index(p, q)[0]


def join_boundary_check(u: OgPoset, v: OgPoset, k: int, sign: int) -> bool:
    """The Gray formula at k + 1 on the factors with a bottom -1 adjoined.

    The join is their Gray product less (-1, -1), its only 0-element, which
    lies below everything, shifted down one dimension: so bd_k of the join
    is bd_(k+1) of the product less (-1, -1).  The bottom is the + face of
    every vertex, so a bottomed factor has bd+_0 = {-1} and bd-_0 empty, or
    {-1} when the factor is empty; for i >= 1 its bd_i is {-1} with
    bd_(i-1) of the factor.  An empty factor needs no case of its own.
    """
    whole, *rows = _join_check_parts(u, v)
    return whole.boundary(sign, k).mask == _product_boundary(
        *rows, k + 1, sign)


@lru_cache(maxsize=1)
def _join_check_parts(u: OgPoset, v: OgPoset):
    """``_gray_check_parts`` for the join: the validated join, the rows of
    both bottomed factors and the pair index."""
    prod, idx = join_with_index(u, v)
    rows = [[([-1] if not p.size else [], [-1])]
            + [([-1] + m, [-1] + pl) for m, pl in _factor_rows(p)]
            for p in (u, v)]
    return prod.whole(), *rows, idx


def suspend(p: OgPoset) -> OgPoset:
    """Two new poles below a shifted copy of p; pole signs match their name."""
    dims = [0, 0] + [d + 1 for d in p.dims]
    fm = [0, 0]
    fp = [0, 0]
    for i in range(p.size):
        if p.dims[i] == 0:
            fm.append(0b01)
            fp.append(0b10)
        else:
            fm.append(p.faces_minus[i] << 2)
            fp.append(p.faces_plus[i] << 2)
    return OgPoset(dims, fm, fp)


def dual(p: OgPoset, dims_to_flip) -> OgPoset:
    """Reverse the orientation of all covering edges out of the named dims."""
    flip = set(dims_to_flip)
    if any(d <= 0 for d in flip):
        raise ValueError("only positive dimensions can be dualized")
    fm = [p.faces_plus[i] if p.dims[i] in flip else p.faces_minus[i]
          for i in range(p.size)]
    fp = [p.faces_minus[i] if p.dims[i] in flip else p.faces_plus[i]
          for i in range(p.size)]
    return OgPoset(p.dims, fm, fp)


def op(p: OgPoset) -> OgPoset:
    return dual(p, range(1, p.dim + 1, 2))


# -- cylinders, quotients, units ----------------------------------------


def cylinder_quotient(p: OgPoset, v: ClosedSubset
                      ) -> tuple[OgPoset, PosetMap]:
    """Collapse the cylinder over p onto p along the fibres over v.

    In the product arrow x p, each fibre {source, edge, target} x {x} with
    x in v becomes a single element.  The cylinder is built only as the
    source of the quotient map.
    """
    quot, cls = _cylinder_quotient(p, v)
    cyl, idx = gray_with_index(_O1, p)
    assign = [0] * cyl.size
    for key, n in idx.items():
        assign[n] = cls[key]
    return quot, PosetMap(cyl, quot, tuple(assign))


def _cylinder_quotient(p: OgPoset, v: ClosedSubset
                       ) -> tuple[OgPoset, dict[tuple[int, int], int]]:
    """The cylinder quotient, built from its classes, and ``cls[(i, x)]``,
    the class of the cylinder element (i, x) (i = 0, 1 the ends, 2 the edge).

    The classes are (0, x) for every x and (1, x), (2, x) for x outside v,
    numbered in the cylinder's own (dimension, i, x) order.  An end copy
    takes the faces of x in its own copy, a face in v named by its copy 0.
    The edge over x has (0, x) as - face, (1, x) as + face, and the edges
    over the faces of x outside v with their signs swapped; edges over
    faces in v fall two dimensions and drop out.  For a closed v no edge
    gets both signs: between two collapsed classes the cylinder has only
    copy-0/copy-1 pairs, with equal signs, and edge/edge pairs, dropped.
    """
    if v.parent != p:
        raise NotClosed("v must be a subset of p")
    vm = v.mask
    if p.closure_mask(vm) != vm:
        raise NotClosed("v is not closed")
    order = sorted([(d, 0, x) for x, d in enumerate(p.dims)]
                   + [(d + i - 1, i, x) for x, d in enumerate(p.dims)
                      if not vm >> x & 1 for i in (1, 2)])
    cls = {(i, x): n for n, (_, i, x) in enumerate(order)}
    for x in bits(vm):
        cls[(1, x)] = cls[(2, x)] = cls[(0, x)]
    bit = [[1 << cls[(i, x)] for x in range(p.size)] for i in range(3)]
    fm, fp = [], []
    for _, i, x in order:
        if i < 2:
            fm.append(_image(bit[i], p.faces_minus[x]))
            fp.append(_image(bit[i], p.faces_plus[x]))
        else:
            fm.append(bit[0][x] | _image(bit[2], p.faces_plus[x] & ~vm))
            fp.append(bit[1][x] | _image(bit[2], p.faces_minus[x] & ~vm))
    return OgPoset([d for d, _, _ in order], fm, fp), cls


def _agreeing_map(source: OgPoset, target: OgPoset, clauses, message: str
                  ) -> PosetMap:
    """The map given by (element, image) clauses that must agree."""
    assign = [None] * source.size
    for x, a in clauses:
        if assign[x] is None:
            assign[x] = a
        elif assign[x] != a:
            raise BoundaryMismatch(message)
    return PosetMap(source, target, tuple(assign))  # type: ignore[arg-type]


def _collapse(quot: OgPoset, p: OgPoset, cls) -> PosetMap:
    """A cylinder quotient over p onto p: each class to its base element."""
    base = {n: x for (_, x), n in cls.items()}
    return PosetMap(quot, p, tuple(base[n] for n in range(quot.size)))


@dataclass(frozen=True)
class InflateResult:
    whole: OgPoset
    tau: PosetMap          # collapse back onto the base
    iota_minus: PosetMap   # base as the input boundary
    iota_plus: PosetMap    # base as the output boundary


def inflate(u: OgPoset) -> InflateResult:
    """The cylinder over u collapsed along the whole boundary: u => u as a
    shape, with its retraction and the two boundary inclusions."""
    quot, cls = _inflation(u)
    tau = _collapse(quot, u, cls)
    iminus = PosetMap(u, quot, tuple(cls[(0, x)] for x in range(u.size)))
    iplus = PosetMap(u, quot, tuple(cls[(1, x)] for x in range(u.size)))
    return InflateResult(quot, tau, iminus, iplus)


def _inflation(u: OgPoset) -> tuple[OgPoset, dict[tuple[int, int], int]]:
    """The inflation of u as a quotient of its cylinder, with the class of
    every cylinder element."""
    _require_spherical(_require_molecule(u))
    return _cylinder_quotient(u, u.whole().boundary())


def inflate_map(p: PosetMap) -> PosetMap:
    """Lift a surjection of same-dimensional atoms through the inflation."""
    if p.source.dim != p.target.dim:
        raise ValueError("inflation lifts only same-dimensional surjections")
    if not p.is_surjective:
        raise ValueError("inflation lifts only surjections")
    squot, scls = _inflation(p.source)
    tquot, tcls = _inflation(p.target)
    return _agreeing_map(
        squot, tquot, ((c, tcls[(i, p(x))]) for (i, x), c in scls.items()),
        "map does not descend to the quotient")


def unitor_shape(u: OgPoset, v: ClosedSubset, side: str, sign: int
                 ) -> tuple[OgPoset, PosetMap]:
    """Left/right unit cylinder over u at the boundary submolecule v.

    The +-variant on the left (and the --variant on the right) is the
    cylinder quotient collapsing everything outside v's interior; the other
    variants are its top-dimensional dual with the reversed retraction.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if sign not in (-1, +1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    _require_spherical(_require_molecule(u))
    bd_sign = -1 if side == "left" else +1
    _require_spherical(_require_submolecule(
        v, u.whole().boundary(bd_sign), "v must live in u",
        f"the {side} boundary"))
    if v.dim != u.dim - 1:
        raise BoundaryMismatch("v must sit one dimension below u")
    w = u.whole().boundary() - (v - v.boundary())
    shape, cls = _cylinder_quotient(u, w)
    retr = _collapse(shape, u, cls)
    if sign == -bd_sign:
        return shape, retr
    return dual(shape, [u.dim + 1]), reverse_map(retr)


def reverse_map(p: PosetMap) -> PosetMap:
    """The reverse of a dimension-dropping surjection: same assignment, the
    source dualized at its top dimension (input and output swap there)."""
    if not p.is_surjective:
        raise ValueError("reverse is defined for surjective maps")
    n = p.source.dim
    if n <= p.target.dim:
        raise ValueError("reverse needs a dimension drop")
    return PosetMap(dual(p.source, [n]), p.target, p.assignment)
