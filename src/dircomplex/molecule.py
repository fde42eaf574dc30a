"""Recognition of molecules and atoms, and the class predicates.

A molecule is a closed subset that either has a greatest element (an atom)
or splits as U1 ∪ U2 with U1 ∩ U2 = bd+_k(U1) = bd-_k(U2) for some k, both
parts again molecules.  Recognition searches for such splits directly; a
successful search is returned as a certificate, one ``MoleculeCert`` per
node, that an independent checker can re-verify by recomputing the set
equations at each node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .ogposet import OgPoset, ClosedSubset, bits, _boundary_step, _shape


class NotAMolecule(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class MoleculeCert:
    """One node of a certificate: an atom, or the pasting left #k right.

    An atom has no parts, and its greatest element is the highest bit of
    ``mask``.  Recognition builds one node per subset and shares it
    wherever that subset recurs.
    """
    parent: OgPoset
    mask: int
    left: Optional["MoleculeCert"] = None
    right: Optional["MoleculeCert"] = None
    k: Optional[int] = None

    @property
    def subset(self) -> ClosedSubset:
        return ClosedSubset(self.parent, self.mask)

    @property
    def is_atom(self) -> bool:
        return self.left is None

    def verify(self) -> bool:
        """Re-check every node of the certificate from scratch.

        Deliberately independent of the recognition search: only the
        definition's set equations are recomputed, once per distinct node
        however many paths reach it, on an explicit stack.
        """
        seen = {id(self)}
        todo = [self]
        while todo:
            node = todo.pop()
            p, mask = node.parent, node.mask
            left, right = node.left, node.right
            if mask >> p.size:  # negative, or an element p does not have
                return False
            if left is None or right is None:  # an atom has neither part
                if not (left is right and mask > 0
                        and p.down[mask.bit_length() - 1] == mask):
                    return False
                continue
            l, r = left.mask, right.mask
            if (l == mask or r == mask or left.parent != p
                    or right.parent != p or l | r != mask
                    or not composable(left.subset, right.subset, node.k)):
                return False
            for part in (left, right):
                if id(part) not in seen:
                    seen.add(id(part))
                    todo.append(part)
        return True

    def to_json(self, indent: Optional[int] = None, level: int = 0) -> str:
        """The certificate as JSON, rendered over shared nodes.

        A node is ``{"atom": top}`` or ``{"k": k, "left": ..., "right":
        ...}``.  Compact (``separators=(",", ":")``) when ``indent`` is None,
        else ``json.dumps(..., indent=indent)`` as if nested ``level`` deep
        in a larger document.  Recognition hands out one certificate per
        subset, so a node reached along several paths is shared; it is
        still written out in full at each place, but its text is built once
        and reused when it is at most ``_KEPT_TEXT`` characters long.
        Longer nodes are written as their parts, so no more than that is
        kept per node and depth.
        """
        out: list[str] = []
        kept: dict[tuple[int, int], str] = {}
        glue: dict[int, tuple[str, ...]] = {}
        step = 0 if indent is None else 1  # compact text has no depth

        def write(cert: MoleculeCert, lvl: int) -> int:
            """Append the text of cert at depth lvl; return its length."""
            key = (id(cert), lvl)
            text = kept.get(key)
            if text is not None:
                out.append(text)
                return len(text)
            g = glue.get(lvl)
            if g is None:
                if indent is None:
                    g = ('{"atom":', '{"k":', ',"left":', ',"right":', "}")
                else:
                    inner = "\n" + " " * (indent * (lvl + 1))
                    g = ("{" + inner + '"atom": ', "{" + inner + '"k": ',
                         "," + inner + '"left": ', "," + inner + '"right": ',
                         "\n" + " " * (indent * lvl) + "}")
                glue[lvl] = g
            atom_open, k_open, left, right, close = g
            if cert.left is None:
                top = cert.mask.bit_length() - 1
                text = kept[key] = f"{atom_open}{top}{close}"
                out.append(text)
                return len(text)
            start = len(out)
            head = f"{k_open}{cert.k}{left}"
            out.append(head)
            n = len(head) + write(cert.left, lvl + step)
            out.append(right)
            n += len(right) + write(cert.right, lvl + step) + len(close)
            out.append(close)
            if n <= _KEPT_TEXT:
                text = kept[key] = "".join(out[start:])
                del out[start:]
                out.append(text)
            return n

        write(self, level * step)
        return "".join(out)


# the longest node text that MoleculeCert.to_json keeps for reuse
_KEPT_TEXT = 8192

_SLOT_WRITES = tuple(MoleculeCert.__dict__[f].__set__
                     for f in ("parent", "mask", "left", "right", "k"))


def _node(parent: OgPoset, mask: int, left: Optional[MoleculeCert] = None,
          right: Optional[MoleculeCert] = None, k: Optional[int] = None
          ) -> MoleculeCert:
    """``MoleculeCert(parent, mask, left, right, k)``, its slots written
    directly: the same frozen object, built in a third of the time that
    the frozen ``__init__`` takes to guard each write."""
    node = object.__new__(MoleculeCert)
    w_parent, w_mask, w_left, w_right, w_k = _SLOT_WRITES
    w_parent(node, parent)
    w_mask(node, mask)
    w_left(node, left)
    w_right(node, right)
    w_k(node, k)
    return node


def _next_code(downs: list[int], reach: list[int], rows: list[int],
               code: int) -> int:
    """The closed left part after code in ascending order; 0 when only the
    full code is left.  The caller stops at 0, so code is never full, and
    the closure of the highest bit it lacks meets no lack, so the loop
    below returns.

    Bit i of a code puts top i on the left, and top i on the left forces
    top j there too when ``downs[j]`` meets ``reach[i]``; a code is closed
    when it holds everything its bits force.  Ganter's NextClosure ("Two
    basic algorithms in concept analysis", 1984) steps from one closed code
    to the next in ascending order, least significant bit first: the next
    code is the closure of the current code's bits above some bit i, plus
    bit i, for the least i whose closure adds no higher bit.  After code 0
    that is the closure of {i} for the least i that forces no top above i.
    Closures follow the forcing rows outward and stop at the first higher
    bit.  ``rows[j]``, the tops that top j forces, is -1 until it is built
    on first use, so the first code, which recognition nearly always
    keeps, reads a few rows instead of all t of them; and one pass from the
    top passes over, without a row, every bit i whose ``reach`` meets the
    ``downs`` of a higher bit the code lacks.
    """
    t = len(downs)
    tried = union = 0  # the bits worth a closure; the downs of lacks above j
    for j in range(t - 1, -1, -1):
        bit = 1 << j
        if not code & bit:
            if not reach[j] & union:
                tried |= bit
            union |= downs[j]
    while tried:
        bit = tried & -tried
        tried ^= bit
        above = -(bit << 1)
        lacks = above & ~code  # bit i may force none of these
        closed = todo = code & above | bit
        while todo:
            j = todo.bit_length() - 1
            todo ^= 1 << j
            row = rows[j]
            if row < 0:
                row = 0
                r = reach[j]
                b = 1
                for d in downs:
                    if d & r:
                        row |= b
                    b <<= 1
                rows[j] = row
            todo |= row & ~closed
            closed |= row
            if closed & lacks:
                break
        else:
            return 0 if closed == (1 << t) - 1 else closed


def _split_row(p: OgPoset, x: int) -> tuple[tuple[int, int, int], ...]:
    """The masks of cl{x} that the split search reads, for each k < dim x.

    Entry k is ``(not_in, not_out, reach)``: the dim-k elements of
    cl{x} with a + (for ``not_in``) or a - (for ``not_out``) coface
    inside cl{x}, so outside bd-_k cl{x} or bd+_k cl{x}; and the members
    of cl{x} of dimension >= k outside bd+_k cl{x}, with the + cofaces
    of the dim-k elements of bd+_k cl{x} added.  A top b cannot sit
    right of x at gluing dimension k exactly when cl{b} meets
    ``reach``.  ``not_in`` and ``not_out`` are the boundary kernel's
    covered masks, so only the generators of bd+_k cl{x} are visited
    one by one.  Computed once per element, for every such k, into
    ``p._split_masks[x]``: at most ``3 * size * dim`` masks in all.
    """
    row = p._split_masks[x]
    if row is None:
        cl, row, cof_p = p.down[x], [], p.cofaces_plus
        for d in range(p.dims[x]):
            not_out, not_in, _ = _boundary_step(p, cl, d)
            up = 0
            for z in bits(cl & p._dim_masks[d] & ~not_out):
                up |= cof_p[z]
            row.append((not_in, not_out, cl & p._above[d] | not_out | up))
        row = p._split_masks[x] = tuple(row)
    return row


def _split_after(p: OgPoset, mask: int, k: Optional[int] = None,
                 code: int = 0) -> Optional[tuple[int, int, int, int]]:
    """The first binary pasting of mask after the candidate ``(k, code)``,
    as ``(left mask, right mask, k, code)``, or None; code 0 starts at the
    beginning of k, and k None, or above every gluing dimension, at the
    beginning.

    Deterministic: gluing dimension k runs downward from one below the
    second-highest dimension of a maximal element (above it, fewer than two
    are left to split); for each k the maximal elements of dimension > k
    are bipartitioned.  Everything two tops a, b share must land in the
    gluing interface, so with a on the left, b must go left too when cl{b}
    meets the ``reach`` mask of a (``_split_row``); the left parts
    closed under that relation are walked by ``_next_code`` in ascending
    bitmask order, which is the order of a scan over all 2^t bipartitions,
    building only the forcing rows the walk reaches.  Given a bipartition,
    the interface is forced: its dim-k elements are those with no - coface
    in the left closure and no + coface in the right closure, and
    everything outside both closures joins it too.

    A candidate is dropped only when a part is all of mask or the parts
    share more than the interface; the boundary equations then hold.
    bd+_k of the left part is the closure of its dim-k elements outside
    every left top's ``not_out``, plus what lies under no left top.  Such
    an element outside the interface's forced dim-k elements is in a right
    top's ``not_in``, so in both parts, so in the interface; and the
    interface meets the right closure only in the closure of its forced
    dim-k elements, which is closed.  So bd+_k of the left part is the
    interface, and bd-_k of the right part is too, dually.
    """
    down, dims, table = p.down, p.dims, p._split_masks
    maximals, rest = [], mask  # maximals descending, so by dimension too
    while rest:
        x = rest.bit_length() - 1
        maximals.append(x)
        rest &= ~down[x]
    if len(maximals) < 2:
        return None
    maximals.reverse()
    if k is None or k >= dims[maximals[-2]]:
        k = dims[maximals[-2]] - 1
    while k >= 0:
        downs, reach, tops = [], [], []
        for x in maximals:
            if dims[x] > k:
                entry = (table[x] or _split_row(p, x))[k]
                downs.append(down[x])
                reach.append(entry[2])
                tops.append(entry)
        rows = [-1] * len(downs)
        dim_k = mask & p._dim_masks[k]
        while code := _next_code(downs, reach, rows, code):
            a_mask = b_mask = blocked = 0
            left = code
            for cl, (not_in, not_out, _) in zip(downs, tops):
                if left & 1:
                    a_mask |= cl
                    blocked |= not_out
                else:
                    b_mask |= cl
                    blocked |= not_in
                left >>= 1
            inter = p.closure_mask(dim_k & ~blocked) | mask & ~a_mask & ~b_mask
            lmask = a_mask | inter
            rmask = b_mask | inter
            if lmask != mask and rmask != mask and lmask & rmask == inter:
                return lmask, rmask, k, code
        k -= 1
    return None


def _splits(p: OgPoset, mask: int, k: Optional[int] = None
            ) -> Iterator[tuple[int, int, int]]:
    """Yield the binary pastings ``(left mask, right mask, k)`` of mask, in
    the order of ``_split_after``, each resumed from the one before; given
    k, from the first at gluing dimension k or below."""
    code = 0
    while (split := _split_after(p, mask, k, code)) is not None:
        lmask, rmask, k, code = split
        yield lmask, rmask, k


def _first(p: OgPoset, mask: int) -> Optional[MoleculeCert]:
    """The first certificate of mask, or None; memoized per subset on p.

    An atom has one; any other mask takes the first split in the order of
    ``_split_after`` whose parts are molecules, recognized the same way.  A
    split whose parts fail is resumed from, so no candidate is built twice,
    and recognition takes one stack frame per level of the certificate.
    """
    memo = p._mol_memo
    cert = memo.get(mask, _UNSEEN)
    if cert is not _UNSEEN:
        return cert
    cert = None
    if mask:
        if p.down[mask.bit_length() - 1] == mask:
            cert = _node(p, mask)
        else:
            split = _split_after(p, mask)
            while split is not None:
                lmask, rmask, k, code = split
                left = _first(p, lmask)
                if left is not None:
                    right = _first(p, rmask)
                    if right is not None:
                        cert = _node(p, mask, left, right, k)
                        break
                split = _split_after(p, mask, k, code)
    memo[mask] = cert
    return cert


_UNSEEN = object()  # memo lookups: None is an answer


def is_molecule(u: ClosedSubset) -> Optional[MoleculeCert]:
    """Recognize u as a molecule, returning a checkable certificate.

    Deterministic: the certificate is the first found under (k descending,
    left part ascending); results are memoized per subset on the parent.
    """
    return _first(u.parent, u.mask)


def is_atom(u: ClosedSubset) -> bool:
    return u.greatest() is not None


def toplevel_decomposition(cert: MoleculeCert, k: Optional[int] = None
                           ) -> tuple[list[ClosedSubset], int]:
    """Flatten a molecule into a maximal pasting V1 #k ... #k Vm.

    With the default k (taken from the certificate's root, or dim-1 for an
    atom), each part contains exactly one atom of dimension > k; for
    k = dim-1 that means exactly one top-dimensional atom.
    """
    u = cert.subset
    if not cert.verify():
        raise NotAMolecule(f"invalid certificate: maximal elements "
                           f"{u.maximal()}, dim {u.dim}")
    if k is None:
        k = u.dim - 1 if cert.is_atom else cert.k

    p = u.parent

    def flat(mask: int) -> list[ClosedSubset]:
        for lmask, rmask, kk in _splits(p, mask, k):
            if kk != k:
                break
            if _first(p, lmask) is not None and _first(p, rmask) is not None:
                return flat(lmask) + flat(rmask)
        return [ClosedSubset(p, mask)]

    parts = flat(u.mask)
    for part in parts:
        n_tops = sum(1 for t in part.maximal() if p.dims[t] > k)
        if n_tops != 1:
            raise NotAMolecule(
                f"part has {n_tops} atoms above dimension {k}")
    return parts, k


def has_spherical_boundary(cert: MoleculeCert) -> bool:
    """bd+_k U and bd-_k U intersect exactly in bd_{k-1} U for all k < dim."""
    return _round(cert.subset.boundaries())


def _round(boundaries: list[tuple[int, int]]) -> bool:
    """``has_spherical_boundary`` on ``(bd-_k, bd+_k)`` masks, k = 0, 1, ...

    bd_{k-1} is the union of bd-_{k-1} and bd+_{k-1}, and bd_{-1} is empty.
    """
    below = 0
    for minus, plus in boundaries:
        if minus & plus != below:
            return False
        below = minus | plus
    return True


def is_regular_complex(p: Union[OgPoset, ClosedSubset]) -> bool:
    """Every atom has molecule boundaries and a round boundary.

    Given a closed subset, only its own elements are checked: a closed
    subset of a regular complex is regular.  For x of dim d >= 1, the
    k-boundaries of U = cl{x} are computed once and read by two clauses:
    both (d-1)-boundaries M- and M+ of U are molecules, and U is round.

    Roundness implies that the atom is globular, bd^a_{d-2} M^b =
    bd^a_{d-2} U for all signs a, b.  For d >= 2 its last step says
    M- ∩ M+ = bd_{d-2} U.  Every (d-2)-element of M^b is a face of some
    element of faces^b(x), so both sides are closures of their
    (d-2)-generators.  A generator of bd^a_{d-2} U lies in M- ∩ M+ and has
    no (-a)-coface in U, so it also generates bd^a_{d-2} M^b.  Conversely,
    take a generator y of bd^a_{d-2} M^b with a (-a)-coface z in U.  Then
    z is in M^(-b), so y is in M- ∩ M+ = bd_{d-2} U.  Having a (-a)-coface,
    y generates bd^(-a)_{d-2} U, so it has no a-coface in U.  But y is a
    face of an element of M^b and a (-a)-face of none: a contradiction.

    Both clauses read only U, so atoms whose closures have one ``_shape``
    key, which makes them isomorphic, share a verdict: an atom is not
    checked when an earlier one's closure had its key.  Atoms with
    single-atom boundaries are checked, which is cheaper than the key.
    """
    if isinstance(p, ClosedSubset):
        p, members = p.parent, bits(p.mask)
    else:
        members = range(p.size)
    checked = set()  # _shape keys of the closures checked
    for x in members:
        if p.dims[x] == 0:
            continue
        m, q = p.faces_minus[x], p.faces_plus[x]
        if m & (m - 1) or q & (q - 1):
            key = _shape(p, p.down[x])
            if key in checked:
                continue
            checked.add(key)
        bds = ClosedSubset(p, p.down[x]).boundaries()
        minus, plus = (ClosedSubset(p, m) for m in bds[-1])
        if (is_molecule(minus) is None or is_molecule(plus) is None
                or not _round(bds)):
            return False
    return True


def is_totally_loop_free(p: OgPoset) -> bool:
    """The Hasse diagram with --edges reversed must be acyclic.

    Downward covering edges keep their direction when labelled +, and are
    reversed when labelled -; a directed cycle in the result is a loop.
    Kahn's algorithm: y comes after its - faces and after everything it is
    a + face of, and the poset is loop-free when peeling the elements with
    nothing left before them takes every element.
    """
    before = [(p.faces_minus[y] | p.cofaces_plus[y]).bit_count()
              for y in range(p.size)]
    ready = [y for y in range(p.size) if not before[y]]
    for x in ready:
        for y in bits(p.cofaces_minus[x] | p.faces_plus[x]):
            before[y] -= 1
            if not before[y]:
                ready.append(y)
    return len(ready) == p.size


def composable(a: ClosedSubset, b: ClosedSubset, k: int) -> bool:
    """Whether a #k b is defined: k is an int >= 0, and a and b (subsets
    of one poset) meet exactly in bd+_k a = bd-_k b, which has dimension
    <= k.  Its dim-k part is its generators, the dim-k members of a that no
    - edge covers (the closure of the members under nothing above k adds
    none), so they are compared with the intersection's before any
    closure; dually for b.
    """
    p, inter = a.parent, a.mask & a._other_mask(b)
    if type(k) is not int or k < 0 or inter & p.mask_above(k):
        return False
    if k >= p.dim:  # each is its own k-boundary
        return a.mask == inter == b.mask
    at_k, rests = inter & p._dim_masks[k], []
    for mask, i in ((a.mask, 0), (b.mask, 1)):  # covered by - / by + edges
        step = _boundary_step(p, mask, k)
        if mask & p._dim_masks[k] & ~step[i] != at_k:
            return False
        rests.append(step[2])
    bd = p.closure_mask(at_k)
    return all(bd | rest == inter for rest in rests)


def enumerate_molecules(p: OgPoset) -> list[ClosedSubset]:
    """Every molecule subset of p, sorted by mask: the atoms closed under
    pasting, which is exactly the inductive definition.

    Each molecule's boundaries bd-_k and bd+_k, k < dim, are computed once,
    when it is found, and it is filed under ``(sign, k, boundary)``.  Then
    a #k b is defined exactly when a is filed under (+1, k, bd-_k b) and
    a & b is that boundary, so the partners of a molecule are looked up,
    not searched for.  Only k below both dimensions is tried: at a larger
    k one part contains the other, and their union is already known.
    Intended for desk-scale complexes.
    """
    found: dict[int, ClosedSubset] = {}
    filed: dict[tuple[int, int, int], list[int]] = {}
    todo: list[tuple[int, list[tuple[int, int]]]] = []

    def add(mask: int) -> None:
        s = found[mask] = ClosedSubset(p, mask)
        bds = s.boundaries()
        for k, (minus, plus) in enumerate(bds):
            filed.setdefault((-1, k, minus), []).append(mask)
            filed.setdefault((+1, k, plus), []).append(mask)
        todo.append((mask, bds))

    for x in range(p.size):
        add(p.down[x])
    while todo:
        b, bds = todo.pop()
        for k, (minus, plus) in enumerate(bds):
            # left partners end in bd-_k b, right partners start in bd+_k b
            for sign, face in ((+1, minus), (-1, plus)):
                for a in filed.get((sign, k, face), ()):
                    if a & b == face and a | b not in found:
                        add(a | b)
    return sorted(found.values(), key=lambda s: s.mask)


def find_submolecule(v: MoleculeCert, u: MoleculeCert
                     ) -> Optional[list[tuple[int, int, str]]]:
    """Exhibit v as an iterated pasting factor of u, or return None.

    The witness is a chain of steps (left mask, right mask, side) leading
    from u down to v; each step is a verified split, with v contained in
    the named side.  Answers per subset are kept for this call only.
    """
    if v.parent != u.parent:
        raise ValueError("find_submolecule: certificates of different posets")
    p, target = u.parent, v.mask
    memo: dict[int, Optional[list]] = {}

    def search(cur: int) -> Optional[list]:
        if cur == target:
            return []
        if cur in memo:
            return memo[cur]
        result = None
        for lmask, rmask, _ in _splits(p, cur):
            if _first(p, lmask) is None or _first(p, rmask) is None:
                continue
            if target & ~lmask == 0:
                tail = search(lmask)
                if tail is not None:
                    result = [(lmask, rmask, "left")] + tail
                    break
            if target & ~rmask == 0:
                tail = search(rmask)
                if tail is not None:
                    result = [(lmask, rmask, "right")] + tail
                    break
        memo[cur] = result
        return result

    if target & ~u.mask:
        return None
    return search(u.mask)
