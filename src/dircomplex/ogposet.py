"""Finite oriented graded posets, closed subsets, and their maps.

Elements carry dense integer indices sorted by (dimension, insertion
order), so all elements of one dimension occupy a contiguous index range.
Every set of elements is a Python int used as a bitmask; closures and
boundaries are unions/intersections of precomputed masks.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


class InvalidStructure(ValueError):
    """Input data violates an oriented-graded-poset invariant."""


class FaceDimMismatch(InvalidStructure):
    """A face reference does not point one dimension down."""


class OrientationClash(InvalidStructure):
    """The same covering edge appears with both signs."""


class NotGraded(InvalidStructure):
    """Stored dimensions are inconsistent with longest chains."""


class IndexOutOfRange(InvalidStructure):
    """An element index does not exist in the poset."""


class InvalidMap(ValueError):
    """A function between posets breaks the boundary-preservation law."""


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class OgPoset:
    """A finite oriented graded poset.

    ``faces_minus[i]`` and ``faces_plus[i]`` are bitmasks of the elements
    covered by ``i`` with orientation - and + respectively.  The one
    constructor always validates every invariant with mask tests, and
    precomputes coface masks, downward closures and the runs of each
    dimension in the same pass.
    """

    __slots__ = (
        "dims", "faces_minus", "faces_plus", "size", "dim",
        "cofaces_minus", "cofaces_plus", "down", "all_mask",
        "_dim_masks", "_above", "_split_masks", "_hash", "_mol_memo",
    )

    def __init__(self, dims, faces_minus, faces_plus):
        self.dims = dims = tuple(dims)
        self.faces_minus = tuple(faces_minus)
        self.faces_plus = tuple(faces_plus)
        n = self.size = len(dims)
        if not (len(self.faces_minus) == len(self.faces_plus) == n):
            raise InvalidStructure("face tables and dims differ in length")
        self.all_mask = (1 << n) - 1
        if list(dims) != sorted(dims):
            raise InvalidStructure(
                "elements must be sorted by dimension; "
                "use OgPoset.from_records for raw input")
        self.dim = dims[-1] if n else -1
        if n and dims[0] < 0:
            raise InvalidStructure("element 0 has negative dimension")

        cof_m, cof_p, down = [0] * n, [0] * n, [0] * n
        # faces drop dimension by exactly one, so an element is graded
        # unless it is face-less above dimension 0; reported after the rest.
        # Faces of dim d lie in ``below``, the run of dim d - 1 (or nowhere)
        faceless = -1
        bit = 1
        here = start = below = 0  # the current dimension and its run
        ends = []
        for i, d, fm, fp in zip(range(n), dims, self.faces_minus,
                                self.faces_plus):
            if d != here:
                below = (1 << i) - (1 << start) if d == here + 1 else 0
                here, start = d, i
                ends.append(i)
            faces, acc = fm | fp, bit
            if faces:
                if fm & fp:
                    j = (fm & fp & -(fm & fp)).bit_length() - 1
                    raise OrientationClash(
                        f"element {i} lists {j} as both a - and a + face")
                bad = faces & ~below
                if bad:
                    if faces >> n:
                        raise IndexOutOfRange(
                            f"element {i} has a face out of range")
                    j = (bad & -bad).bit_length() - 1
                    raise FaceDimMismatch(f"element {i} (dim {d}) has face "
                                          f"{j} of dim {dims[j]}")
                while fm:
                    low = fm & -fm
                    j = low.bit_length() - 1
                    acc |= down[j]
                    cof_m[j] |= bit
                    fm ^= low
                while fp:
                    low = fp & -fp
                    j = low.bit_length() - 1
                    acc |= down[j]
                    cof_p[j] |= bit
                    fp ^= low
            elif d and faceless < 0:
                faceless = i
            down[i] = acc
            bit <<= 1
        if faceless >= 0:
            raise NotGraded(f"element {faceless}: stored dim {dims[faceless]}"
                            f" but longest chain has length 0")
        # graded, so dims run from 0 without a gap: dimension d is the index
        # run [ends[d - 1], ends[d]), and _above[d] every bit from ends[d]
        if n:
            ends.append(n)
        self._dim_masks = tuple(
            [(1 << e) - (1 << s) for s, e in zip([0] + ends, ends)])
        self._above = tuple([self.all_mask >> e << e for e in ends])
        self.cofaces_minus = tuple(cof_m)
        self.cofaces_plus = tuple(cof_p)
        self.down = tuple(down)
        self._hash = None
        self._split_masks = [None] * n
        self._mol_memo = {}

    # -- construction and serialisation ---------------------------------

    @classmethod
    def from_records(cls, records) -> "OgPoset":
        """Validate raw element records and build a poset in canonical order.

        Each record is a mapping with keys ``dim``, ``minus``, ``plus`` (or a
        ``(dim, minus, plus)`` triple).  Records may arrive in any order;
        they are stably re-sorted by dimension and face indices remapped.
        Records sorted by dimension, as canonical JSON is, are read in one
        pass.
        """
        n = len(records)
        dims, fm, fp, bad = [], [], [], None
        for i, rec in enumerate(records):
            if isinstance(rec, dict):
                try:
                    d, m, p = rec["dim"], rec["minus"], rec["plus"]
                except KeyError:
                    missing = {"dim", "minus", "plus"} - rec.keys()
                    raise InvalidStructure(
                        f"record {i} lacks {', '.join(sorted(missing))}"
                    ) from None
            elif isinstance(rec, (list, tuple)) and len(rec) == 3:
                d, m, p = rec
            else:
                raise InvalidStructure(
                    f"record {i} is neither a mapping nor a triple")
            if type(d) is not int or d < 0:
                raise InvalidStructure(
                    f"record {i}: dim must be a non-negative integer")
            # one loop for - faces and one for +, written out for speed; a
            # face list that is no list fails as its one non-integer
            mask = 0
            for f in m if isinstance(m, (list, tuple)) else [""]:
                if type(f) is not int:
                    raise InvalidStructure(
                        f"record {i}: faces must be a list of integers")
                if 0 <= f < n:
                    mask |= 1 << f
                elif bad is None:
                    bad = f
            fm.append(mask)
            mask = 0
            for f in p if isinstance(p, (list, tuple)) else [""]:
                if type(f) is not int:
                    raise InvalidStructure(
                        f"record {i}: faces must be a list of integers")
                if 0 <= f < n:
                    mask |= 1 << f
                elif bad is None:
                    bad = f
            fp.append(mask)
            dims.append(d)
        if dims == sorted(dims):
            if bad is not None:
                raise IndexOutOfRange(f"face index {bad} out of range")
            return cls(dims, fm, fp)
        order = sorted(range(n), key=dims.__getitem__)
        newpos = [0] * n
        for new, old in enumerate(order):
            newpos[old] = new

        def moved(faces):  # faces out of range stay, to be reported in order
            return [newpos[f] if 0 <= f < n else f for f in faces]
        rows = [(r["dim"], r["minus"], r["plus"]) if isinstance(r, dict)
                else r for r in records]
        return cls.from_records([(d, moved(m), moved(p))
                                 for d, m, p in map(rows.__getitem__, order)])

    @classmethod
    def empty(cls) -> "OgPoset":
        return cls((), (), ())

    @classmethod
    def point(cls) -> "OgPoset":
        return cls((0,), (0,), (0,))

    def to_json_obj(self) -> dict:
        return {"elements": [
            {"dim": self.dims[i],
             "minus": sorted(bits(self.faces_minus[i])),
             "plus": sorted(bits(self.faces_plus[i]))}
            for i in range(self.size)]}

    def to_json(self) -> str:
        """Canonical JSON: fixed key order, no whitespace, sorted indices."""
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "OgPoset":
        obj = json.loads(text)
        if not isinstance(obj, dict) or not isinstance(obj.get("elements"),
                                                       list):
            raise InvalidStructure("expected an object with an 'elements' list")
        return cls.from_records(obj["elements"])

    # -- basic structure -------------------------------------------------

    def dim_mask(self, d: int) -> int:
        if 0 <= d <= self.dim:
            return self._dim_masks[d]
        return 0

    def mask_above(self, d: int) -> int:
        """Mask of all elements of dimension strictly greater than ``d``."""
        if d < 0:
            return self.all_mask
        return self._above[d] if d <= self.dim else 0

    def elements_of_dim(self, d: int) -> Iterator[int]:
        return bits(self.dim_mask(d))

    def cofaces(self, i: int, sign: Optional[int] = None) -> int:
        if sign is None:
            return self.cofaces_minus[i] | self.cofaces_plus[i]
        return self.cofaces_minus[i] if sign < 0 else self.cofaces_plus[i]

    def closure(self, items: Iterable[int]) -> "ClosedSubset":
        mask = 0
        for i in items:
            if not (0 <= i < self.size):
                raise IndexOutOfRange(f"element index {i} out of range")
            mask |= self.down[i]
        return ClosedSubset(self, mask)

    def closure_mask(self, mask: int) -> int:
        # the highest index left is never below another one left, so each
        # step adds a whole downward closure and removes it from the work
        down = self.down
        acc = 0
        while mask:
            top = down[mask.bit_length() - 1]
            acc |= top
            mask &= ~top
        return acc

    def whole(self) -> "ClosedSubset":
        return ClosedSubset(self, self.all_mask)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, OgPoset):
            return NotImplemented
        return (self.dims == other.dims
                and self.faces_minus == other.faces_minus
                and self.faces_plus == other.faces_plus)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dims, self.faces_minus, self.faces_plus))
        return self._hash

    def __repr__(self):
        counts = [m.bit_count() for m in self._dim_masks]
        return f"OgPoset({self.size} elements, dims {counts})"


@dataclass(frozen=True, slots=True)
class ClosedSubset:
    """A downward-closed set of elements of a fixed OgPoset."""

    parent: OgPoset
    mask: int

    def __post_init__(self):
        if self.mask >> self.parent.size:  # negative, or past the last element
            raise IndexOutOfRange(f"subset mask out of range for "
                                  f"{self.parent.size} elements")

    @property
    def dim(self) -> int:
        if self.mask == 0:
            return -1
        return self.parent.dims[self.mask.bit_length() - 1]

    def elements(self) -> Iterator[int]:
        return bits(self.mask)

    def elements_of_dim(self, d: int) -> Iterator[int]:
        return bits(self.mask & self.parent.dim_mask(d))

    def maximal(self) -> list[int]:
        """Maximal elements, ascending.

        The highest index left is maximal (anything above it has a higher
        index and would already have been taken together with everything
        below it), so the work grows with the number of maximal elements,
        not with the size of the subset.
        """
        down = self.parent.down
        out = []
        rest = self.mask
        while rest:
            top = rest.bit_length() - 1
            out.append(top)
            rest &= ~down[top]
        out.reverse()
        return out

    def greatest(self) -> Optional[int]:
        if not self.mask:
            return None
        top = self.mask.bit_length() - 1
        return top if self.parent.down[top] == self.mask else None

    @property
    def is_pure(self) -> bool:
        d = self.dim
        p = self.parent
        return all(p.dims[i] == d for i in self.maximal())

    def boundary(self, sign: Optional[int] = None, n: Optional[int] = None
                 ) -> "ClosedSubset":
        """The n-boundary of this subset; ``sign`` None means both halves.

        Default n is dim - 1.  An element of dimension n is a +-face when no
        member (of dimension n + 1) covers it with a - edge, and dually; on
        top of those, every member not below anything of dimension > n
        belongs to either boundary, and the boundary is the closure of both.
        """
        p, mask, dim = self.parent, self.mask, self.dim
        if sign not in (None, -1, +1):
            raise ValueError(f"sign must be None, -1 or +1, got {sign!r}")
        if n is None:
            n = dim - 1
        if n >= dim:
            return self
        if n < 0:
            return ClosedSubset(p, 0)
        covered_m, covered_p, rest = _boundary_step(p, mask, n)
        keep = (~(covered_m & covered_p) if sign is None
                else ~covered_m if sign == +1 else ~covered_p)
        return ClosedSubset(
            p, p.closure_mask(mask & p._dim_masks[n] & keep) | rest)

    def boundaries(self) -> list[tuple[int, int]]:
        """``[(bd-_k mask, bd+_k mask) for k < dim]``: each k reads the
        dim-(k+1) members once, for both signs."""
        p, mask, out = self.parent, self.mask, []
        for k in range(self.dim):
            covered_m, covered_p, rest = _boundary_step(p, mask, k)
            at_k = mask & p._dim_masks[k]
            out.append((p.closure_mask(at_k & ~covered_p) | rest,
                        p.closure_mask(at_k & ~covered_m) | rest))
        return out

    def extract(self) -> tuple[OgPoset, "PosetMap"]:
        """Standalone copy of this subset plus its inclusion map."""
        p = self.parent
        elems = list(bits(self.mask))
        pos = {e: i for i, e in enumerate(elems)}
        dims = [p.dims[e] for e in elems]
        fm = [sum(1 << pos[j] for j in bits(p.faces_minus[e] & self.mask))
              for e in elems]
        fp = [sum(1 << pos[j] for j in bits(p.faces_plus[e] & self.mask))
              for e in elems]
        sub = OgPoset(dims, fm, fp)
        return sub, PosetMap(sub, p, tuple(elems))

    def _other_mask(self, other: "ClosedSubset") -> int:
        if self.parent is not other.parent and self.parent != other.parent:
            raise ValueError("subsets of different posets")
        return other.mask

    def __and__(self, other):
        return ClosedSubset(self.parent, self.mask & self._other_mask(other))

    def __or__(self, other):
        return ClosedSubset(self.parent, self.mask | self._other_mask(other))

    def __sub__(self, other):
        # Not closed in general; used for interior computations.
        return ClosedSubset(self.parent, self.mask & ~self._other_mask(other))

    def __contains__(self, i):
        return bool(self.mask >> i & 1)

    def __len__(self):
        return self.mask.bit_count()

    def __le__(self, other):
        return self.mask & ~self._other_mask(other) == 0

    def __repr__(self):
        return f"ClosedSubset({sorted(bits(self.mask))})"


def _boundary_step(p: OgPoset, mask: int, n: int) -> tuple[int, int, int]:
    """The dim-n elements that the dim-(n+1) members of a closed mask cover
    with a - and with a + edge, and the closure of its members under
    nothing of dimension > n (0 <= n < dim).  The poset is graded, so what
    lies under a member above dimension n + 1 lies under one of dim n + 1.
    """
    fm, fp, down = p.faces_minus, p.faces_plus, p.down
    covered_m = covered_p = under = 0
    rest = mask & p._dim_masks[n + 1]
    while rest:
        low = rest & -rest
        y = low.bit_length() - 1
        covered_m |= fm[y]
        covered_p |= fp[y]
        under |= down[y]
        rest ^= low
    rest = mask & ~(under | p._above[n])
    return covered_m, covered_p, p.closure_mask(rest) if rest else 0


def _boundary_rows(p: OgPoset, x: int, rows: int) -> list[tuple[int, int]]:
    """``(bd-_n, bd+_n)`` masks of cl{x} for n < rows, where n >= dim x
    gives cl{x} itself, as ``boundary`` does: the rows that the map law
    compares at x and at its image."""
    cl = ClosedSubset(p, p.down[x])
    return (cl.boundaries() + [(cl.mask, cl.mask)] * rows)[:rows]


@dataclass(frozen=True)
class PosetMap:
    """A function between oriented graded posets.

    Validity (the boundary-preservation law) is not enforced on
    construction; use :meth:`check` or :meth:`is_valid`.
    """

    source: OgPoset
    target: OgPoset
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.source.size:
            raise InvalidMap("assignment length differs from source size")
        n = self.target.size
        for i in self.assignment:
            if type(i) is not int or not 0 <= i < n:
                raise IndexOutOfRange(f"image index {i} out of range")

    @classmethod
    def identity(cls, p: OgPoset) -> "PosetMap":
        return cls(p, p, tuple(range(p.size)))

    def __call__(self, i: int) -> int:
        return self.assignment[i]

    def image_mask(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << self.assignment[i]
        return out

    def image(self, subset: ClosedSubset) -> ClosedSubset:
        """Direct image of a closed subset (closed whenever the map is valid)."""
        return ClosedSubset(self.target, self.image_mask(subset.mask))

    def then(self, other: "PosetMap") -> "PosetMap":
        if self.target != other.source:
            raise InvalidMap("composition mismatch")
        return PosetMap(self.source, other.target,
                        tuple(other.assignment[i] for i in self.assignment))

    @property
    def is_injective(self) -> bool:
        return len(set(self.assignment)) == len(self.assignment)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.assignment)) == self.target.size

    @property
    def kind(self) -> str:
        inj, surj = self.is_injective, self.is_surjective
        if inj and surj:
            return "isomorphism"
        if inj:
            return "inclusion"
        if surj:
            return "surjection"
        return "general"

    def preserves_faces_exactly(self) -> bool:
        """Face sets map bijectively with matching signs (inclusion test)."""
        s, t = self.source, self.target
        a = self.assignment
        for i in range(s.size):
            if t.dims[a[i]] != s.dims[i]:
                return False
            if self.image_mask(s.faces_minus[i]) != t.faces_minus[a[i]]:
                return False
            if self.image_mask(s.faces_plus[i]) != t.faces_plus[a[i]]:
                return False
        return True

    def check(self) -> None:
        """Raise InvalidMap unless boundaries are preserved at every element.

        An injective dimension-preserving function that maps face sets
        exactly is always a map, which is much cheaper to test; general
        functions get the full law, element by element.
        """
        if self.is_injective and self.preserves_faces_exactly():
            return
        s, t = self.source, self.target
        for i in range(s.size):
            rows = s.dims[i] + 1
            for n, (have, want) in enumerate(zip(
                    _boundary_rows(s, i, rows),
                    _boundary_rows(t, self.assignment[i], rows))):
                for sign, h, w in zip("-+", have, want):
                    if self.image_mask(h) != w:
                        raise InvalidMap(
                            f"element {i}: boundary({sign}, {n}) not preserved")

    def is_valid(self) -> bool:
        try:
            self.check()
            return True
        except InvalidMap:
            return False

    def to_json_obj(self) -> dict:
        return {"assignment": list(self.assignment)}

    def __repr__(self):
        return (f"PosetMap({self.source.size}->{self.target.size}, "
                f"{self.kind})")


def find_isomorphism(p: OgPoset, q: OgPoset) -> Optional[PosetMap]:
    """An isomorphism of p onto q or None, by ``_match``: the identity when
    the face tables agree, else the first found in connected order; the
    only one on regular molecules.  A paste along a relabelled 1,000-arrow
    path takes 28-60 ms on 2 vCPUs."""
    assign = _match(p.whole(), q.whole())
    return None if assign is None else PosetMap(p, q, tuple(assign))


def _match(a: ClosedSubset, b: ClosedSubset) -> Optional[list[int]]:
    """An isomorphism of the closed subset a onto b, found in place: a list
    of images in ``b.parent`` indexed by ``a.parent`` (-1 off a), or None.

    When a and b are closed and have one ``_shape`` key, it is the
    order-preserving bijection, with no search (``_shape`` says why that
    is an isomorphism).  Otherwise members of a are placed breadth first
    over its Hasse diagram, each component from a member of its rarest
    class of profiles (dimension and degrees), the highest such.  The
    image of x is an unused member of b with the dimension and in-subset
    degrees of x, and a face (coface) with the same sign of the image of
    every placed coface (face) of x; so on a path all after the first
    arrow is forced.  Every covering edge is checked when its later end is
    placed, and degrees count faces of each sign, so a full placement maps
    faces exactly; the search backtracks on dead ends, so it misses no
    isomorphism.  Regular molecules have no nontrivial automorphism: on
    them either way finds the only one; elsewhere the result is the
    order-preserving one or the first found."""
    p, pm, q, qm = a.parent, a.mask, b.parent, b.mask
    if (_shape(p, pm) == _shape(q, qm) and p.closure_mask(pm) == pm
            and q.closure_mask(qm) == qm):
        assign = [-1] * p.size
        for x, y in zip(bits(pm), bits(qm)):
            assign[x] = y
        return assign

    def profiles(r, m):  # faces of members are members
        return [(d, fm.bit_count(), fp.bit_count(), (cm & m).bit_count(),
                 (cp & m).bit_count()) for d, fm, fp, cm, cp in zip(
                     r.dims, r.faces_minus, r.faces_plus, r.cofaces_minus,
                     r.cofaces_plus)]

    p_prof, q_prof = profiles(p, pm), profiles(q, qm)
    classes = list(map(p_prof.__getitem__, bits(pm)))
    if sorted(classes) != sorted(map(q_prof.__getitem__, bits(qm))):
        return None
    fm, fp, cm, cp = (p.faces_minus, p.faces_plus, p.cofaces_minus,
                      p.cofaces_plus)
    order, free, size = [], pm, None
    while free:  # a new component; a class of one member is a rarest one
        start = free.bit_length() - 1
        if classes.count(p_prof[start]) > 1:
            size = size or Counter(classes)
            start = min(bits(free), key=lambda i: (size[p_prof[i]], -i))
        queue = [start]
        free ^= 1 << start
        for x in queue:
            new = (fm[x] | fp[x] | cm[x] | cp[x]) & free
            if new:
                free ^= new
                queue.extend(bits(new))
        order += queue

    # depth first, candidates on an explicit stack: no recursion limit
    qfm, qfp, qcm, qcp = (q.faces_minus, q.faces_plus, q.cofaces_minus,
                          q.cofaces_plus)
    assign = [-1] * p.size
    tries: list[Iterator[int]] = []
    pos = used = placed = 0
    while pos < len(order):
        x = order[pos]
        if assign[x] < 0:
            cand = qm & ~used
            for y in bits(cm[x] & placed):
                cand &= qfm[assign[y]]
            for y in bits(cp[x] & placed):
                cand &= qfp[assign[y]]
            if (fm[x] | fp[x]) & placed:
                for y in bits(fm[x] & placed):
                    cand &= qcm[assign[y]]
                for y in bits(fp[x] & placed):
                    cand &= qcp[assign[y]]
            want = p_prof[x]
            tries.append(iter([c for c in bits(cand) if q_prof[c] == want]))
            placed |= 1 << x
        else:  # back from a dead end: free the current image of x
            used ^= 1 << assign[x]
        assign[x] = c = next(tries[-1], -1)
        if c < 0:
            tries.pop()
            placed ^= 1 << x
            if not tries:
                return None
            pos -= 1
        else:
            used |= 1 << c
            pos += 1
    return assign


def _shape(p: OgPoset, a: int) -> tuple[int, ...]:
    """The closed mask a relabelled 0, 1, ... in index order, as a hashable
    key: the number of members, then, for each member above dimension 0,
    the numbers of its - faces and then of its + faces, each list closed
    by -1.

    Equal keys of closed masks make the order-preserving bijection an
    isomorphism that keeps signs.  The count leads, so both have as many
    members, and as many above dimension 0 (one pair of lists each), so
    as many vertices, which come first: indices are sorted by dimension.
    A face of a member is a member, numbered by its place in the order,
    so the bijection maps the - and the + faces of each member onto those
    of its image, both ways.  On a mask that is not closed, a face outside
    it still gets a number, and the bijection need not be a map.  On cl{x}
    and cl{y} it maps x to y, so a verdict that reads only a closure is
    shared by atoms whose closures have one key."""
    shape = [a.bit_count()]
    add, fm, fp = shape.append, p.faces_minus, p.faces_plus
    for i in bits(a & p._above[0]):
        faces = fm[i]
        while faces:  # a face's number counts the members below it
            f = faces & -faces
            add((a & f - 1).bit_count())
            faces ^= f
        add(-1)
        faces = fp[i]
        while faces:
            f = faces & -faces
            add((a & f - 1).bit_count())
            faces ^= f
        add(-1)
    return tuple(shape)
