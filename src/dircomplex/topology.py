"""Nerves, chain complexes, and integer homology.

The homology of a closed subset is that of its nerve, its order complex
of strictly increasing chains (the barycentric subdivision).  ``euler``
needs no complex; ``homology`` computes on the smallest exact complex:

- a point, when the subset has a greatest element and the nerve is a cone;
- the cellular complex (Steiner's complex), with one generator per element
  and boundary ``x+ - x-`` over its codimension-1 faces, when every
  element is *cellular*: the boundary of each has the homology of a
  sphere, checked on cells by induction on dimension, and ``dd = 0`` holds
  on its column (``face_poset_roundtrip`` gives the argument).  Every
  element of a regular directed complex is cellular, since it realizes as
  a regular CW complex and ``dd = 0`` there is globularity;
- the nerve itself otherwise, which needs no assumption.

The per-atom sphere report runs on cells as far as the induction reaches
and on nerves above any element that is not cellular.  Elements whose
closures have one ``ogposet._shape`` key, so are isomorphic, share one
check on cells.  Nothing here recognizes molecules.

Homology is computed over the integers from sparse boundary maps: every
+-1 entry is eliminated as a pivot, and what is left goes to one exact
Smith elimination on Python integers, which never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .ogposet import OgPoset, ClosedSubset, bits, _shape


@dataclass(frozen=True)
class SimplicialComplex:
    """Per-dimension tuples of strictly increasing vertex chains."""

    simplices: tuple[tuple[tuple[int, ...], ...], ...]

    def counts(self) -> list[int]:
        return [len(level) for level in self.simplices]


def nerve(p: Union[OgPoset, ClosedSubset]) -> SimplicialComplex:
    """All chains x0 < ... < xn of the underlying poset."""
    u = p.whole() if isinstance(p, OgPoset) else p
    poset, mask = u.parent, u.mask
    # chains grow upward: each extends by the members strictly above its top
    strict_up = dict.fromkeys(bits(mask), 0)
    for e in strict_up:
        for d in bits(poset.down[e] & ~(1 << e) & mask):
            strict_up[d] |= 1 << e
    levels: list[list[tuple[int, ...]]] = []
    current = [(e,) for e in strict_up]
    while current:
        levels.append(sorted(current))
        current = [c + (e,) for c in current for e in bits(strict_up[c[-1]])]
    return SimplicialComplex(tuple(tuple(lv) for lv in levels))


@dataclass
class ChainComplex:
    """Sparse integer boundary maps of a simplicial or cellular complex.

    ``counts[d]`` is the number of d-cells (d-simplices of a nerve, or
    d-dimensional elements) and ``columns[d][j]`` the boundary of d-cell j
    as ``{face index: coefficient}``; 0-cells have empty boundaries.
    """

    counts: list[int]
    columns: list[list[dict[int, int]]]

    def check_dd_zero(self) -> bool:
        return all(_dd_zero(col, self.columns[d - 1])
                   for d in range(2, len(self.columns))
                   for col in self.columns[d])


def _dd_zero(col: dict[int, int], below) -> bool:
    """Whether the boundary of ``col`` has zero boundary; ``below[f]`` is
    the column of face f."""
    acc: dict[int, int] = {}
    for f, c in col.items():
        for g, e in below[f].items():
            acc[g] = acc.get(g, 0) + c * e
    return not any(acc.values())


def chain_complex(k: SimplicialComplex) -> ChainComplex:
    columns = [[{} for _ in level] for level in k.simplices[:1]]
    for d in range(1, len(k.simplices)):
        index = {c: i for i, c in enumerate(k.simplices[d - 1])}
        columns.append([{index[c[:i] + c[i + 1:]]: (-1) ** i
                         for i in range(len(c))} for c in k.simplices[d]])
    cc = ChainComplex(k.counts(), columns)
    assert cc.check_dd_zero(), "boundary of a boundary must vanish"
    return cc


def _invariants(columns: list[dict[int, int]]) -> list[int]:
    """Smith invariants of a sparse integer matrix given by its columns.

    Every +-1 entry can be a pivot: column operations clear the rest of its
    row, after which its row and column split off as an invariant factor 1.
    Whatever no unit pivot reaches goes to dense Smith normal form.
    """
    cols = [dict(c) for c in columns]
    rows: dict[int, set[int]] = {}
    for j, c in enumerate(cols):
        for r in c:
            rows.setdefault(r, set()).add(j)
    units = 0
    for j, col in enumerate(cols):
        r = next((r for r, v in col.items() if v in (1, -1)), None)
        if r is None:
            continue
        units += 1
        cols[j] = {}
        for g in col:
            rows[g].discard(j)
        for j2 in rows.pop(r):
            other = cols[j2]
            a = other.pop(r) * col[r]
            for g, e in col.items():
                if g == r:
                    continue
                v = other.get(g, 0) - a * e
                if not v:
                    del other[g]
                    rows[g].discard(j2)
                else:
                    other[g] = v
                    rows[g].add(j2)
    live = [c for c in cols if c]
    if not live:
        return [1] * units
    # the transpose has the same invariants: one dense row per live column
    live_rows = [r for r, js in rows.items() if js]
    return [1] * units + _smith_diagonal(
        [[c.get(r, 0) for r in live_rows] for c in live])


def _smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered.

    Exact elimination on a copy of the dense rows: the smallest nonzero
    entry is the pivot, and its row and column are dropped once it divides
    everything left.
    """
    a = [list(row) for row in matrix]
    diag = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(a)
                   for j, v in enumerate(row) if v]
        if not nonzero:
            return diag
        _, i, j = min(nonzero)
        top = a[i]
        pivot = top[j]
        for k, row in enumerate(a):
            if k != i and row[j]:
                q = row[j] // pivot
                a[k] = [x - q * y for x, y in zip(row, top)]
        for c, v in enumerate(top):
            if c != j and v:
                q = v // pivot
                for row in a:
                    row[c] -= q * row[j]
        if any(v for c, v in enumerate(top) if c != j) or \
                any(row[j] for k, row in enumerate(a) if k != i):
            continue  # remainders are left, each smaller than the pivot
        # pull a non-divisible row up so the pivot can shrink
        bad = next((row for row in a if any(v % pivot for v in row)), None)
        if bad is not None:
            a[i] = [x + y for x, y in zip(top, bad)]
            continue
        diag.append(abs(pivot))
        del a[i]
        for row in a:
            del row[j]


def homology(k: Union[SimplicialComplex, ChainComplex, OgPoset,
                       ClosedSubset]) -> list[tuple[int, list[int]]]:
    """Unreduced integer homology: (betti, torsion coefficients) per degree.

    A simplicial complex is turned into its chain complex first.  A poset
    or closed subset gives the homology of its nerve, computed on the
    smallest exact complex (see the module docstring): a point's when it
    has a greatest element, else Steiner's complex from the columns that
    ``_cell_pass`` built when every member is cellular, else the nerve's.
    """
    if isinstance(k, (OgPoset, ClosedSubset)):
        u = k.whole() if isinstance(k, OgPoset) else k
        if u.greatest() is not None:
            return [(1, [])] + [(0, [])] * u.dim
        levels: list[list[dict[int, int]]] = [[] for _ in range(u.dim + 1)]
        for x, _, cellular, col in _cell_pass(u.parent, u.mask):
            if not cellular:
                return homology(nerve(u))
            levels[u.parent.dims[x]].append(col)
        k = ChainComplex([len(lv) for lv in levels], levels)
    cc = k if isinstance(k, ChainComplex) else chain_complex(k)
    inv = [_invariants(c) for c in cc.columns] + [[]]
    return [(n - len(inv[d]) - len(inv[d + 1]),
             sorted(x for x in inv[d + 1] if x > 1))
            for d, n in enumerate(cc.counts)]


def euler(k: Union[SimplicialComplex, OgPoset, ClosedSubset]) -> int:
    """Euler characteristic of a simplicial complex, or of the nerve of a
    poset or closed subset: 1 with a greatest element, else a sum that
    needs no complex (P. Hall; Rota, 1964).  Chains with top x are x, and
    x over one with top y < x: their signed count is ``f(x) = 1 - sum(f(y)
    for y < x)``, and chi = sum(f); index order puts each y before x."""
    if isinstance(k, SimplicialComplex):
        return sum((-1) ** d * c for d, c in enumerate(k.counts()))
    u = k.whole() if isinstance(k, OgPoset) else k
    if u.greatest() is not None:
        return 1
    down = u.parent.down
    filed: dict[int, int] = {}  # {f: mask of its members}; f = +-1 if regular
    for x in bits(u.mask):  # x is filed only after its own sum
        f = 1 - sum(v * (down[x] & m).bit_count() for v, m in filed.items())
        filed[f] = filed.get(f, 0) | 1 << x
    return sum(v * m.bit_count() for v, m in filed.items())


def sphere_signature(n: int) -> list[tuple[int, list[int]]]:
    """Expected unreduced homology of the n-sphere (n = -1 gives emptiness)."""
    if n < 0:
        return []
    if n == 0:
        return [(2, [])]
    return [(1, [])] + [(0, [])] * (n - 1) + [(1, [])]


def ball_signature() -> list[tuple[int, list[int]]]:
    return [(1, [])]


def _matches(actual: list[tuple[int, list[int]]],
             expected: list[tuple[int, list[int]]]) -> bool:
    # a degree that one list lacks reads as (0, [])
    n = max(len(actual), len(expected))
    pad = [(0, [])] * n
    return (actual + pad)[:n] == (expected + pad)[:n]


@dataclass(frozen=True)
class RoundtripReport:
    ok: bool
    failures: tuple[int, ...]
    checked: int

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "checked": self.checked,
                "failures": list(self.failures),
                "note": "ball/sphere conditions checked up to homology "
                        "and Euler characteristic, not homeomorphism"}


def face_poset_roundtrip(p: OgPoset) -> RoundtripReport:
    """Atom-by-atom sphere condition behind the regular-CW-poset claim.

    For every element x of dimension d >= 1, the nerve of its boundary
    ``cl(x) \\ {x}`` must look like a sphere of dimension d - 1, in homology
    and Euler characteristic.  The nerve of the closure of x is a cone with
    apex x, hence always a ball, so it needs no check.

    The check runs on cells wherever it can, by induction on dimension.
    Call x *cellular* when its boundary is a sphere, Steiner's ``dd = 0``
    holds on the column of x, and every element below x is cellular.  If
    every element of a closed subset U is cellular, Steiner's complex of U
    computes the homology of the nerve of U:

    - Filter the nerve by the dimension of the top of a chain.  Each
      relative group of the filtration is the sum over the n-dimensional x
      of the reduced homology of the nerve of ``cl(x) \\ {x}`` shifted up
      by one, and the sphere condition puts all of it in degree n.  So the
      usual cellular-homology argument (Hatcher, section 2.2) gives a
      chain complex with one generator per element that computes the
      homology of the nerve of U.
    - Its differential agrees with Steiner's up to one sign per cell.  By
      induction Steiner's complex is right on ``cl(x) \\ {x}``; ``dd = 0``
      makes Steiner's ``dx`` a cycle there, and these cycles form
      ``H_(d-1) = Z``.  The entries of ``dx`` are +-1, so it is primitive
      and generates that group, as the cellular differential of x does.
      For d = 1 the same holds in reduced ``H_0``: ``dd = 0`` reads as
      "as many + faces as - faces".

    So when everything below x is cellular, the homology of the cells of
    ``cl(x) \\ {x}`` is that of its nerve, and it decides the sphere
    condition on its own (a sphere's Euler characteristic follows from its
    homology).  An element above one that is not cellular is checked on
    its nerve, so the report is the nerve's, element by element.  See also
    Bjorner, *Posets, regular CW complexes and Bruhat order* (1984), and
    Lundell and Weingram (1969) on incidence numbers.
    """
    failures = tuple(x for x, sphere, _, _ in _cell_pass(p, p.all_mask)
                     if not sphere)
    return RoundtripReport(not failures, failures, p.size)


def _cell_pass(p: OgPoset, mask: int
               ) -> Iterator[tuple[int, bool, bool, dict[int, int]]]:
    """``(x, sphere, cellular, column)`` for each x of the closed ``mask``.

    Elements come in index order, which is dimension order; see
    ``face_poset_roundtrip`` for what the two flags mean and why the cells
    may stand in for the nerve.  They differ: a sphere need not satisfy
    ``dd = 0`` on cells.  An element above one that is not cellular is
    checked on its nerve's homology alone, as chi = sum((-1)^d betti_d),
    after the first False ``cellular``, where ``homology`` stops.  The
    column is Steiner's ``dx = x+ - x-`` keyed by element index, which
    ``homology`` reads only as labels: the pass builds the complexes of
    boundaries from these columns, and ``homology`` that of the mask.

    An element x of dimension >= 2 with everything below it cellular takes
    the ``(sphere, dd = 0)`` verdict filed under the ``_shape`` key of
    ``cl{x}``, when an earlier element's closure had that key.  Both
    verdicts read ``cl{x}`` alone, the isomorphism of the closures keeps
    signs, and cellularity is read off a closure too, so that element was
    checked on cells and its verdict is the one x would get.
    ``simplex(n)`` and ``cube(n)`` have one closure shape per dimension.
    """
    fp, fm, down, dims = p.faces_plus, p.faces_minus, p.down, p.dims
    cols: dict[int, dict[int, int]] = {}
    verdicts: dict[tuple[int, ...], tuple[bool, bool]] = {}  # by _shape key
    cellular = 0
    for x in bits(mask):
        d = dims[x]
        col = cols[x] = {**dict.fromkeys(bits(fp[x]), 1),
                         **dict.fromkeys(bits(fm[x]), -1)}
        bit = 1 << x
        below = down[x] ^ bit
        if below & ~cellular:
            h = homology(nerve(ClosedSubset(p, below)))
            yield x, _matches(h, sphere_signature(d - 1)), False, col
            continue
        if d <= 1:
            # the (-1)-sphere is empty, the 0-sphere two points; on reduced
            # chains every vertex has boundary 1
            sphere = below.bit_count() == 2 * d
            verdict = sphere, sphere and sum(col.values()) == 0
        else:
            key = _shape(p, down[x])
            verdict = verdicts.get(key)
            if verdict is None:
                levels: list[list[dict[int, int]]] = [[] for _ in range(d)]
                for y in bits(below):
                    levels[dims[y]].append(cols[y])
                h = homology(ChainComplex([len(lv) for lv in levels], levels))
                sphere = _matches(h, sphere_signature(d - 1))
                verdict = sphere, sphere and _dd_zero(col, cols)
                verdicts[key] = verdict
        if verdict[1]:
            cellular |= bit
        yield (x, *verdict, col)
