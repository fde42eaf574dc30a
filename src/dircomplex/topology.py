"""Nerves, chain complexes, and integer homology.

The nerve of a poset is its order complex: strictly increasing chains.
Homology is computed over the integers through Smith normal form, with a
fast machine-integer path that escalates to arbitrary precision when
entries grow past a safety threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .ogposet import OgPoset, ClosedSubset, PosetMap, bits

_OVERFLOW_LIMIT = 1 << 60


@dataclass(frozen=True)
class SimplicialComplex:
    """Per-dimension tuples of strictly increasing vertex chains."""

    simplices: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def counts(self) -> list[int]:
        return [len(level) for level in self.simplices]


def nerve(p: Union[OgPoset, ClosedSubset]) -> SimplicialComplex:
    """All chains x0 < ... < xn of the underlying poset."""
    if isinstance(p, OgPoset):
        poset, mask = p, p.all_mask
    else:
        poset, mask = p.parent, p.mask
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


def nerve_map(f: PosetMap, k: SimplicialComplex) -> SimplicialComplex:
    """Image of a nerve under a monotone map, degenerate chains collapsed."""
    levels: list[set[tuple[int, ...]]] = []
    for level in k.simplices:
        for chain in level:
            image = []
            for x in chain:
                y = f(x)
                if not image or image[-1] != y:
                    image.append(y)
            d = len(image) - 1
            while len(levels) <= d:
                levels.append(set())
            levels[d].add(tuple(image))
    return SimplicialComplex(tuple(tuple(sorted(lv)) for lv in levels))


@dataclass
class ChainComplex:
    """Integer boundary matrices, D[k] : C_k -> C_{k-1}."""

    matrices: list[np.ndarray]

    def check_dd_zero(self) -> bool:
        for k in range(1, len(self.matrices)):
            a = self.matrices[k - 1].astype(object)
            b = self.matrices[k].astype(object)
            if a.size and b.size and np.any(a @ b):
                return False
        return True


def chain_complex(k: SimplicialComplex) -> ChainComplex:
    mats = []
    for d, level in enumerate(k.simplices):
        if d == 0:
            mats.append(np.zeros((0, len(level)), dtype=np.int64))
            continue
        prev_index = {c: i for i, c in enumerate(k.simplices[d - 1])}
        m = np.zeros((len(k.simplices[d - 1]), len(level)), dtype=np.int64)
        for j, chain in enumerate(level):
            for drop in range(len(chain)):
                face = chain[:drop] + chain[drop + 1:]
                m[prev_index[face], j] += (-1) ** drop
        mats.append(m)
    cc = ChainComplex(mats)
    assert cc.check_dd_zero(), "boundary of a boundary must vanish"
    return cc


def _snf_invariants(mat: np.ndarray) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered.

    Elimination with minimum-magnitude pivoting on int64; any entry past
    the overflow limit restarts the computation on Python integers.
    """
    if mat.size == 0:
        return []
    try:
        return _snf_core(mat.astype(np.int64, copy=True), check=True)
    except OverflowError:
        return _snf_core(mat.astype(object, copy=True), check=False)


def _snf_core(a, check: bool) -> list[int]:
    rows, cols = a.shape
    t = 0
    diag = []
    while t < min(rows, cols):
        sub = a[t:, t:]
        nz = np.nonzero(sub)
        if len(nz[0]) == 0:
            break
        # move the smallest nonzero entry to the pivot
        vals = np.abs(sub[nz])
        pick = int(np.argmin(vals))
        i, j = int(nz[0][pick]) + t, int(nz[1][pick]) + t
        if i != t:
            a[[t, i], :] = a[[i, t], :]
        if j != t:
            a[:, [t, j]] = a[:, [j, t]]
        pivot = a[t, t]
        col = a[t + 1:, t]
        row = a[t, t + 1:]
        if not col.any() and not row.any():
            rest = a[t + 1:, t + 1:]
            if rest.size and np.any(rest % pivot):
                # pull a non-divisible row up so the pivot can shrink
                bad = np.nonzero(np.any(rest % pivot, axis=1))[0][0]
                a[t, :] += a[t + 1 + bad, :]
                continue
            diag.append(abs(int(pivot)))
            t += 1
            continue
        q = col // pivot
        a[t + 1:, :] -= np.outer(q, a[t, :])
        q = a[t, t + 1:] // pivot
        a[:, t + 1:] -= np.outer(a[:, t], q)
        if check and np.abs(a).max() > _OVERFLOW_LIMIT:
            raise OverflowError
    return diag


def _collapsed_matrices(k: SimplicialComplex
                        ) -> tuple[list[int], list[np.ndarray]]:
    """Free-pair collapse, then dense boundary matrices of what is left.

    A simplex with a single proper coface (an incidence of coefficient +-1
    whose coface is itself maximal) spans an elementary collapse; removing
    such pairs is a deformation retract and leaves integer homology
    untouched, shrinking the matrices fed to Smith normal form.
    """
    levels = len(k.simplices)
    cols: list[dict[int, dict[int, int]]] = [dict() for _ in range(levels)]
    rows: list[dict[int, set[int]]] = [dict() for _ in range(levels)]
    alive: list[set[int]] = [set(range(len(lv))) for lv in k.simplices]
    for d in range(1, levels):
        prev_index = {c: i for i, c in enumerate(k.simplices[d - 1])}
        for j, chain in enumerate(k.simplices[d]):
            col: dict[int, int] = {}
            for drop in range(len(chain)):
                face = prev_index[chain[:drop] + chain[drop + 1:]]
                col[face] = col.get(face, 0) + (-1) ** drop
            cols[d][j] = {r: c for r, c in col.items() if c}
            for r in cols[d][j]:
                rows[d].setdefault(r, set()).add(j)

    queue = [(d, r) for d in range(1, levels) for r in rows[d]
             if len(rows[d][r]) == 1]
    while queue:
        d, sigma = queue.pop()
        if sigma not in alive[d - 1]:
            continue
        cofs = rows[d].get(sigma)
        if not cofs or len(cofs) != 1:
            continue
        tau = next(iter(cofs))
        if abs(cols[d][tau][sigma]) != 1:
            continue
        if d + 1 < levels and rows[d + 1].get(tau):
            continue
        alive[d - 1].discard(sigma)
        alive[d].discard(tau)
        # drop tau's column: its other rows lose a coface
        for r in cols[d].pop(tau):
            if r != sigma:
                rows[d][r].discard(tau)
                if len(rows[d][r]) == 1:
                    queue.append((d, r))
        rows[d].pop(sigma, None)
        # drop sigma's column one level down
        if d - 1 >= 1 and sigma in cols[d - 1]:
            for r in cols[d - 1].pop(sigma):
                rows[d - 1][r].discard(sigma)
                if len(rows[d - 1][r]) == 1:
                    queue.append((d - 1, r))

    counts = [len(a) for a in alive]
    mats = []
    for d in range(levels):
        if d == 0:
            mats.append(np.zeros((0, counts[0]), dtype=np.int64))
            continue
        rindex = {r: i for i, r in enumerate(sorted(alive[d - 1]))}
        live_cols = sorted(alive[d])
        m = np.zeros((len(rindex), len(live_cols)), dtype=np.int64)
        for jj, j in enumerate(live_cols):
            for r, c in cols[d][j].items():
                m[rindex[r], jj] = c
        mats.append(m)
    return counts, mats


def homology(k: SimplicialComplex) -> list[tuple[int, list[int]]]:
    """Unreduced integer homology: (betti, torsion coefficients) per degree."""
    counts, mats = _collapsed_matrices(k)
    assert ChainComplex(mats).check_dd_zero(), \
        "boundary of a boundary must vanish"
    out = []
    inv = [_snf_invariants(m) for m in mats]
    for d in range(len(counts)):
        rank_d = len(inv[d])
        rank_up = len(inv[d + 1]) if d + 1 < len(counts) else 0
        betti = counts[d] - rank_d - rank_up
        torsion = sorted(x for x in (inv[d + 1] if d + 1 < len(counts) else [])
                         if x > 1)
        out.append((betti, torsion))
    return out


def euler(k: SimplicialComplex) -> int:
    return sum((-1) ** d * c for d, c in enumerate(k.counts()))


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
    for d in range(max(len(actual), len(expected))):
        a = actual[d] if d < len(actual) else (0, [])
        e = expected[d] if d < len(expected) else (0, [])
        if a != e:
            return False
    return True


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

    For every element, the nerve of its closure must look like a ball and
    the nerve of its boundary like a sphere of one dimension lower, in
    homology and Euler characteristic.
    """
    failures = []
    for x in range(p.size):
        cl = ClosedSubset(p, p.down[x])
        d = p.dims[x]
        if not _matches(homology(nerve(cl)), ball_signature()):
            failures.append(x)
            continue
        if euler(nerve(cl)) != 1:
            failures.append(x)
            continue
        if d >= 1:
            bd = cl.boundary()
            if not _matches(homology(nerve(bd)), sphere_signature(d - 1)):
                failures.append(x)
                continue
            if euler(nerve(bd)) != 1 + (-1) ** (d - 1):
                failures.append(x)
    return RoundtripReport(not failures, tuple(failures), p.size)
