"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report; every criterion carries its stated time budget as an assertion.
"""

import itertools
import math
import time

import pytest

from dircomplex import (
    OgPoset, ClosedSubset, PosetMap, find_isomorphism,
    is_molecule, is_atom, has_spherical_boundary, is_regular_complex,
    is_totally_loop_free, composable, enumerate_molecules,
    paste, paste_along, substitute, celto, inflate, unitor_shape,
    gray, gray_boundary_check, join, join_boundary_check,
    globe, simplex, cube, globe_element, globe_incl,
    simplex_face, folding_a, folding_c, phi, extr, extrtil,
    enumerate_maps, gen_corpus,
    nerve, homology, NotASubmolecule, NotSpherical, BoundaryMismatch,
)
from dircomplex.construct import gray_with_index, join_with_index
from dircomplex.molecule import NotAMolecule
from dircomplex.shapes import sprec
from dircomplex.topology import sphere_signature, ball_signature, _matches
from dircomplex.ogposet import bits


class Budget:
    def __init__(self, number, name, seconds):
        self.number, self.name, self.seconds = number, name, seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.number:02d} ({self.name}): "
                  f"PASS ({elapsed:.1f}s / {self.seconds:.0f}s budget)")
            assert elapsed < self.seconds, \
                f"criterion {self.number} exceeded its {self.seconds}s budget"
        else:
            print(f"\nACCEPTANCE {self.number:02d} ({self.name}): FAIL")
        return False


def test_criterion_01_shape_census():
    with Budget(1, "shape census", 1.0):
        for n in range(7):
            assert globe(n).size == 2 * n + 1
            assert simplex(n).size == 2 ** (n + 1) - 1
            assert cube(n).size == 3 ** n


def test_criterion_02_recognition_soundness():
    with Budget(2, "recognition soundness", 30.0):
        corp = gen_corpus(seed=0, max_dim=4, max_elements=200)
        assert len(corp) >= 40
        for name, p in corp.items():
            cert = is_molecule(p.whole())
            assert cert is not None, name
            assert cert.verify(), name


def _boundary_masks(p):
    table = {}
    w = p.whole()
    for k in range(p.dim + 1):
        for sign in (-1, +1):
            table[(k, sign)] = w.boundary(sign, k).mask
    return table


def test_criterion_03_product_boundary_formulas(corpus_members):
    with Budget(3, "Gray/join boundary formulas", 20.0):
        pairs = [(a, b) for _, a in corpus_members for _, b in corpus_members
                 if a.dim + b.dim <= 4]
        assert pairs
        for a, b in pairs:
            for k in range(a.dim + b.dim + 1):
                for sign in (-1, +1):
                    assert gray_boundary_check(a, b, k, sign)
            for k in range(a.dim + b.dim + 2):
                for sign in (-1, +1):
                    assert join_boundary_check(a, b, k, sign)


def test_criterion_04_spherical_class_closure(corpus_members):
    with Budget(4, "spherical class closure", 60.0):
        spherical = [(n, p) for n, p in corpus_members
                     if has_spherical_boundary(is_molecule(p.whole()))]
        assert len(spherical) >= 20

        def check(p):
            cert = is_molecule(p.whole())
            assert cert is not None and has_spherical_boundary(cert)

        small = [(n, p) for n, p in spherical if p.size <= 40]
        for (n1, a), (n2, b) in itertools.product(small, small):
            if a.dim + b.dim <= 3:
                check(gray(a, b))
            if a.dim + b.dim <= 2:
                check(join(a, b))
        for n, p in small:
            if p.dim <= 3:
                check(celto(p, p).whole)
                check(inflate(p).whole)
        # pasting along a boundary submolecule, and substitution
        checked_pastes = 0
        for n, p in small:
            if p.dim == 0:
                continue
            bd = p.whole().boundary(+1)
            tops = bd.maximal()
            v = ClosedSubset(p, p.down[tops[0]])
            try:
                src, _ = v.extract()
                cell = celto(src, src).whole if src.dim == p.dim - 1 else None
                if cell is None:
                    continue
                res = paste_along(cell, p, v, +1)
            except (NotASubmolecule, BoundaryMismatch, NotSpherical,
                    NotAMolecule):
                continue
            check(res.whole)
            checked_pastes += 1
        assert checked_pastes >= 5
        checked_subst = 0
        for n, p in small:
            if p.dim < 1:
                continue
            top = next(iter(p.whole().elements_of_dim(p.dim)))
            v = ClosedSubset(p, p.down[top])
            w, _ = v.extract()
            try:
                res = substitute(p, v, w)
            except (NotASubmolecule, NotSpherical, BoundaryMismatch):
                continue
            check(res.whole)
            checked_subst += 1
        assert checked_subst >= 5
        checked_units = 0
        for n, p in small:
            if p.dim < 1 or p.size > 20:
                continue
            bd = p.whole().boundary(-1)
            x = next(iter(bd.elements_of_dim(p.dim - 1)), None)
            if x is None:
                continue
            v = ClosedSubset(p, p.down[x])
            try:
                shape, _ = unitor_shape(p, v, "left", +1)
            except (NotASubmolecule, NotSpherical, BoundaryMismatch):
                continue
            check(shape)
            checked_units += 1
        assert checked_units >= 5


def test_criterion_05_rigidity(corpus_members):
    with Budget(5, "molecule rigidity", 60.0):
        for name, p in corpus_members:
            iso = find_isomorphism(p, p)
            assert iso is not None, name
            assert iso.assignment == tuple(range(p.size)), name


def test_criterion_06_codimension_coface_counts(corpus_members):
    with Budget(6, "codimension-1 coface counts", 30.0):
        for name, p in corpus_members:
            n = p.dim
            if n == 0:
                continue
            w = p.whole()
            for x in w.elements_of_dim(n - 1):
                minus_cov = p.cofaces_minus[x] & w.mask
                plus_cov = p.cofaces_plus[x] & w.mask
                in_plus = not minus_cov   # every cover is a +-cover
                in_minus = not plus_cov
                total = bin(minus_cov | plus_cov).count("1")
                if in_plus and in_minus:
                    assert total == 0, name
                elif in_plus or in_minus:
                    assert total == 1, name
                else:
                    assert bin(minus_cov).count("1") == 1, name
                    assert bin(plus_cov).count("1") == 1, name


def test_criterion_07_folding_coherence():
    with Budget(7, "folding coherence", 120.0):
        for n in range(5):
            d0 = simplex_face(n + 1, 0)
            d1 = simplex_face(n + 1, 1)
            assert d0.then(folding_a(n + 1)).assignment == \
                folding_a(n).then(globe_incl(n + 1, n, +1)).assignment
            assert d1.then(folding_a(n + 1)).assignment == \
                folding_a(n).then(globe_incl(n + 1, n, -1)).assignment
        for n in range(1, 5):
            m = n + 1
            ph = phi(m)
            c = folding_c(m)
            a = folding_a(n)
            assert simplex_face(m, 0).then(c).assignment == \
                a.then(ph.incl_plus2).assignment
            assert simplex_face(m, 1).then(c).assignment == \
                a.then(ph.incl_minus).assignment
            assert simplex_face(m, 2).then(c).assignment == \
                a.then(ph.incl_plus1).assignment
        from dircomplex import inflate_map
        for n in range(1, 6):
            rec = sprec(n).then(inflate_map(folding_a(n - 1)))
            iso = find_isomorphism(rec.target, globe(n))
            assert iso is not None
            assert rec.then(iso).assignment == folding_a(n).assignment


def test_criterion_08_retraction_tower():
    with Budget(8, "retraction tower", 300.0):
        for n in (2, 3, 4):
            for k in (0, 1, 2):
                e = extr(k, n)
                ident = tuple(range(e.j_incl.source.size))
                assert e.j_incl.then(e.retr).assignment == ident, (k, n)
        for n in (2, 3, 4):
            t = extrtil(0, n)
            a = folding_a(n)
            simp = simplex(n)
            for sign in (-1, +1):
                bs, bsi = simp.whole().boundary(sign).extract()
                bt, bti = t.whole.whole().boundary(sign).extract()
                iso = find_isomorphism(bs, bt)
                assert iso is not None
                for i in range(bs.size):
                    assert t.retr(bti(iso(i))) == a(bsi(i)), (n, sign)


def _monotone_count(n, m):
    return sum(1 for f in itertools.product(range(m + 1), repeat=n + 1)
               if all(f[i] <= f[i + 1] for i in range(n)))


def test_criterion_09_delta_fullness():
    with Budget(9, "simplex map fullness", 120.0):
        for n in range(5):
            for m in range(5):
                maps = enumerate_maps(simplex(n), simplex(m))
                oracle = _monotone_count(n, m)
                assert oracle == math.comb(n + m + 1, n + 1)
                assert len(maps) == oracle, (n, m)


def test_criterion_10_realization_homology(corpus_members):
    with Budget(10, "realization homology", 120.0):
        atoms = 0
        for name, p in corpus_members:
            if not is_atom(p.whole()):
                continue
            atoms += 1
            n = p.dim
            assert _matches(homology(nerve(p)), ball_signature()), name
            if n >= 1:
                got = homology(nerve(p.whole().boundary()))
                assert _matches(got, sphere_signature(n - 1)), name
        assert atoms >= 15


def test_criterion_11_omega_category_laws(corpus_members):
    with Budget(11, "omega-category laws", 60.0):
        small = [(name, p) for name, p in corpus_members if p.size <= 40]
        assert len(small) >= 20
        for name, p in small:
            mols = enumerate_molecules(p)
            bd = {}
            for s in mols:
                for k in range(s.dim):
                    bd[(s.mask, k, +1)] = s.boundary(+1, k).mask
                    bd[(s.mask, k, -1)] = s.boundary(-1, k).mask

            # units: pasting a molecule with its own k-boundary is itself
            for s in mols:
                for k in range(s.dim):
                    up = ClosedSubset(p, bd[(s.mask, k, +1)])
                    lo = ClosedSubset(p, bd[(s.mask, k, -1)])
                    assert composable(s, up, k) and (s.mask | up.mask) == s.mask
                    assert composable(lo, s, k) and (s.mask | lo.mask) == s.mask

            pairs = {}
            for a in mols:
                for b in mols:
                    for k in range(min(a.dim, b.dim)):
                        if composable(a, b, k):
                            pairs.setdefault(k, []).append((a, b))

            # associativity: definedness propagates through either bracket
            for k, plist in pairs.items():
                by_left = {}
                for a, b in plist:
                    by_left.setdefault(a.mask, []).append(b)
                for a, b in plist:
                    for c in by_left.get(b.mask, []):
                        ab = ClosedSubset(p, a.mask | b.mask)
                        bc = ClosedSubset(p, b.mask | c.mask)
                        left_def = composable(ab, c, k)
                        right_def = composable(a, bc, k)
                        assert left_def == right_def, (name, k)
                        if left_def:
                            assert (ab.mask | c.mask) == (a.mask | bc.mask)

            # interchange across two composition dimensions
            for n_dim, plist in pairs.items():
                for k in range(n_dim):
                    for (x, x1), (y, y1) in itertools.product(plist, plist):
                        xx = ClosedSubset(p, x.mask | x1.mask)
                        yy = ClosedSubset(p, y.mask | y1.mask)
                        if not composable(xx, yy, k):
                            continue
                        assert composable(x, y, k), name
                        assert composable(x1, y1, k), name
                        xy = ClosedSubset(p, x.mask | y.mask)
                        x1y1 = ClosedSubset(p, x1.mask | y1.mask)
                        assert composable(xy, x1y1, n_dim), name
                        assert (xy.mask | x1y1.mask) == (xx.mask | yy.mask)


def test_criterion_12_loop_freeness():
    with Budget(12, "loop-freeness", 30.0):
        for n in range(5):
            assert is_totally_loop_free(globe(n))
            assert is_totally_loop_free(simplex(n))
            assert is_totally_loop_free(cube(n) if n <= 4 else cube(4))
        cyc = OgPoset.from_records([
            {"dim": 0, "minus": [], "plus": []},
            {"dim": 0, "minus": [], "plus": []},
            {"dim": 1, "minus": [0], "plus": [1]},
            {"dim": 1, "minus": [1], "plus": [0]},
        ])
        assert not is_totally_loop_free(cyc)
