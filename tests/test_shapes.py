import itertools
import math

import pytest

from dircomplex import (
    OgPoset, ClosedSubset, PosetMap, BoundaryMismatch, IndexOutOfRange,
    construct, find_isomorphism, paste, shapes,
    is_molecule, is_atom, has_spherical_boundary, toplevel_decomposition,
    globe, simplex, cube, globe_element, simplex_index, simplex_bits,
    globe_tau, globe_incl,
    simplex_face, simplex_degeneracy, folding_a, folding_c, fatten,
    phi, compositor_c, extr, extrtil, horn, last_vertex, enumerate_maps,
    gray, join, inflate, inflate_map,
)
from dircomplex.shapes import sprec, iterated_inflate
from dircomplex.ogposet import bits

POINT = OgPoset.point()


def test_shape_census():
    for n in range(7):
        assert globe(n).size == 2 * n + 1
        assert simplex(n).size == 2 ** (n + 1) - 1
        assert cube(n).size == 3 ** n


@pytest.mark.parametrize("family", [globe, cube])
def test_negative_globe_and_cube_are_refused(family):
    # globe(-1) used to fail on a negative shift, cube(-1) to recurse until
    # the recursion limit
    with pytest.raises(ValueError, match=f"{family.__name__} needs n >= 0"):
        family(-1)


def test_globe_maps_refuse_k_outside_0_to_n():
    # globe_tau(1, 3) used to be no map, globe_incl(1, 3, +1) an index error
    for k in (-1, 3):
        with pytest.raises(ValueError, match=r"globe_tau needs k in 0\.\.1"):
            globe_tau(1, k)
        with pytest.raises(ValueError, match=r"globe_incl needs k in 0\.\.1"):
            globe_incl(1, k, +1)
    for n in range(4):
        for k in range(n + 1):
            assert globe_tau(n, k).is_valid()
            assert globe_incl(n, k, -1).is_valid()
            assert globe_incl(n, k, +1).is_valid()


@pytest.mark.parametrize("sign", [0, 7])
def test_globe_incl_refuses_other_signs(sign):
    # 0 used to read as -1 and 7 as +1; the top (k = n) ignored the sign
    for n, k in ((2, 1), (2, 2), (0, 0)):
        with pytest.raises(ValueError, match=r"sign must be -1 or \+1"):
            globe_incl(n, k, sign)


def test_negative_simplex_is_empty():
    assert simplex(-1).size == 0


def test_cube_is_iterated_cylinder():
    for n in range(1, 5):
        assert cube(n) == gray(globe(1), cube(n - 1))


def test_simplex_is_iterated_join():
    for n in range(1, 6):
        assert simplex(n) == join(POINT, simplex(n - 1))


def test_simplex_encoding_dimensions():
    for n in range(5):
        p = simplex(n)
        for i in range(p.size):
            b = simplex_bits(n, i)
            assert p.dims[i] == sum(b) - 1
            assert simplex_index(b) == i


def test_simplex_faces_follow_parity():
    # j is a face of i when it drops one vertex v of i; the sign is + when
    # i uses an even number of vertices below v
    for n in range(5):
        p = simplex(n)
        for i in range(p.size):
            a = simplex_bits(n, i)
            want = {-1: set(), +1: set()}
            for j in range(p.size):
                gone = [v for v, (x, y) in enumerate(zip(a, simplex_bits(n, j)))
                        if x != y]
                if len(gone) == 1 and a[gone[0]]:
                    want[(-1) ** sum(a[:gone[0]])].add(j)
            assert set(bits(p.faces_minus[i])) == want[-1]
            assert set(bits(p.faces_plus[i])) == want[+1]
    assert simplex(2).faces_plus[6] == 1 << 3 | 1 << 5   # 011 and 110
    assert simplex(2).faces_minus[6] == 1 << 4           # 101


def test_simplex_order_is_vertex_containment():
    p = simplex(3)
    for i in range(p.size):
        below = {j for j in range(p.size) if (p.down[i] >> j) & 1}
        oracle = {j for j in range(p.size)
                  if all(b <= a for a, b in
                         zip(simplex_bits(3, i), simplex_bits(3, j)))}
        assert below == oracle


def test_cosimplicial_identities():
    for n in range(1, 5):
        for i in range(n):
            for j in range(i + 1, n + 1):
                lhs = simplex_face(n, i).then(simplex_face(n + 1, j))
                rhs = simplex_face(n, j - 1).then(simplex_face(n + 1, i))
                assert lhs.assignment == rhs.assignment
    for n in range(4):
        for i in range(n + 1):
            for j in range(i, n + 1):
                lhs = simplex_degeneracy(n + 1, i).then(
                    simplex_degeneracy(n, j))
                rhs = simplex_degeneracy(n + 1, j + 1).then(
                    simplex_degeneracy(n, i))
                assert lhs.assignment == rhs.assignment


def test_face_then_degeneracy_is_identity():
    for n in range(1, 6):
        for k in range(n):
            ident = tuple(range(simplex(n - 1).size))
            assert simplex_face(n, k).then(
                simplex_degeneracy(n - 1, k)).assignment == ident
            assert simplex_face(n, k + 1).then(
                simplex_degeneracy(n - 1, k)).assignment == ident


def test_face_maps_are_inclusions():
    d0 = simplex_face(1, 0)
    assert d0.kind == "inclusion"
    assert simplex_bits(1, d0(0)) == (0, 1)  # the point lands on vertex 1
    for n in (2, 3):
        for k in range(n + 1):
            simplex_face(n, k).check()
            simplex_degeneracy(n - 1, k if k < n else n - 1).check()


def test_folding_a_table():
    assert folding_a(0).assignment == (0,)
    a1 = folding_a(1)
    assert a1(simplex_index((1, 1))) == globe_element(1, 1, 0)
    a2 = folding_a(2)
    assert a2(simplex_index((1, 1, 1))) == globe_element(2, 2, 0)
    assert a2(simplex_index((0, 1, 1))) == globe_element(2, 1, +1)
    assert a2(simplex_index((1, 0, 1))) == globe_element(2, 1, -1)
    # every string with a trailing zero collapses to the bottom input vertex
    assert a2(simplex_index((0, 1, 0))) == globe_element(2, 0, -1)
    assert a2(simplex_index((1, 1, 0))) == globe_element(2, 0, -1)


def test_folding_a_is_a_valid_surjection():
    for n in range(5):
        a = folding_a(n)
        assert a.is_surjective
        a.check()


def test_folding_squares():
    for n in range(5):
        d0 = simplex_face(n + 1, 0)
        d1 = simplex_face(n + 1, 1)
        assert d0.then(folding_a(n + 1)).assignment == \
            folding_a(n).then(globe_incl(n + 1, n, +1)).assignment
        assert d1.then(folding_a(n + 1)).assignment == \
            folding_a(n).then(globe_incl(n + 1, n, -1)).assignment


def test_folding_a_recursive_equals_closed_form():
    for n in range(1, 5):
        rec = sprec(n).then(inflate_map(folding_a(n - 1)))
        iso = find_isomorphism(rec.target, globe(n))
        assert iso is not None
        assert rec.then(iso).assignment == folding_a(n).assignment


def test_fatten_triangle():
    for n in range(1, 5):
        p = sprec(n)
        assert p.is_surjective
        inf = inflate(simplex(n - 1))
        assert p.then(inf.tau).assignment == \
            simplex_degeneracy(n - 1, 0).assignment
        p.check()


def test_phi_structure():
    for m in (2, 3, 4):
        n = m - 1
        ph = phi(m)
        assert ph.whole.size == 2 * n + 5
        cert = is_molecule(ph.whole.whole())
        assert cert.is_atom and has_spherical_boundary(cert)
        bd_minus, _ = ph.whole.whole().boundary(-1).extract()
        assert find_isomorphism(bd_minus, globe(n)) is not None
        out = ph.whole.whole().boundary(+1)
        parts, k = toplevel_decomposition(is_molecule(out))
        assert k == n - 1 and len(parts) == 2
        assert all(is_atom(part) for part in parts)
        # the named middle element is the unique shared pole
        mid = ph.names[f"{n-1}0"]
        left_out = ClosedSubset(ph.whole, ph.whole.down[ph.names[f"{n}+1"]])
        right_in = ClosedSubset(ph.whole, ph.whole.down[ph.names[f"{n}+2"]])
        shared = left_out.boundary(+1).mask & right_in.boundary(-1).mask
        assert shared == ph.whole.down[mid]


def test_folding_c_table():
    c2 = folding_c(2)
    ph = phi(2)
    assert c2(simplex_index((1, 1, 0))) == ph.names["1+1"]
    assert c2(simplex_index((0, 1, 1))) == ph.names["1+2"]
    assert c2(simplex_index((0, 1, 0))) == ph.names["00"]
    assert c2(simplex_index((1, 1, 1))) == ph.names["2"]
    assert c2(simplex_index((1, 0, 1))) == ph.names["1-"]
    for m in (2, 3, 4):
        folding_c(m).check()
        assert folding_c(m).is_surjective


def test_compositor_folding_squares():
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


def test_compositor_c_tower():
    base = compositor_c(1, 0)
    from dircomplex import paste
    assert base.whole == paste(globe(1), globe(1), 0).whole
    for n, k in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
        cc = compositor_c(n, k)
        ident = tuple(range(cc.incl.source.size))
        assert cc.incl.then(cc.retr).assignment == ident
        cc.retr.check()
        cert = is_molecule(cc.whole.whole())
        assert cert is not None and has_spherical_boundary(cert)


def test_extr_shapes():
    for k, n in itertools.product(range(4), range(2, 5)):
        e = extr(k, n)
        # the tower E_k^n retracts onto: the inflated (n-1)-simplex tower
        assert e.j_incl.source == iterated_inflate(simplex(n - 1), k + 1)
        ident = tuple(range(e.j_incl.source.size))
        assert e.j_incl.then(e.retr).assignment == ident
        cert = is_molecule(e.whole.whole())
        assert cert is not None and has_spherical_boundary(cert)
        # boundaries agree with the inflated simplex tower
        tower = iterated_inflate(simplex(n), k)
        for sign in (-1, +1):
            a, _ = e.whole.whole().boundary(sign).extract()
            b, _ = tower.whole().boundary(sign).extract()
            assert find_isomorphism(a, b) is not None


def _clear_shape_caches():
    for f in vars(shapes).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def test_extrtil_inflates_each_tower_once(monkeypatch):
    # each tower is read off the result that built it, never rebuilt
    built = []
    real = construct._cylinder_quotient
    monkeypatch.setattr(construct, "_cylinder_quotient",
                        lambda p, v: built.append(p) or real(p, v))
    _clear_shape_caches()
    extrtil(0, 4)
    assert len(built) == 10


def test_extr_retraction_square():
    # restricted to the boundary, the retraction is the fattened collapse
    for k, n in [(0, 2), (0, 3), (1, 2)]:
        e = extr(k, n)
        tower = iterated_inflate(simplex(n), k)
        collapse = sprec(n)
        for _ in range(k):
            collapse = inflate_map(collapse)
        for sign in (-1, +1):
            bs, bsi = tower.whole().boundary(sign).extract()
            bt, bti = e.whole.whole().boundary(sign).extract()
            iso = find_isomorphism(bs, bt)
            assert iso is not None
            for i in range(bs.size):
                assert e.retr(bti(iso(i))) == collapse(bsi(i))


def test_extrtil_retracts_to_globe():
    for k, n in [(0, 2), (0, 3), (1, 2)]:
        t = extrtil(k, n)
        g = globe(k + n)
        assert t.globe_incl.source == g
        ident = tuple(range(g.size))
        assert t.globe_incl.then(t.retr).assignment == ident
        t.retr.check()


def test_extrtil_r0n_square_equals_folding():
    for n in (2, 3):
        t = extrtil(0, n)
        a = folding_a(n)
        simp = simplex(n)
        for sign in (-1, +1):
            bs, bsi = simp.whole().boundary(sign).extract()
            bt, bti = t.whole.whole().boundary(sign).extract()
            iso = find_isomorphism(bs, bt)
            assert iso is not None
            for i in range(bs.size):
                assert t.retr(bti(iso(i))) == a(bsi(i))


def test_horns():
    lam, incl = horn(globe(1), 0)
    assert lam.size == 1  # dropping the source leaves the target point
    d2 = simplex(2)
    total = 0
    for face in d2.whole().elements_of_dim(1):
        lam, incl = horn(d2, face)
        assert lam.size == 5
        incl.check()
        total += 1
    assert total == 3  # one horn per codimension-1 face, as for Kan horns
    with pytest.raises(ValueError, match="codimension 1"):
        horn(d2, 0)  # a vertex is not codimension 1
    with pytest.raises(ValueError, match="horns live in atoms"):
        horn(paste(globe(1), globe(1), 0).whole, 3)
    # -2 read as element 5, and 7 ended in a bare IndexError
    for face in (-2, 7):
        with pytest.raises(IndexOutOfRange, match=f"index {face} out"):
            horn(d2, face)


def test_shape_maps_refuse_parameters_outside_their_range():
    for call, args, message in (
            (simplex_face, (2, 3), "face index out of range"),
            (simplex_face, (2, -1), "face index out of range"),
            (simplex_degeneracy, (1, 2), "degeneracy index out of range"),
            (folding_c, (1,), "compositor foldings start in dimension 2"),
            (extr, (0, 1), "need n > 1 and k >= 0"),
            (extr, (-1, 2), "need n > 1 and k >= 0"),
            (fatten, (PosetMap(paste(globe(1), globe(1), 0).whole, POINT,
                               (0,) * 5),), "fatten needs atoms"),
            (fatten, (PosetMap.identity(globe(1)),),
             "fatten needs a surjection with dimension drop 1"),
            (fatten, (PosetMap(globe(2), globe(1), (0,) * 5),),
             "fatten needs a surjection with dimension drop 1"),
            # no map law is checked, but a vertex sent to the arrow would
            # sit in both of the arrow's inflated copies
            (fatten, (PosetMap(globe(2), globe(1), (2, 0, 1, 2, 2)),),
             "boundary images disagree on the overlap")):
        with pytest.raises(ValueError, match=message):
            call(*args)


def test_last_vertex():
    for n in range(5):
        gam = last_vertex(n)
        p = simplex(n)
        assert gam[simplex_index((1,) * (n + 1))] == n
        assert set(gam) == set(range(n + 1))
        # order preservation over the face order, exhaustively
        for i in range(p.size):
            for j in bits(p.down[i]):
                assert gam[j] <= gam[i]
    assert last_vertex(2)[simplex_index((1, 0, 0))] == 0


def test_last_vertex_induces_subdivision_map():
    from dircomplex.topology import nerve
    n = 2
    gam = last_vertex(n)
    sd = nerve(simplex(n))
    # sending each chain through the last-vertex labels yields monotone
    # vertex lists, i.e. simplices of the n-simplex
    for level in sd.simplices:
        for chain in level:
            labels = [gam[x] for x in chain]
            assert labels == sorted(labels)
            assert all(0 <= v <= n for v in labels)


def _monotone_count(n, m):
    count = 0
    for f in itertools.product(range(m + 1), repeat=n + 1):
        if all(f[i] <= f[i + 1] for i in range(n)):
            count += 1
    return count


def test_enumerate_maps_against_monotone_oracle():
    for n in range(3):
        for m in range(3):
            maps = enumerate_maps(simplex(n), simplex(m))
            assert len(maps) == _monotone_count(n, m) \
                == math.comb(n + m + 1, n + 1)
            for f in maps[:4]:
                f.check()


def test_enumerate_maps_to_points():
    maps = enumerate_maps(POINT, simplex(2))
    assert len(maps) == 3  # one per vertex


def _brute_force_maps(u, v):
    """Every dimension-non-increasing function that is a map, in the
    lexicographic order of its assignment read top-down by (-dim, index)."""
    order = sorted(range(u.size), key=lambda x: (-u.dims[x], x))
    choices = [[c for c in range(v.size) if v.dims[c] <= u.dims[x]]
               for x in order]
    found = []
    for images in itertools.product(*choices):
        assign = [0] * u.size
        for x, c in zip(order, images):
            assign[x] = c
        if PosetMap(u, v, tuple(assign)).is_valid():
            found.append(tuple(assign))
    return found


# arrows with a target and no source, and with a source and no target:
# atoms that are no cells, on which each sign of the law decides alone
TARGET_ONLY = OgPoset((0, 1), (0, 0), (0, 0b1))
SOURCE_ONLY = OgPoset((0, 1), (0, 0b1), (0, 0))


@pytest.mark.parametrize("u, v", [
    (simplex(1), simplex(1)), (simplex(2), simplex(1)),
    (globe(2), simplex(2)), (simplex(2), globe(2)), (POINT, simplex(2)),
    (globe(2), cube(2)), (cube(2), globe(2)),
    (TARGET_ONLY, POINT), (SOURCE_ONLY, POINT),
], ids=["s1-s1", "s2-s1", "g2-s2", "s2-g2", "pt-s2", "g2-c2", "c2-g2",
        "target-pt", "source-pt"])
def test_enumerate_maps_matches_brute_force(u, v):
    assert [f.assignment for f in enumerate_maps(u, v)] \
        == _brute_force_maps(u, v)


def test_enumerate_maps_counts_with_parallel_cells():
    # targets and sources with parallel cells, where images are not forced
    # by the vertices alone
    cases = [
        (simplex(3), globe(3), 32),
        (simplex(3), phi(3).whole, 38),
        (gray(globe(2), globe(1)), simplex(3), 36),
        (join(globe(1), globe(1)), simplex(3), 35),
        (cube(2), cube(2), 21),
    ]
    for u, v, count in cases:
        assert len(enumerate_maps(u, v)) == count


def test_enumerate_maps_between_three_dimensional_atoms():
    # every map is yielded without a check at the leaf: check() each here
    for v, count in ((cube(3), 267), (simplex(3), 216)):
        maps = enumerate_maps(cube(3), v)
        assert len(maps) == count
        for f in maps:
            f.check()


def test_enumerate_maps_needs_an_atom_source():
    with pytest.raises(ValueError):
        enumerate_maps(globe(1).whole().boundary().extract()[0], simplex(1))


def test_nerve_of_simplex_is_barycentric_subdivision():
    from dircomplex.topology import nerve
    for n in range(4):
        k = nerve(simplex(n))
        assert len(k.simplices[-1]) == math.factorial(n + 1)


def test_extrtil_base_clause():
    assert extrtil(0, 2).whole == extr(0, 2).whole
    assert extrtil(1, 2).whole == extr(1, 2).whole


def test_enumerate_maps_deterministic():
    one = [f.assignment for f in enumerate_maps(simplex(2), simplex(1))]
    two = [f.assignment for f in enumerate_maps(simplex(2), simplex(1))]
    assert one == two


def test_extrtil_refuses_a_tower_that_is_no_globe(monkeypatch):
    # the tower over an arrow is a globe; a failed match must stop extrtil
    monkeypatch.setattr(shapes, "find_isomorphism", lambda p, q: None)
    with pytest.raises(BoundaryMismatch, match="tower and globe"):
        extrtil.__wrapped__(0, 2)  # past the cache of the real result
