import json
import tracemalloc
from typing import Iterator, Optional

import pytest
from hypothesis import given, settings, strategies as st

from dircomplex import (
    OgPoset, PosetMap, ClosedSubset, InvalidStructure, InvalidMap,
    FaceDimMismatch, OrientationClash, NotGraded, IndexOutOfRange,
    find_isomorphism, enumerate_maps,
    globe, simplex, globe_element, simplex_index, globe_tau,
    folding_a, cube, gray, paste, is_regular_complex, is_molecule,
    homology, euler, nerve, op,
)
from dircomplex import molecule, ogposet
from dircomplex.ogposet import bits, _match, _shape

from test_topology import _oriented_graded_posets, _pool


def test_validate_empty_and_point():
    assert OgPoset.from_records([]).size == 0
    assert OgPoset.from_records([]).dim == -1
    pt = OgPoset.from_records([{"dim": 0, "minus": [], "plus": []}])
    assert pt.size == 1 and pt.dim == 0


def test_validate_face_dim_mismatch():
    recs = [{"dim": 1, "minus": [1], "plus": []},
            {"dim": 1, "minus": [], "plus": []}]
    with pytest.raises((FaceDimMismatch, NotGraded)):
        OgPoset.from_records(recs)


def test_validate_orientation_clash():
    recs = [{"dim": 0, "minus": [], "plus": []},
            {"dim": 1, "minus": [0], "plus": [0]}]
    with pytest.raises(OrientationClash):
        OgPoset.from_records(recs)


def test_validate_not_graded():
    recs = [{"dim": 0, "minus": [], "plus": []},
            {"dim": 2, "minus": [], "plus": []}]
    with pytest.raises(NotGraded, match="longest chain has length 0"):
        OgPoset.from_records(recs)


def test_validate_reorders_by_dimension():
    # edge listed before its endpoints; indices remap accordingly
    recs = [{"dim": 1, "minus": [1], "plus": [2]},
            {"dim": 0, "minus": [], "plus": []},
            {"dim": 0, "minus": [], "plus": []}]
    p = OgPoset.from_records(recs)
    assert p == globe(1)


def test_closure_of_top_is_everything():
    o2 = globe(2)
    assert o2.closure([4]).mask == o2.all_mask
    assert o2.closure([]).mask == 0


def test_closure_simplex_against_order_oracle():
    # order on simplex elements is bitwise containment of vertex sets
    d2 = simplex(2)
    i110 = simplex_index((1, 1, 0))
    got = sorted(d2.closure([i110]).elements())
    oracle = sorted(
        j for j in range(d2.size)
        if all(b <= a for a, b in
               zip((1, 1, 0), __import__("dircomplex").simplex_bits(2, j))))
    assert got == oracle == sorted(
        [i110, simplex_index((1, 0, 0)), simplex_index((0, 1, 0))])


def test_closure_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        globe(1).closure([7])


@pytest.mark.parametrize("mask", [-6, 1 << 9])
def test_subset_mask_out_of_range(mask):
    # a negative mask sent is_molecule and homology into endless loops, and
    # a bit past the last element ended the walks in a bare IndexError
    p = simplex(2)
    for call in (is_molecule, homology, is_regular_complex, euler):
        with pytest.raises(IndexOutOfRange, match="7 elements"):
            call(ClosedSubset(p, mask))
    assert ClosedSubset(p, p.all_mask) - ClosedSubset(p, 1) \
        == ClosedSubset(p, p.all_mask - 1)


def test_boundary_globe2():
    w = globe(2).whole()
    assert sorted(w.boundary(-1, 1).elements()) == [
        globe_element(2, 0, -1), globe_element(2, 0, +1),
        globe_element(2, 1, -1)]
    assert w.boundary(+1, 2).mask == w.mask  # at or above the dimension


@pytest.mark.parametrize("sign", [0, 2, "+"])
def test_boundary_refuses_other_signs(sign):
    # each of these used to give only the ungenerated rest, here nothing;
    # n outside 0..dim-1 used to return before the sign was read
    w = globe(2).whole()
    for n in (None, *range(-1, w.dim + 2)):
        with pytest.raises(ValueError, match=r"sign must be None, -1 or \+1"):
            w.boundary(sign, n)


def test_boundary_simplex2_parity():
    # the input 1-boundary of the triangle is the long edge's closure
    d2 = simplex(2)
    w = d2.whole()
    assert w.boundary(-1, 1).mask == d2.closure([simplex_index((1, 0, 1))]).mask
    assert w.boundary(+1, 1).mask == d2.closure(
        [simplex_index((1, 1, 0)), simplex_index((0, 1, 1))]).mask


def _sbord_oracle(sub, sign, n):
    """Recompute the boundary straight from the definition, element by
    element over explicit covering edges."""
    p = sub.parent
    members = set(sub.elements())
    sb = set()
    for x in members:
        if p.dims[x] != n:
            continue
        covers = [(y, s) for s in (-1, +1)
                  for y in bits(p.cofaces(x, s)) if y in members]
        if all(s == sign for _, s in covers):
            sb.add(x)
    out = set()
    for x in sb:
        out.update(bits(p.down[x]))
    for x in members:
        if all(p.dims[y] <= n for y in members if (p.down[y] >> x) & 1):
            out.add(x)
    return out


def test_boundary_matches_bruteforce_on_simplex3():
    w = simplex(3).whole()
    for n in range(3):
        for sign in (-1, +1):
            assert set(w.boundary(sign, n).elements()) == \
                _sbord_oracle(w, sign, n)


def test_is_pure():
    o1 = globe(1)
    # a floating extra point next to an arrow
    recs = [{"dim": 0, "minus": [], "plus": []},
            {"dim": 0, "minus": [], "plus": []},
            {"dim": 0, "minus": [], "plus": []},
            {"dim": 1, "minus": [0], "plus": [1]}]
    p = OgPoset.from_records(recs)
    assert not p.whole().is_pure
    assert o1.whole().is_pure
    assert ClosedSubset(o1, 0).is_pure  # vacuous


def test_apply_map():
    o1 = globe(1)
    tau = globe_tau(1, 0)
    assert PosetMap.identity(o1).image(o1.whole()).mask == o1.all_mask
    assert sorted(tau.image(o1.whole()).elements()) == [0]
    a2 = folding_a(2)
    d2 = simplex(2)
    img = a2.image(d2.closure([simplex_index((1, 0, 1))]))
    assert img.mask == globe(2).closure([globe_element(2, 1, -1)]).mask


def test_find_isomorphism_is_identity_on_molecules(corpus_members):
    for name, p in corpus_members:
        iso = find_isomorphism(p, p)
        assert iso is not None and iso.assignment == tuple(range(p.size)), name


def test_find_isomorphism_is_not_bounded_by_the_recursion_limit():
    # one search position per element: 1,801 is past the default limit
    g = globe(600)
    iso = find_isomorphism(g, OgPoset.from_json(g.to_json()))
    assert iso is not None and iso.assignment == tuple(range(g.size))


def test_find_isomorphism_negative():
    assert find_isomorphism(globe(2), simplex(2)) is None
    # both are the arrow, up to the vertex relabelling of the simplex order
    iso = find_isomorphism(globe(1), simplex(1))
    assert iso is not None and iso(2) == 2


def _iso_by_reference(p: OgPoset, q: OgPoset) -> Optional[PosetMap]:
    """The isomorphism search that ``_match`` replaced, as the oracle.

    Backtracking over elements in decreasing dimension, pruned by degree
    profiles and by the images of already-matched cofaces.  Complete, but
    factorial on a relabelled path: every arrow is placed before anything
    constrains it.
    """
    if p.size != q.size or p.dim != q.dim:
        return None

    def profile(poset, i):
        return (poset.faces_minus[i].bit_count(),
                poset.faces_plus[i].bit_count(),
                poset.cofaces_minus[i].bit_count(),
                poset.cofaces_plus[i].bit_count())

    p_prof = [profile(p, i) for i in range(p.size)]
    q_prof = [profile(q, i) for i in range(q.size)]
    for d in range(p.dim + 1):
        if sorted(p_prof[i] for i in bits(p.dim_mask(d))) != \
           sorted(q_prof[i] for i in bits(q.dim_mask(d))):
            return None

    order = sorted(range(p.size), key=lambda i: (-p.dims[i], i))
    assign: list[Optional[int]] = [None] * p.size
    used = [False] * q.size

    def candidates(x):
        cand = None
        for sign, cof in ((-1, p.cofaces_minus[x]), (+1, p.cofaces_plus[x])):
            for y in bits(cof):
                fy = assign[y]
                if fy is not None:
                    faces = (q.faces_minus[fy] if sign < 0
                             else q.faces_plus[fy])
                    cand = faces if cand is None else cand & faces
        if cand is None:
            cand = q.dim_mask(p.dims[x])
        return [c for c in bits(cand)
                if not used[c] and q_prof[c] == p_prof[x]
                and q.dims[c] == p.dims[x]]

    tries: list[Iterator[int]] = []
    pos = 0
    while pos < len(order):
        x = order[pos]
        if assign[x] is None:
            tries.append(iter(candidates(x)))
        else:
            used[assign[x]] = False
        assign[x] = c = next(tries[-1], None)
        if c is None:
            tries.pop()
            if not tries:
                return None
            pos -= 1
        else:
            used[c] = True
            pos += 1
    f = PosetMap(p, q, tuple(assign))
    return f if f.preserves_faces_exactly() else None


def relabelled(p: OgPoset, data) -> OgPoset:
    """p rebuilt through ``from_records`` with the elements of each
    dimension in a drawn order."""
    order = []
    for d in range(p.dim + 1):
        order += data.draw(st.permutations(list(p.elements_of_dim(d))))
    new = {old: i for i, old in enumerate(order)}
    return OgPoset.from_records([
        (p.dims[old], [new[j] for j in bits(p.faces_minus[old])],
         [new[j] for j in bits(p.faces_plus[old])]) for old in order])


def _is_isomorphism(f) -> bool:
    return f.is_injective and f.is_surjective and f.preserves_faces_exactly()


@settings(max_examples=300, deadline=None)
@given(p=_oriented_graded_posets(), q=_oriented_graded_posets(),
       data=st.data())
def test_find_isomorphism_agrees_with_the_reference(p, q, data):
    # a relabelled copy always matches; an independent poset matches
    # exactly when the reference finds a map
    for other in (relabelled(p, data), q):
        f = find_isomorphism(p, other)
        assert (f is None) == (_iso_by_reference(p, other) is None)
        assert f is None or _is_isomorphism(f)
    assert find_isomorphism(p, relabelled(p, data)) is not None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_find_isomorphism_is_the_unique_map_on_corpus_molecules(
        corpus_members, data):
    # molecules have no nontrivial automorphisms, so both searches must
    # return the same map, however the copy is numbered
    _, p = data.draw(st.sampled_from(
        [m for m in corpus_members if m[1].size <= 80]))
    q = relabelled(p, data)
    f, g = find_isomorphism(p, q), _iso_by_reference(p, q)
    assert f is not None and g is not None
    assert f.assignment == g.assignment


def _match_pairs(p: OgPoset, copy: OgPoset) -> list:
    """The (a, b) pairs of closed subsets that the shape property matches:
    p and each of its k-boundaries with the same one of ``copy``, and with
    the same mask in ``op(p)`` (numbered as p, only signs differ), and
    bd+_k p with bd-_k ``copy``, which ``paste(p, copy, k)`` matches."""
    r = op(p)
    pairs = [(p.whole(), copy.whole())] + [
        (p.whole().boundary(s, k), copy.whole().boundary(s, k))
        for k in range(p.dim) for s in (-1, 1)]
    return (pairs + [(a, ClosedSubset(r, a.mask)) for a, _ in pairs]
            + [(p.whole().boundary(+1, k), copy.whole().boundary(-1, k))
               for k in range(p.dim)])


def _check_match(a: ClosedSubset, b: ClosedSubset) -> None:
    """``_match(a, b)`` finds an isomorphism exactly when its search does
    with the shape shortcut disabled; when the shapes agree on a molecule,
    which has no nontrivial automorphism, both give the same map; and the
    map it returns and the inverse both pass ``PosetMap.check``."""
    got = _match(a, b)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ogposet, "_shape", lambda p, mask: object())  # never equal
        searched = _match(a, b)
    assert (got is None) == (searched is None)
    if got is None:
        return
    if (len(a) == len(b) and is_molecule(a) is not None
            and ogposet._shape(a.parent, a.mask)
            == ogposet._shape(b.parent, b.mask)):
        assert got == searched
    (pa, ia), (pb, ib) = a.extract(), b.extract()
    back = {y: j for j, y in enumerate(ib.assignment)}
    there = [back[got[x]] for x in ia.assignment]
    inverse = [0] * pb.size
    for i, j in enumerate(there):
        inverse[j] = i
    assert PosetMap(pa, pb, tuple(there)).is_valid()
    assert PosetMap(pb, pa, tuple(inverse)).is_valid()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_shape_shortcut_is_the_searched_isomorphism(corpus_members, data):
    # the copy is identical or relabelled within each dimension, so the
    # shortcut and the search both get their turn
    _, p = data.draw(st.sampled_from(corpus_members + list(_pool())))
    same = OgPoset(p.dims, p.faces_minus, p.faces_plus)
    copy = data.draw(st.sampled_from([same, relabelled(p, data)]))
    for a, b in _match_pairs(p, copy):
        _check_match(a, b)


def test_shape_shortcut_needs_as_many_members():
    # a vertex after the others and under nothing leaves the face numbers
    # alone, so only the member count that leads the shape tells them apart
    q = OgPoset((0, 0, 0, 1), (0, 0, 0, 0b001), (0, 0, 0, 0b010))
    assert _shape(q, q.all_mask) != _shape(globe(1), globe(1).all_mask)
    assert _match(globe(1).whole(), q.whole()) is None
    assert find_isomorphism(globe(1), q) is None


def test_shape_shortcut_needs_closed_masks():
    # with vertices 3 and 4 swapped, the mask of bd-_1 is not closed in the
    # copy: its arrow 11 has face 3 there, outside the mask, and the shape
    # gives that face the number that vertex 4 gets in p
    p = dict(_pool())["join-simplex2-globe1"]
    swap = {3: 4, 4: 3}

    def swapped(m):
        return sum(1 << swap.get(i, i) for i in bits(m))
    copy = OgPoset(p.dims, [swapped(m) for m in p.faces_minus],
                   [swapped(m) for m in p.faces_plus])
    a = p.whole().boundary(-1, 1)
    b = ClosedSubset(copy, a.mask)
    assert list(a.elements()) == [1, 4, 11]
    assert _shape(p, a.mask) == _shape(copy, b.mask)
    assert copy.closure_mask(b.mask) != b.mask
    assert _match(a, b) is None


def test_shape_shortcut_needs_the_signs(corpus_members, monkeypatch):
    # a shape that lists faces without their signs matches an arrow onto
    # its reverse in order, which is no map
    def sign_blind(p, a):
        shape = []
        for i in bits(a & p._above[0]):
            shape += [(a & f - 1).bit_count()
                      for f in map((1).__lshift__,
                                   bits(p.faces_minus[i] | p.faces_plus[i]))]
            shape.append(-1)
        return shape

    monkeypatch.setattr(ogposet, "_shape", sign_blind)
    failed = 0
    for _, p in corpus_members + list(_pool()):
        for a, b in _match_pairs(p, OgPoset(p.dims, p.faces_minus,
                                            p.faces_plus)):
            try:
                _check_match(a, b)
            except AssertionError:
                failed += 1
    assert failed


def test_subset_order_checks_the_parent():
    # the masks are 0b1 and 0b111, but of different posets
    with pytest.raises(ValueError, match="different posets"):
        ClosedSubset(globe(1), 1) <= ClosedSubset(simplex(2), 7)
    assert ClosedSubset(globe(1), 1) <= globe(1).whole()
    assert not globe(1).whole() <= ClosedSubset(globe(1), 1)


@pytest.mark.parametrize("op", ["__and__", "__or__", "__sub__"])
def test_subset_operations_check_the_parent(op):
    # a raise, not an assert: pytest.raises(ValueError) lets an
    # AssertionError through, and python -O would strip it
    a, b = globe(1).whole(), globe(2).whole()
    with pytest.raises(ValueError, match="different posets"):
        getattr(a, op)(b)
    assert getattr(a, op)(a).mask == (0 if op == "__sub__" else a.mask)


def test_maps_preserve_boundaries_on_corpus_maps():
    checked = [globe_tau(3, 1), folding_a(3),
               PosetMap.identity(simplex(2))]
    for f in checked:
        f.check()


def _map_law_by_reference(f):
    """The first failure of the map law as ``PosetMap.check`` words it, or
    None: one ``boundary`` call per element, side, sign and n, n ascending
    and - before +."""
    s, t = f.source, f.target
    for i in range(s.size):
        cl_i = ClosedSubset(s, s.down[i])
        img_cl = ClosedSubset(t, t.down[f(i)])
        for n in range(s.dims[i] + 1):
            for sign in (-1, +1):
                lhs = img_cl.boundary(sign, n).mask
                rhs = f.image_mask(cl_i.boundary(sign, n).mask)
                if lhs != rhs:
                    return (f"element {i}: boundary({'-' if sign < 0 else '+'}"
                            f", {n}) not preserved")
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_map_law_matches_its_reference(corpus_members, data):
    # a map between small atoms, or any function between them, with up to
    # two images redrawn: the law passes, fails late, or fails at once
    atoms = [p for _, p in corpus_members
             if p.size <= 15 and p.whole().greatest() is not None]
    u, v = data.draw(st.sampled_from(atoms)), data.draw(st.sampled_from(atoms))
    maps = enumerate_maps(u, v)
    if maps and data.draw(st.booleans()):
        assign = list(data.draw(st.sampled_from(maps)).assignment)
    else:
        assign = [data.draw(st.integers(0, v.size - 1)) for _ in range(u.size)]
    for _ in range(data.draw(st.integers(0, 2))):
        assign[data.draw(st.integers(0, u.size - 1))] = \
            data.draw(st.integers(0, v.size - 1))
    f = PosetMap(u, v, tuple(assign))
    want = _map_law_by_reference(f)
    if want is None:
        f.check()
    else:
        with pytest.raises(InvalidMap) as err:
            f.check()
        assert str(err.value) == want


def test_inclusions_preserve_dim_and_orientation():
    bd, incl = simplex(3).whole().boundary().extract()
    assert incl.preserves_faces_exactly()
    assert incl.kind == "inclusion"


def test_map_kinds():
    o1 = globe(1)
    for m, kind in ((PosetMap.identity(o1), "isomorphism"),
                    (globe_tau(1, 0), "surjection"),
                    (PosetMap(o1, o1, (0, 0, 0)), "general")):
        assert repr(m) == f"PosetMap(3->{m.target.size}, {kind})"


def test_map_constructor_refusals():
    o0, o1 = globe(0), globe(1)
    with pytest.raises(InvalidMap, match="assignment length"):
        PosetMap(o0, o0, ())
    # a float image built, printed as an isomorphism and failed in check()
    for image in (1, -1, 0.0, True, "0", None):
        with pytest.raises(IndexOutOfRange, match="image index"):
            PosetMap(o0, o0, (image,))
    with pytest.raises(InvalidMap, match="composition mismatch"):
        PosetMap.identity(o0).then(PosetMap.identity(o1))


def test_dim_mask_outside_the_dimensions_is_empty():
    o1 = globe(1)
    assert [o1.dim_mask(d) for d in (-1, 0, 1, 2)] == [0, 0b11, 0b100, 0]
    assert list(o1.elements_of_dim(5)) == []


def test_subset_meet_repr_and_truth():
    o2 = globe(2)
    a = o2.closure([globe_element(2, 1, -1)])
    b = o2.closure([globe_element(2, 1, +1)])
    assert (a & b).mask == o2.dim_mask(0)
    assert repr(a & b) == "ClosedSubset([0, 1])"
    assert a and not ClosedSubset(o2, 0)  # truth is the member count


def test_poset_equality_with_other_types():
    assert globe(0).__eq__(0) is NotImplemented
    assert globe(0) != 0 and globe(0) == OgPoset.point()


def test_json_roundtrip_byte_identical(corpus_members):
    for name, p in corpus_members[:10]:
        text = p.to_json()
        assert OgPoset.from_json(text).to_json() == text, name


def test_concurrent_values_are_immutable():
    p = globe(2)
    with pytest.raises(AttributeError):
        p.new_field = 1  # __slots__ forbids ad-hoc mutation


def test_closure_idempotent_monotone_and_bounds_boundary(corpus_members):
    for name, p in corpus_members[:12]:
        w = p.whole()
        tops = w.maximal()
        sub = p.closure(tops[: max(1, len(tops) // 2)])
        again = p.closure(sub.elements())
        assert again.mask == sub.mask, name            # idempotent
        bigger = p.closure(tops)
        assert sub.mask & ~bigger.mask == 0, name      # monotone
        for n in range(-1, sub.dim + 1):
            for sign in (-1, +1, None):
                assert sub.boundary(sign, n).mask & ~sub.mask == 0, name


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mask_kernels_match_definitions(corpus_members, data):
    _, p = data.draw(st.sampled_from(corpus_members))
    u = p.closure(data.draw(st.lists(st.integers(0, p.size - 1), max_size=6)))
    mask = u.mask
    maximal = [i for i in bits(mask) if not p.cofaces(i) & mask]
    assert u.maximal() == maximal
    assert u.greatest() == (maximal[0] if len(maximal) == 1 else None)
    raw = data.draw(st.integers(0, p.all_mask))
    closure = 0
    for i in bits(raw):
        closure |= p.down[i]
    assert p.closure_mask(raw) == closure
    for d in range(-2, p.dim + 2):
        assert p.mask_above(d) == sum(1 << i for i in range(p.size)
                                      if p.dims[i] > d)
    for x in maximal:
        cl = p.down[x]
        for k in range(p.dims[x]):
            # dim-k members of cl{x} covered with a + (not_in) or a -
            # (not_out) edge from inside cl{x}
            not_in = not_out = 0
            for y in bits(cl):
                for z in bits(p.faces_plus[y]):
                    if p.dims[z] == k:
                        not_in |= 1 << z
                for z in bits(p.faces_minus[y]):
                    if p.dims[z] == k:
                        not_out |= 1 << z
            outs = ClosedSubset(p, cl).boundary(+1, k).mask & p.dim_mask(k)
            assert outs == cl & p.dim_mask(k) & ~not_out
            reach = 0
            for y in range(p.size):
                if cl >> y & 1 and p.dims[y] >= k and not outs >> y & 1:
                    reach |= 1 << y
                if p.faces_plus[y] & outs:
                    reach |= 1 << y
            assert molecule._split_row(p, x)[k] == (not_in, not_out, reach)


def _split_row_by_member(p, x):
    """The split rows of x by a loop over every member of cl{x}, each
    asking its own coface masks: the form they had before they were read
    off the boundary kernel."""
    cl, row = p.down[x], []
    for d in range(p.dims[x]):
        not_in = not_out = up = 0
        for z in bits(cl & p.dim_mask(d)):
            if p.cofaces_plus[z] & cl:
                not_in |= 1 << z
            if p.cofaces_minus[z] & cl:
                not_out |= 1 << z
            else:
                up |= p.cofaces_plus[z]
        row.append((not_in, not_out, cl & p.mask_above(d) | not_out | up))
    return tuple(row)


def test_split_rows_match_the_member_loop(corpus_members):
    named = corpus_members + list(_pool()) + [
        ("simplex5", simplex(5)), ("cube4", cube(4)),
        ("gray-simplex2-globe2", gray(simplex(2), globe(2)))]
    for name, p in named:
        fresh = OgPoset(p.dims, p.faces_minus, p.faces_plus)
        for x in range(p.size):
            assert molecule._split_row(fresh, x) \
                == _split_row_by_member(p, x), (name, x)


def _boundary_by_element(u, sign=None, n=None):
    """The boundary by its definition, cl(Delta) | cl(Max_<n): one loop over
    the dim-n members, each asking its own coface masks whether the subset
    covers it with a - or a + edge, and one over the maximal members below
    dimension n."""
    p = u.parent
    if n is None:
        n = u.dim - 1
    if n >= u.dim:
        return u.mask
    sb = 0
    if n >= 0:
        for i in bits(u.mask & p.dim_mask(n)):
            no_minus = not (p.cofaces_minus[i] & u.mask)
            no_plus = not (p.cofaces_plus[i] & u.mask)
            if (sign is None and (no_minus or no_plus)) \
                    or (sign == +1 and no_minus) \
                    or (sign == -1 and no_plus):
                sb |= p.down[i]
    for i in bits(u.mask & ~p.mask_above(n - 1)):
        if not p.cofaces(i) & u.mask:
            sb |= p.down[i]
    return sb


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_boundary_kernel_matches_per_element_loop(corpus_members, data):
    _, p = data.draw(st.sampled_from(corpus_members))
    u = p.closure(data.draw(st.lists(st.integers(0, p.size - 1), max_size=6)))
    for sign in (-1, +1, None):
        assert u.boundary(sign).mask == _boundary_by_element(u, sign)
        for n in range(-1, u.dim + 1):
            m = u.boundary(sign, n).mask
            assert m == _boundary_by_element(u, sign, n), (sign, n)
            assert p.closure_mask(m) == m, (sign, n)


def test_boundary_of_a_non_pure_subset_is_closed():
    # 17 is a maximal edge whose vertex 7 also lies under the 3-cell 43
    p = gray(cube(2), paste(globe(1), globe(1), 0).whole)
    b = p.closure([43, 17]).boundary(-1, 2)
    assert 17 in b and 7 in b
    assert p.closure_mask(b.mask) == b.mask
    assert is_regular_complex(b)
    assert homology(b) == homology(nerve(b))
    # random subsets rarely hit this case, so try every pair of elements
    for x in range(p.size):
        for y in range(x + 1, p.size):
            u = p.closure([x, y])
            for sign in (-1, +1, None):
                for n in range(-1, u.dim + 1):
                    m = u.boundary(sign, n).mask
                    assert p.closure_mask(m) == m, (x, y, sign, n)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_boundaries_are_both_signs_of_boundary(corpus_members, data):
    # corpus closures, unions of two closures (non-pure, so the part under
    # nothing of higher dimension is not empty) and random posets, whose
    # atoms are mostly no cells
    source = data.draw(st.sampled_from(["closure", "union", "random"]))
    if source == "random":
        p = data.draw(_oriented_graded_posets())
    else:
        p = data.draw(st.sampled_from(corpus_members))[1]
    pick = st.lists(st.integers(0, p.size - 1), max_size=6)
    u = p.closure(data.draw(pick))
    if source == "union":
        u = u | p.closure(data.draw(pick))
    got = u.boundaries()
    assert got == [(u.boundary(-1, k).mask, u.boundary(+1, k).mask)
                   for k in range(u.dim)]
    for k, (minus, plus) in enumerate(got):
        assert (minus, plus) == (_boundary_by_element(u, -1, k),
                                 _boundary_by_element(u, +1, k)), k
        assert p.closure_mask(minus) == minus
        assert p.closure_mask(plus) == plus


def _validate_by_loops(dims, fm, fp):
    """Every construction check as a separate loop over the elements, in
    the order the checks take precedence."""
    n = len(dims)
    for i in range(n - 1):
        if dims[i] > dims[i + 1]:
            raise InvalidStructure(
                "elements must be sorted by dimension; "
                "use OgPoset.from_records for raw input")
    for i, d in enumerate(dims):
        if d < 0:
            raise InvalidStructure(f"element {i} has negative dimension")
    for i in range(n):
        if fm[i] & fp[i]:
            j = next(bits(fm[i] & fp[i]))
            raise OrientationClash(
                f"element {i} lists {j} as both a - and a + face")
        if (fm[i] | fp[i]) >> n:
            raise IndexOutOfRange(f"element {i} has a face out of range")
        for j in bits(fm[i] | fp[i]):
            if dims[j] != dims[i] - 1:
                raise FaceDimMismatch(
                    f"element {i} (dim {dims[i]}) has face {j} "
                    f"of dim {dims[j]}")
    for i in range(n):
        if dims[i] and not (fm[i] | fp[i]):
            raise NotGraded(
                f"element {i}: stored dim {dims[i]} but longest "
                f"chain has length 0")


_MUTATIONS = ("flip", "out_of_range", "wrong_dim", "clash", "faceless",
              "unsorted", "negative")


def _mutate(kind, draw, dims, fm, fp):
    n = len(dims)
    i = draw(st.integers(0, n - 1))
    if kind == "flip":
        j = draw(st.integers(0, n - 1))
        table = fm if draw(st.booleans()) else fp
        table[i] ^= 1 << j
    elif kind == "out_of_range":
        fm[i] |= 1 << draw(st.integers(n, n + 3))
    elif kind == "wrong_dim":
        wrong = [j for j in range(n) if dims[j] != dims[i] - 1]
        if wrong:
            fp[i] |= 1 << draw(st.sampled_from(wrong))
    elif kind == "clash":
        j = draw(st.integers(0, n - 1))
        fm[i] |= 1 << j
        fp[i] |= 1 << j
    elif kind == "faceless":
        positive = [j for j in range(n) if dims[j] > 0]
        if positive:
            j = draw(st.sampled_from(positive))
            fm[j] = fp[j] = 0
    elif kind == "unsorted":
        j = draw(st.integers(0, n - 1))
        dims[i], dims[j] = dims[j], dims[i]
    else:
        dims[i] = -draw(st.integers(1, 2))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_construction_raises_what_the_check_loops_raise(corpus_members, data):
    _, p = data.draw(st.sampled_from(corpus_members))
    dims, fm, fp = list(p.dims), list(p.faces_minus), list(p.faces_plus)
    for kind in data.draw(st.lists(st.sampled_from(_MUTATIONS),
                                   min_size=1, max_size=3)):
        _mutate(kind, data.draw, dims, fm, fp)
    try:
        _validate_by_loops(dims, fm, fp)
        expected = None
    except InvalidStructure as exc:
        expected = (type(exc), str(exc))
    try:
        q = OgPoset(dims, fm, fp)
        got = None
    except InvalidStructure as exc:
        got = (type(exc), str(exc))
    assert got == expected
    if got is None:
        for i in range(q.size):
            assert q.cofaces_minus[i] == sum(
                1 << y for y in range(q.size) if fm[y] >> i & 1)
            assert q.cofaces_plus[i] == sum(
                1 << y for y in range(q.size) if fp[y] >> i & 1)
            closure = 1 << i
            for j in bits(fm[i] | fp[i]):
                closure |= q.down[j]
            assert q.down[i] == closure


def test_construction_check_precedence():
    # a clash, a face out of range and a faceless 2-cell at once: the
    # element order decides first, and gradedness is reported last
    with pytest.raises(OrientationClash, match="element 2 lists 0"):
        OgPoset((0, 0, 1, 2), (0, 0, 0b01, 0), (0, 0, 0b11, 0))
    with pytest.raises(IndexOutOfRange, match="element 3"):
        OgPoset((0, 0, 2, 2), (0, 0, 0, 1 << 9), (0, 0, 0, 0))
    with pytest.raises(NotGraded, match="element 2"):
        OgPoset((0, 0, 2, 2), (0, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(InvalidStructure, match="sorted by dimension"):
        OgPoset((-1, 1, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(InvalidStructure, match="element 0 has negative"):
        OgPoset((-1, 0, 1), (0, 0, 0), (0, 0, 0))
    with pytest.raises(InvalidStructure, match="differ in length"):
        OgPoset((0, 0), (0, 0), (0,))


def _rec(d, minus, plus):
    return {"dim": d, "minus": minus, "plus": plus}


# records with two faults each, and the one refusal they get: type faults
# in any record come before faces out of range, which come in sorted order,
# before the element checks; within an element a clash comes first, a face
# out of range before a face of the wrong dimension, and a face-less
# element of positive dimension is reported last
_MULTI_FAULTS = {
    "type-after-range": ([_rec(0, [], [5]), _rec(0, ["x"], [])],
                         InvalidStructure,
                         "record 1: faces must be a list of integers"),
    "dim-after-range": ([_rec(0, [7], []), _rec(-1, [], [])],
                        InvalidStructure,
                        "record 1: dim must be a non-negative integer"),
    "key-after-range": ([_rec(0, [], [7]), {"dim": 0, "minus": []}],
                        InvalidStructure, "record 1 lacks plus"),
    "two-ranges-unsorted": ([_rec(1, [7], [1]), _rec(0, [], []),
                             _rec(0, [], [-3])],
                            IndexOutOfRange, "face index -3 out of range"),
    "two-ranges-sorted": ([_rec(0, [], [7]), _rec(0, [-3], [])],
                          IndexOutOfRange, "face index 7 out of range"),
    "clash-and-mismatch": ([_rec(0, [], []), _rec(0, [], []),
                            _rec(1, [0], [1]), _rec(2, [0], [0, 2])],
                           OrientationClash,
                           "element 3 lists 0 as both a - and a + face"),
    "clash-and-mismatch-unsorted": ([_rec(2, [3], [3, 2]), _rec(0, [], []),
                                     _rec(1, [1], [3]), _rec(0, [], [])],
                                    OrientationClash,
                                    "element 3 lists 1 as both a - and a + "
                                    "face"),
    "clash-and-range": ([_rec(0, [], []), _rec(1, [0], [0, 4])],
                        IndexOutOfRange, "face index 4 out of range"),
    "faceless-then-mismatch": ([_rec(0, [], []), _rec(1, [], []),
                                _rec(1, [1], [0])],
                               FaceDimMismatch,
                               "element 2 (dim 1) has face 1 of dim 1"),
    "faceless-then-jump": ([_rec(0, [], []), _rec(1, [], []),
                            _rec(3, [0], [])],
                           FaceDimMismatch,
                           "element 2 (dim 3) has face 0 of dim 0"),
    "faceless-then-clash": ([_rec(0, [], []), _rec(2, [], []),
                             _rec(1, [0], [0])],
                            OrientationClash,
                            "element 1 lists 0 as both a - and a + face"),
    "non-list-beside-bad-face": ([_rec(0, [], []), _rec(1, "0", [9])],
                                 InvalidStructure,
                                 "record 1: faces must be a list of integers"),
    "bad-face-beside-non-list": ([_rec(0, [], []), _rec(1, [9], 5)],
                                 InvalidStructure,
                                 "record 1: faces must be a list of integers"),
    "bool-beside-bad-face": ([_rec(0, [], []), _rec(1, [True], [-1])],
                             InvalidStructure,
                             "record 1: faces must be a list of integers"),
    "non-list-in-a-triple": ([(0, [], []), (1, [0], None)],
                             InvalidStructure,
                             "record 1: faces must be a list of integers"),
    # face tables, past the parser
    "range-beats-a-lower-mismatch": (((0, 1, 1), (0, 0, 0b10 | 1 << 9),
                                      (0, 0, 0)),
                                     IndexOutOfRange,
                                     "element 2 has a face out of range"),
    "mismatch-before-range": (((0, 1, 1), (0, 0b10, 1 << 9), (0, 0, 0)),
                              FaceDimMismatch,
                              "element 1 (dim 1) has face 1 of dim 1"),
    "faceless-then-range": (((0, 1, 1), (0, 0, 1 << 5), (0, 0, 0)),
                            IndexOutOfRange,
                            "element 2 has a face out of range"),
}


@pytest.mark.parametrize("records, exc, message", _MULTI_FAULTS.values(),
                         ids=_MULTI_FAULTS)
def test_multi_fault_refusal_precedence(records, exc, message):
    with pytest.raises(InvalidStructure) as info:
        if isinstance(records, tuple):
            OgPoset(*records)
        else:
            OgPoset.from_records(records)
    assert (type(info.value), str(info.value)) == (exc, message)


def test_huge_stored_dimension_is_refused_without_tables():
    # no graded poset of n elements has dimension n or more, and a file
    # may claim any dimension: refusing it must not cost memory in
    # proportion to the claim (at 3 * 10^6 its tables took over 70 MB)
    cases = [
        ([{"dim": 3_000_000, "minus": [], "plus": []}],
         NotGraded, "element 0: stored dim 3000000"),
        ([{"dim": 0, "minus": [], "plus": []},
          {"dim": 3_000_000, "minus": [0], "plus": []}],
         FaceDimMismatch, "element 1 \\(dim 3000000\\) has face 0 of dim 0"),
        ([{"dim": 0, "minus": [], "plus": []},
          {"dim": 3_000_000, "minus": [0], "plus": [0]}],
         OrientationClash, "element 1 lists 0"),
    ]
    tracemalloc.start()
    try:
        for records, exc, message in cases:
            with pytest.raises(exc, match=message):
                OgPoset.from_json(json.dumps({"elements": records}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _from_records_reference(records):
    """The parser as it was first written: every record checked, then the
    face indices range-checked and turned into masks in separate passes."""
    rows = []
    for i, rec in enumerate(records):
        if isinstance(rec, dict):
            missing = {"dim", "minus", "plus"} - rec.keys()
            if missing:
                raise InvalidStructure(
                    f"record {i} lacks {', '.join(sorted(missing))}")
            row = (rec["dim"], rec["minus"], rec["plus"])
        elif isinstance(rec, (list, tuple)) and len(rec) == 3:
            row = tuple(rec)
        else:
            raise InvalidStructure(
                f"record {i} is neither a mapping nor a triple")
        d, m, p = row
        if type(d) is not int or d < 0:
            raise InvalidStructure(
                f"record {i}: dim must be a non-negative integer")
        for faces in (m, p):
            if not (isinstance(faces, (list, tuple))
                    and all(type(f) is int for f in faces)):
                raise InvalidStructure(
                    f"record {i}: faces must be a list of integers")
        rows.append(row)
    n = len(rows)
    order = sorted(range(n), key=lambda i: rows[i][0])
    newpos = [0] * n
    for new, old in enumerate(order):
        newpos[old] = new
    dims, fm, fp = [], [], []
    for old in order:
        d, m, p = rows[old]
        dims.append(d)
        for face in list(m) + list(p):
            if not (0 <= face < n):
                raise IndexOutOfRange(f"face index {face} out of range")
        fm.append(sum(1 << newpos[j] for j in set(m)))
        fp.append(sum(1 << newpos[j] for j in set(p)))
    return OgPoset(dims, fm, fp)


# element records as a JSON file may hold them: mappings, triples, mappings
# that lack a key and other values, with dims and faces of any sign or type
_DIM = st.one_of(st.integers(-1, 3), st.booleans(), st.just("1"))
_FACES = st.one_of(st.lists(st.integers(-1, 5), max_size=3), st.just("0"),
                   st.lists(st.one_of(st.booleans(), st.none()), max_size=1))
_RECORDS = st.lists(st.one_of(
    st.fixed_dictionaries({"dim": _DIM, "minus": _FACES, "plus": _FACES}),
    st.tuples(_DIM, _FACES, _FACES).map(list),
    st.dictionaries(st.sampled_from(["dim", "minus", "plus"]),
                    st.one_of(_DIM, _FACES), max_size=2),
    st.one_of(st.none(), st.integers(-1, 5), st.lists(_DIM, max_size=4))),
    max_size=7)


@settings(max_examples=200, deadline=None)
@given(records=_RECORDS)
def test_any_records_give_a_poset_or_invalid_structure(records):
    try:
        p = OgPoset.from_records(records)
    except InvalidStructure:
        return
    assert OgPoset.from_json(p.to_json()) == p


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_json_round_trip_gives_the_poset_back(corpus_members, data):
    p = data.draw(st.one_of(st.sampled_from([q for _, q in corpus_members]),
                            _oriented_graded_posets()))
    text = p.to_json()
    assert OgPoset.from_json(text) == p
    assert OgPoset.from_json(text).to_json() == text


_RECORD_FAULTS = ("none", "missing_key", "out_of_range", "negative_face",
                  "bool", "string_dim", "duplicate_face")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_from_records_matches_the_reference_parser(corpus_members, data):
    # a valid poset's records, in canonical order or shuffled, as mappings
    # or triples, with one fault: both parsers build the same poset or
    # raise the same error
    p = data.draw(st.sampled_from(corpus_members))[1]
    n = p.size
    perm = data.draw(st.permutations(range(n)) if data.draw(st.booleans())
                     else st.just(range(n)))
    recs = [None] * n
    for i, rec in enumerate(p.to_json_obj()["elements"]):
        recs[perm[i]] = {"dim": rec["dim"],
                         "minus": [perm[j] for j in rec["minus"]],
                         "plus": [perm[j] for j in rec["plus"]]}
    fault = data.draw(st.sampled_from(_RECORD_FAULTS))
    rec = recs[data.draw(st.integers(0, n - 1))]
    key = data.draw(st.sampled_from(["minus", "plus"]))
    at = data.draw(st.integers(0, len(rec[key])))
    if fault == "missing_key":
        del rec[data.draw(st.sampled_from(["dim", "minus", "plus"]))]
    elif fault == "out_of_range":
        rec[key].insert(at, n + data.draw(st.integers(0, 3)))
    elif fault == "negative_face":
        rec[key].insert(at, -data.draw(st.integers(1, n + 1)))
    elif fault == "bool":
        if data.draw(st.booleans()):
            rec["dim"] = data.draw(st.booleans())
        else:
            rec[key].insert(at, data.draw(st.booleans()))
    elif fault == "string_dim":
        rec["dim"] = str(rec["dim"])
    elif fault == "duplicate_face" and rec[key]:
        rec[key].insert(at, data.draw(st.sampled_from(rec[key])))
    if data.draw(st.booleans()):
        recs = [(r["dim"], r["minus"], r["plus"]) if len(r) == 3 else r
                for r in recs]

    def outcome(parse):
        try:
            return parse(recs).to_json()
        except InvalidStructure as exc:
            return type(exc), str(exc)

    assert outcome(OgPoset.from_records) == outcome(_from_records_reference)
