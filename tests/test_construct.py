import hashlib
import inspect
import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from dircomplex import (
    OgPoset, ClosedSubset, PosetMap, find_isomorphism,
    is_molecule, is_atom, has_spherical_boundary, is_regular_complex,
    paste, paste_along, substitute, celto, compos,
    gray, gray_boundary_check, join, join_boundary_check,
    suspend, dual, op,
    cylinder_quotient, inflate, inflate_map, unitor_shape, reverse_map,
    BoundaryMismatch, NotAMolecule, NotASubmolecule, NotSpherical,
    NotClosed,
    globe, simplex, cube, globe_element, compositor_c, extr, extrtil, phi,
    folding_a,
)
from dircomplex import construct
from dircomplex.construct import (
    amalgamate, gray_with_index, join_with_index, _boundary_iso,
)
from dircomplex.ogposet import bits

from test_ogposet import _iso_by_reference, relabelled

POINT = OgPoset.point()
EMPTY = OgPoset.empty()


# -- pasting ---------------------------------------------------------------


def test_paste_arrows():
    pr = paste(globe(1), globe(1), 0)
    assert pr.whole.size == 5
    assert pr.whole.dim == 1
    assert is_molecule(pr.whole.whole()) is not None
    pr.left_incl.check()
    pr.right_incl.check()


def test_paste_vertical_globes():
    # two 2-cells stacked along their 1-boundary share 3 elements
    pr = paste(globe(2), globe(2), 1)
    assert pr.whole.size == 7
    assert is_molecule(pr.whole.whole()) is not None


def test_paste_boundary_laws():
    pr = paste(globe(2), globe(2), 1)
    w = pr.whole.whole()
    assert w.boundary(-1).mask == \
        pr.left_incl.image(globe(2).whole().boundary(-1)).mask
    assert w.boundary(+1).mask == \
        pr.right_incl.image(globe(2).whole().boundary(+1)).mask


def test_paste_mismatch():
    with pytest.raises(BoundaryMismatch):
        paste(globe(2), paste(globe(1), globe(1), 0).whole, 1)


def test_paste_refuses_negative_k():
    # bd_-1 is empty, so the "pasting" would be a disjoint union
    with pytest.raises(ValueError, match="k = -1"):
        paste(globe(1), globe(1), -1)


def test_paste_deterministic():
    a = paste(globe(2), globe(2), 1).whole
    b = paste(globe(2), globe(2), 1).whole
    assert a.to_json() == b.to_json()


# -- gluing ----------------------------------------------------------------
# globe(1): 0 source vertex, 1 target vertex, 2 edge


def test_amalgamate_refuses_dimension_mismatch():
    with pytest.raises(BoundaryMismatch, match="different dimensions"):
        amalgamate(globe(1), globe(1), {0: 2})


def test_amalgamate_refuses_face_disagreement():
    # the edges are glued but their vertices are not
    with pytest.raises(BoundaryMismatch, match="disagree on their faces"):
        amalgamate(globe(1), globe(1), {2: 2})


def test_amalgamate_refuses_two_elements_onto_one():
    with pytest.raises(BoundaryMismatch, match="two elements"):
        amalgamate(globe(1), globe(1), {0: 0, 1: 0})


def test_amalgamate_numbering():
    # by dimension; the left part first, then the unglued right elements
    pr = paste(globe(1), globe(1), 0)
    assert list(pr.whole.dims) == [0, 0, 0, 1, 1]
    assert pr.left_incl.assignment == (0, 1, 3)
    assert pr.right_incl.assignment == (1, 2, 4)
    assert pr.whole.faces_minus == (0, 0, 0, 0b001, 0b010)
    assert pr.whole.faces_plus == (0, 0, 0, 0b010, 0b100)


def _canonical(x):
    if isinstance(x, OgPoset):
        return x.to_json()
    return json.dumps(x.to_json_obj(), separators=(",", ":"))


def test_glued_outputs_pinned():
    vert2 = paste(globe(2), globe(2), 1).whole
    cell = next(i for i in range(vert2.size) if vert2.dims[i] == 2)
    inf = inflate(cube(3))
    s2 = simplex(2)
    unit, unit_retr = unitor_shape(
        s2, s2.closure([s2.whole().boundary(-1).maximal()[0]]), "left", -1)
    outputs = {
        "68e84eb35144da57f119ea276242eb9aa10aca8cd58032e4810cd7576dc65118":
            compositor_c(4, 1).whole,
        "f8c6e6413f690b423dbcb77b1af03c93a80ae91ddd0318bfef8b6a24f7bd8f92":
            extrtil(0, 4).whole,
        "de7346e2724cd30e07feff4e0d88476e6dc1cd129b5cd12d693ba2e9721f9bcb":
            phi(4).whole,
        "ebfbd315f3175749348399112b59ba956f7a9794cca002dc9c3dec0bed279cac":
            celto(globe(2), vert2).whole,
        "39f475ed5f012f30728dbe5e8dd1a1a70bb71ae3b363b8413664ef3b9b988427":
            substitute(vert2, vert2.closure([cell]), vert2).whole,
        # cylinder quotients: inflations, their towers and maps, a unit
        "b061106ca6a91d64e16f7ab2b3dbbf1a4aa52b8efe829739b4c0db4d037d9bec":
            inf.whole,
        "3d98960f42105d7754133488b89bbc31c1ff1b842b7331bb3589467e5e372635":
            inf.tau,
        "f1020a4d42a51cada25c916559e161b151bd551d8779bc3ae3ccfb96810b02cb":
            extr(1, 3).whole,
        "abcef6ce36dcecc25e0116b3b285abf5eb79f988d6f1d0de448655127fd4a39a":
            inflate_map(folding_a(3)),
        "93737efb5c5b688c3734ee627df108ff716eaf78b701050133289423c9a0a54d":
            unit,
        "005449624d9e60259638123ec73db8ea9816eae3cc8c4adff4a1defd7d198dac":
            unit_retr,
    }
    for digest, x in outputs.items():
        assert hashlib.sha256(_canonical(x).encode()).hexdigest() == digest


def relabelled_path_cells(n: int, seed: int = 0) -> tuple[OgPoset, OgPoset]:
    """Two 2-cells that paste along a path of n arrows, each numbered in a
    seeded shuffle within every dimension: one from a single arrow to the
    path, and the dual of another such cell, from the path to one arrow.

    Every arrow of the path has the same degrees, so a search that places
    all arrows before anything constrains them tries their orderings: the
    search in decreasing dimension took 30 s at n = 10.
    """
    rng = random.Random(seed)

    def cell():
        vs = rng.sample(range(n + 1), n + 1)
        arrows = rng.sample(range(n + 1, 2 * n + 2), n + 1)
        recs = [(0, [], [])] * (2 * n + 3)
        recs[arrows[0]] = (1, [vs[0]], [vs[n]])
        for i in range(1, n + 1):
            recs[arrows[i]] = (1, [vs[i - 1]], [vs[i]])
        recs[-1] = (2, arrows[:1], arrows[1:])
        return OgPoset.from_records(recs)

    return cell(), dual(cell(), [2])


def test_paste_along_a_relabelled_path():
    u, v = relabelled_path_cells(12)
    res = paste(u, v, 1)
    assert res.whole.size == 2 * 12 + 5
    assert res.left_incl.is_valid() and res.right_incl.is_valid()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_boundary_iso_is_the_extracted_match(corpus_members, data):
    # matching in place gives the pairing that copying both boundaries out
    # and matching the copies with the old search gave
    _, p = data.draw(st.sampled_from(
        [m for m in corpus_members if m[1].size <= 80]))
    q = relabelled(p, data)
    for k in range(p.dim):
        for s, t in ((-1, -1), (+1, +1), (-1, +1)):
            a, b = p.whole().boundary(s, k), q.whole().boundary(t, k)
            (pa, ia), (pb, ib) = a.extract(), b.extract()
            ref = _iso_by_reference(pa, pb)
            if ref is None:
                with pytest.raises(BoundaryMismatch):
                    _boundary_iso(a, b)
            else:
                assert _boundary_iso(a, b) == {
                    ia(i): ib(ref(i)) for i in range(pa.size)}


def test_paste_along_whiskering():
    # glue a 2-atom onto one edge of the input boundary of a 2-segment path
    path = paste(globe(1), globe(1), 0).whole
    two = celto(globe(1), path).whole     # 2-atom with 2-segment output
    edge = two.whole().boundary(+1)
    first = min(x for x in edge.elements() if two.dims[x] == 1)
    v = ClosedSubset(two, two.down[first])
    pr = paste_along(globe(2), two, v, +1)
    cert = is_molecule(pr.whole.whole())
    assert cert is not None
    tops = [t for t in pr.whole.whole().maximal()
            if pr.whole.dims[t] == 2]
    assert len(tops) == 2
    # pasting onto a spherical molecule keeps the boundary spherical
    assert has_spherical_boundary(cert)


def test_paste_along_rejects_bad_submolecule():
    two = globe(2)
    v = ClosedSubset(two, two.down[globe_element(2, 0, -1)])  # a point
    with pytest.raises((NotASubmolecule, BoundaryMismatch)):
        paste_along(globe(2), two, v, +1)


def test_paste_names_the_input_that_is_not_a_molecule():
    two_points = OgPoset.from_records([(0, [], []), (0, [], [])])
    with pytest.raises(NotAMolecule) as exc:
        paste(globe(1), two_points, 0)
    assert str(exc.value) == \
        "input complex is not a molecule: maximal elements [0, 1], dim 0"


# -- substitution and cells ----------------------------------------------


def test_substitute_identity_like():
    p = paste(globe(2), globe(2), 1).whole
    cell = next(i for i in range(p.size) if p.dims[i] == 2)
    res = substitute(p, p.closure([cell]), globe(2))
    assert find_isomorphism(res.whole, p) is not None
    res.w_incl.check()


def test_substitute_boundary_stability():
    p = paste(globe(2), globe(2), 1).whole
    cell = next(i for i in range(p.size) if p.dims[i] == 2)
    res = substitute(p, p.closure([cell]), globe(2))
    for sign in (-1, +1):
        a, _ = p.whole().boundary(sign).extract()
        b, _ = res.whole.whole().boundary(sign).extract()
        assert find_isomorphism(a, b) is not None


def test_substitute_middle_arrow():
    p3 = paste(paste(globe(1), globe(1), 0).whole, globe(1), 0).whole
    mid = next(i for i in range(p3.size)
               if p3.dims[i] == 1 and not p3.whole().boundary().mask >> i & 1)
    res = substitute(p3, p3.closure([mid]), globe(1))
    assert find_isomorphism(res.whole, p3) is not None


def test_substitute_requires_spherical():
    p = paste(globe(2), globe(2), 1).whole
    cell = next(i for i in range(p.size) if p.dims[i] == 2)
    bad = paste(globe(2), globe(1), 0).whole  # wrong dimension
    with pytest.raises((BoundaryMismatch, NotSpherical)):
        substitute(p, p.closure([cell]), bad)


def test_substitute_refuses_a_v_it_cannot_replace():
    path = paste(globe(1), globe(1), 0).whole
    for u, v, w, exc, message in (
            (globe(2), globe(1).whole(), globe(2), NotASubmolecule,
             "v must be a subset of u"),
            (globe(1), ClosedSubset(globe(1), 0b11), globe(1),
             NotASubmolecule, "v is not a molecule"),
            (path, path.closure([3]), globe(2), BoundaryMismatch,
             "substitution requires equal dimensions")):
        with pytest.raises(exc, match=message):
            substitute(u, v, w)


def test_substitute_refusals_behind_recognition(monkeypatch):
    # on regular molecules neither refusal can fire: the boundary
    # isomorphisms are unique, and the interior of a submolecule of the
    # same dimension is a face of nothing outside it
    g = globe(2)
    monkeypatch.setattr(construct, "_match", lambda a, b: dict(
        zip(bits(a.mask), reversed(list(bits(b.mask))))))
    with pytest.raises(BoundaryMismatch, match="isomorphisms disagree"):
        substitute(g, g.whole(), g)
    monkeypatch.undo()
    # arrows 2..5 from 0 to 1; cells 6: 2 => 3, 7: 3 => 4 and 8: 3 => 5, so
    # that 3, inside v = cl{6, 7}, is a face of 8 too; u is no molecule,
    # and recognition is made to read it as v
    u = OgPoset.from_records(
        [(0, [], []), (0, [], [])] + [(1, [0], [1])] * 4
        + [(2, [2], [3]), (2, [3], [4]), (2, [3], [5])])
    v = u.closure([6, 7])
    recognize = construct.is_molecule
    monkeypatch.setattr(construct, "is_molecule", lambda s: recognize(
        v if s.mask == u.all_mask else s))
    with pytest.raises(NotASubmolecule, match="interior is not closed"):
        substitute(u, v, g)


def test_celto_builds_globes():
    assert celto(POINT, POINT).whole == globe(1)
    assert celto(globe(1), globe(1)).whole == globe(2)
    assert celto(globe(2), globe(2)).whole == globe(3)


def test_celto_compositor_size():
    pr = paste(globe(2), globe(2), 1)
    ct = celto(globe(2), pr.whole)
    assert ct.whole.size == 9
    cert = is_molecule(ct.whole.whole())
    assert cert.is_atom and has_spherical_boundary(cert)
    assert ct.whole.whole().boundary(-1).mask == \
        ct.minus_incl.image(globe(2).whole()).mask


def test_celto_rejects_mismatch():
    # the binary compositor cell has a 2-segment output, the globe does not
    compositor = celto(globe(1), paste(globe(1), globe(1), 0).whole).whole
    with pytest.raises(BoundaryMismatch):
        celto(globe(2), compositor)
    with pytest.raises(BoundaryMismatch):
        celto(POINT, globe(1))
    # horizontal composition of 2-cells is not even spherical
    with pytest.raises(NotSpherical):
        celto(paste(globe(2), globe(2), 0).whole,
              paste(globe(2), globe(2), 0).whole)


def test_compos():
    assert compos(globe(2)) == globe(2)
    assert compos(paste(globe(1), globe(1), 0).whole) == globe(1)
    assert compos(paste(globe(2), globe(2), 1).whole) == globe(2)


# -- Gray products ---------------------------------------------------------


def test_gray_units_and_census():
    q = simplex(2)
    assert gray(POINT, q) == q
    assert gray(q, POINT) == q
    assert gray(EMPTY, q) == EMPTY
    for n in range(5):
        assert cube(n).size == 3 ** n


def test_gray_orientation_twist():
    prod, idx = gray_with_index(globe(1), globe(1))
    edge = idx[(2, 2)]
    below = idx[(2, 0)]
    # the second factor's input vertex becomes an output face: (-1)^1 * (-)
    assert prod.faces_plus[edge] >> below & 1


def test_gray_associative_up_to_iso():
    a = gray(gray(globe(1), simplex(1)), globe(2))
    b = gray(globe(1), gray(simplex(1), globe(2)))
    assert find_isomorphism(a, b) is not None


def test_gray_boundary_formula_examples():
    assert gray_boundary_check(globe(1), globe(1), 1, -1)
    assert gray_boundary_check(globe(2), globe(1), 2, +1)
    for k in range(4):
        for s in (-1, +1):
            assert gray_boundary_check(globe(2), simplex(1), k, s)


def test_gray_of_molecules_is_molecule():
    path = paste(globe(1), globe(1), 0).whole
    prod = gray(path, globe(1))
    cert = is_molecule(prod.whole())
    assert cert is not None and has_spherical_boundary(cert)
    assert is_regular_complex(prod)


# -- joins ------------------------------------------------------------------


def test_join_units_and_simplices():
    assert join(EMPTY, simplex(2)) == simplex(2)
    assert join(simplex(2), EMPTY) == simplex(2)
    assert join(POINT, POINT) == simplex(1)
    for n in range(1, 6):
        assert join(POINT, simplex(n - 1)) == simplex(n)
        assert simplex(n).size == 2 ** (n + 1) - 1


def test_join_boundary_formula_examples():
    for k in range(4):
        for s in (-1, +1):
            assert join_boundary_check(globe(1), globe(1), k, s)
            assert join_boundary_check(simplex(1), simplex(2), k, s)
            assert join_boundary_check(POINT, globe(2), k, s)


def test_boundary_formulas_hold_with_an_empty_factor():
    # join(EMPTY, v) is v, so the join formula must hold there too
    for v in (POINT, globe(1), globe(2), simplex(2)):
        for a, b in ((EMPTY, v), (v, EMPTY)):
            for k in range(v.dim + 3):
                for s in (-1, +1):
                    assert gray_boundary_check(a, b, k, s), (a, b, k, s)
                    assert join_boundary_check(a, b, k, s), (a, b, k, s)


def test_boundary_checks_fail_on_an_untwisted_product(monkeypatch):
    # drop the second factor's orientation twist: both formulas must break
    src = inspect.getsource(construct._gray_tables)
    twist = "qf = q_twisted if d % 2 else q_faces"
    assert twist in src
    untwisted = {}
    exec(src.replace(twist, "qf = q_faces"), vars(construct), untwisted)
    monkeypatch.setattr(construct, "_gray_tables", untwisted["_gray_tables"])
    # a product memoized from the real tables must not hide the mutation,
    # and an untwisted one must not outlive it
    _clear_check_memos()
    try:
        g = globe(1)
        cases = [(k, s) for k in range(4) for s in (-1, +1)]
        assert not all(gray_boundary_check(g, g, k, s) for k, s in cases)
        assert not all(join_boundary_check(g, g, k, s) for k, s in cases)
    finally:
        _clear_check_memos()


def _clear_check_memos():
    construct._gray_check_parts.cache_clear()
    construct._join_check_parts.cache_clear()


_CHECK_SHAPES = [EMPTY, POINT, globe(1), globe(2), simplex(1), simplex(2),
                 cube(2), paste(globe(1), globe(1), 0).whole]


def _fresh_verdicts(u, v):
    """Every (k, sign) verdict of both checks, from products built anew."""
    out = []
    for parts, shift, extra in ((construct._gray_check_parts, 0, 1),
                                (construct._join_check_parts, 1, 2)):
        whole, u_rows, v_rows, idx = parts.__wrapped__(u, v)
        out.append([whole.boundary(s, k).mask == construct._product_boundary(
                        u_rows, v_rows, idx, k + shift, s)
                    for k in range(u.dim + v.dim + extra) for s in (-1, +1)])
    return out


def _memo_verdicts(u, v):
    return [[check(u, v, k, s)
             for k in range(u.dim + v.dim + extra) for s in (-1, +1)]
            for check, extra in ((gray_boundary_check, 1),
                                 (join_boundary_check, 2))]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_CHECK_SHAPES), st.sampled_from(_CHECK_SHAPES))
def test_memoized_checks_match_fresh_products(u, v):
    # (u, v), (v, u), (u, v): a memo keyed without order answers the middle
    # call, or the last, from the other pair's product and index
    for a, b in ((u, v), (v, u), (u, v)):
        assert _memo_verdicts(a, b) == _fresh_verdicts(a, b)
        for parts, build in ((construct._gray_check_parts, gray_with_index),
                             (construct._join_check_parts, join_with_index)):
            whole, *_, idx = parts(a, b)
            assert (whole.parent, idx) == build(a, b)


def test_checks_build_each_product_once_per_pair(monkeypatch):
    calls = {"gray_with_index": 0, "join_with_index": 0}

    def spy(name):
        real = getattr(construct, name)

        def counted(p, q):
            calls[name] += 1
            return real(p, q)
        monkeypatch.setattr(construct, name, counted)

    spy("gray_with_index")
    spy("join_with_index")
    _clear_check_memos()
    try:
        for u, v in ((globe(2), simplex(1)), (simplex(1), globe(2))):
            for k in range(u.dim + v.dim + 2):
                for s in (-1, +1):
                    assert gray_boundary_check(u, v, k, s)
                    assert join_boundary_check(u, v, k, s)
        assert calls == {"gray_with_index": 2, "join_with_index": 2}
    finally:
        _clear_check_memos()


def test_checks_hold_under_threads_sharing_the_memo():
    # four threads alternate pairs through the one-pair memos; a product
    # filed under the wrong pair would fail a check or miss an index key
    pairs = [(globe(2), simplex(1)), (simplex(1), globe(2)),
             (cube(2), globe(1)), (POINT, simplex(2))]
    verdicts = []

    def work(shift):
        for u, v in (pairs[shift:] + pairs[:shift]) * 3:
            verdicts.append(all(
                check(u, v, k, s)
                for check in (gray_boundary_check, join_boundary_check)
                for k in range(u.dim + v.dim + 2) for s in (-1, +1)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
        _clear_check_memos()
    assert verdicts == [True] * 48


def test_join_op_swap():
    p, q = simplex(1), globe(2)
    a = op(join(p, q))
    b = join(op(q), op(p))
    assert find_isomorphism(a, b) is not None


def test_join_spherical_closure():
    cert = is_molecule(join(globe(1), globe(1)).whole())
    assert cert is not None and has_spherical_boundary(cert)


# -- suspension and duals ----------------------------------------------------


def test_suspend_basics():
    assert suspend(POINT) == globe(1)
    for n in range(4):
        assert find_isomorphism(suspend(globe(n)), globe(n + 1)) is not None
        assert suspend(globe(n)).size == globe(n).size + 2


def test_suspend_boundary_law():
    s = suspend(simplex(2))
    w = s.whole()
    assert sorted(w.boundary(-1, 0).elements()) == [0]
    assert sorted(w.boundary(+1, 0).elements()) == [1]
    base = simplex(2).whole()
    for k in range(1, 3):
        for sign in (-1, +1):
            got = w.boundary(sign, k).mask
            want = 0b11 | (base.boundary(sign, k - 1).mask << 2)
            assert got == want


def test_duals():
    assert dual(simplex(2), []) == simplex(2)
    assert dual(dual(simplex(3), [1, 3]), [3, 1]) == simplex(3)
    flipped = dual(globe(2), [2])
    w = flipped.whole()
    assert sorted(w.boundary(-1, 1).elements()) == [0, 1, 3]
    assert op(op(simplex(3))) == simplex(3)
    assert dual(dual(simplex(3), [2]), [2]) == simplex(3)
    assert dual(dual(cube(2), [1, 2]), [1, 2]) == cube(2)
    with pytest.raises(ValueError):
        dual(globe(1), [0])


def test_dual_gray_swap():
    p, q = globe(1), simplex(2)
    assert find_isomorphism(op(gray(p, q)), gray(op(q), op(p))) is not None
    assert find_isomorphism(dual(gray(p, q), [1, 2, 3]),
                            gray(dual(p, [1]), dual(q, [1, 2]))) is not None


# -- cylinders, units ---------------------------------------------------------


def test_cylinder_quotient_empty_is_product():
    p = simplex(1)
    quot, q = cylinder_quotient(p, ClosedSubset(p, 0))
    assert quot == gray(globe(1), p)
    assert q.assignment == tuple(range(quot.size))


def test_cylinder_quotient_counts_and_validity():
    p = simplex(2)
    v = p.whole().boundary()
    quot, q = cylinder_quotient(p, v)
    assert quot.size == 3 * p.size - 2 * len(v)
    q.check()
    assert q.is_surjective


def test_cylinder_quotient_of_globe_boundary_is_globe():
    for n in (0, 1, 2):
        quot, _ = cylinder_quotient(globe(n), globe(n).whole().boundary())
        assert find_isomorphism(quot, globe(n + 1)) is not None


def test_cylinder_quotient_rejects_non_closed():
    p = simplex(2)
    with pytest.raises(NotClosed, match="v is not closed"):
        cylinder_quotient(p, ClosedSubset(p, 1 << (p.size - 1)))
    with pytest.raises(NotClosed, match="v must be a subset of p"):
        cylinder_quotient(p, globe(2).whole())


def _quotient_by_collapse(p, v):
    """The cylinder quotient by collapsing the whole cylinder: every fibre
    over v is one class, and the quotient keeps each covering edge of the
    cylinder between two classes one dimension apart, except the edges
    between two collapsed edge copies, whose twisted signs lose."""
    cyl, idx = gray_with_index(globe(1), p)
    rep = list(range(cyl.size))
    collapsed_top = 0
    for x in bits(v.mask):
        a, b, c = idx[(0, x)], idx[(1, x)], idx[(2, x)]
        rep[a] = rep[b] = rep[c] = a
        collapsed_top |= 1 << c
    order = [x for x in range(cyl.size) if rep[x] == x]
    pos = {r: i for i, r in enumerate(order)}
    fm = [0] * len(order)
    fp = [0] * len(order)
    sign_seen = {}
    for y in range(cyl.size):
        ry = rep[y]
        for sgn, faces in ((-1, cyl.faces_minus[y]), (+1, cyl.faces_plus[y])):
            for x in bits(faces):
                rx = rep[x]
                if rx == ry or cyl.dims[ry] != cyl.dims[rx] + 1:
                    continue
                if collapsed_top >> y & 1 and collapsed_top >> x & 1:
                    continue
                key = (pos[ry], pos[rx])
                assert sign_seen.setdefault(key, sgn) == sgn, key
                if sgn < 0:
                    fm[pos[ry]] |= 1 << pos[rx]
                else:
                    fp[pos[ry]] |= 1 << pos[rx]
    quot = OgPoset([cyl.dims[r] for r in order], fm, fp)
    return quot, tuple(pos[rep[x]] for x in range(cyl.size))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cylinder_quotient_matches_the_collapse(corpus_members, data):
    _, p = data.draw(st.sampled_from(corpus_members))
    v = p.closure(data.draw(st.lists(st.integers(0, p.size - 1), max_size=4)))
    if data.draw(st.booleans()):
        v = p.whole().boundary()
    quot, q = cylinder_quotient(p, v)
    ref, ref_assign = _quotient_by_collapse(p, v)
    assert quot.to_json() == ref.to_json()
    assert q.assignment == ref_assign
    assert q.source == gray(globe(1), p) and q.target is quot
    q.check()


def test_inflate_laws():
    inf = inflate(simplex(2))
    n = simplex(2).size
    assert inf.iota_minus.then(inf.tau).assignment == tuple(range(n))
    assert inf.iota_plus.then(inf.tau).assignment == tuple(range(n))
    inf.tau.check()
    cert = is_molecule(inf.whole.whole())
    assert cert.is_atom and has_spherical_boundary(cert)
    # an atom inflates to the cell from itself to itself
    ct = celto(simplex(2), simplex(2))
    assert find_isomorphism(inf.whole, ct.whole) is not None


def test_inflate_boundaries_are_the_base():
    inf = inflate(paste(globe(1), globe(1), 0).whole)
    for sign, incl in ((-1, inf.iota_minus), (+1, inf.iota_plus)):
        bd = inf.whole.whole().boundary(sign)
        assert incl.image(incl.source.whole()).mask == bd.mask


def test_inflate_map_descends():
    from dircomplex import folding_a
    lifted = inflate_map(folding_a(2))
    lifted.check()
    assert lifted.is_surjective
    # dimension-dropping surjections do not descend and are refused
    with pytest.raises(ValueError, match="same-dimensional"):
        inflate_map(PosetMap(globe(1), POINT, (0, 0, 0)))
    with pytest.raises(ValueError, match="lifts only surjections"):
        inflate_map(PosetMap(globe(1), globe(1), (0, 0, 2)))
    # no map sends a vertex to the arrow; the lift would split its class
    with pytest.raises(BoundaryMismatch, match="does not descend"):
        inflate_map(PosetMap(globe(1), globe(1), (2, 0, 1)))


def test_unitor_shapes_and_retractions():
    u = globe(1)
    v = u.closure([0])   # the input vertex
    shape, retr = unitor_shape(u, v, "left", +1)
    assert shape.size == 7
    retr.check()
    cert = is_molecule(shape.whole())
    assert cert.is_atom and has_spherical_boundary(cert)
    # the retraction splits both cylinder-end inclusions of u
    quot, q = cylinder_quotient(
        u, u.whole().boundary() - (v - v.boundary()))
    _, idx = gray_with_index(globe(1), u)
    for pole in (0, 1):
        for x in range(u.size):
            assert retr(q(idx[(pole, x)])) == x
    minus_shape, minus_retr = unitor_shape(u, v, "left", -1)
    assert minus_shape == dual(shape, [2])
    assert minus_retr.assignment == retr.assignment


def test_unitor_right_side():
    u = globe(1)
    v = u.closure([1])   # the output vertex
    shape, retr = unitor_shape(u, v, "right", -1)
    retr.check()
    assert is_molecule(shape.whole()).is_atom
    plus_shape, _ = unitor_shape(u, v, "right", +1)
    assert plus_shape == dual(shape, [2])
    with pytest.raises(NotASubmolecule):
        unitor_shape(u, u.closure([0]), "right", -1)


def test_unitor_refuses_unknown_side_and_sign():
    u = phi(3).whole
    v = u.whole().boundary(+1)
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        unitor_shape(u, v, "Left", +1)
    with pytest.raises(ValueError, match="sign must be -1 or \\+1"):
        unitor_shape(u, v, "right", 0)
    unitor_shape(u, v, "right", -1)


def test_unitor_refuses_a_v_below_the_boundary_dimension():
    # the input boundary of this 3-atom is (2-globe #0 arrow) #1 triangle,
    # so the whiskering arrow is a spherical submolecule of it, of dim 1
    whisker = paste(globe(2), globe(1), 0)
    triangle = dual(simplex(2), [2])  # two arrows in, one out
    bd = paste(whisker.whole, triangle, 1)
    cell = celto(bd.whole, triangle)
    arrow = cell.minus_incl(bd.left_incl(whisker.right_incl(2)))
    with pytest.raises(BoundaryMismatch, match="one dimension below u"):
        unitor_shape(cell.whole, cell.whole.closure([arrow]), "left", +1)


def test_reverse_map_clauses():
    inf = inflate(globe(1))
    p = inf.tau
    rev = reverse_map(p)
    assert rev.source == dual(p.source, [p.source.dim])
    assert rev.assignment == p.assignment
    rev.check()
    back = reverse_map(rev)
    assert back.source == p.source and back.assignment == p.assignment
    # boundary clause: on each boundary of the flipped source, the reverse
    # acts like the original on the opposite boundary
    for sign in (-1, +1):
        flipped_bd = rev.source.whole().boundary(sign)
        orig_bd = p.source.whole().boundary(-sign)
        assert flipped_bd.mask == orig_bd.mask
    with pytest.raises(ValueError, match="needs a dimension drop"):
        reverse_map(PosetMap.identity(globe(1)))
    with pytest.raises(ValueError, match="defined for surjective maps"):
        reverse_map(PosetMap(POINT, globe(1), (0,)))


def test_join_associative_up_to_iso():
    a = join(join(POINT, globe(1)), simplex(1))
    b = join(POINT, join(globe(1), simplex(1)))
    assert find_isomorphism(a, b) is not None


def test_inflate_point_is_arrow():
    assert inflate(POINT).whole == globe(1)


def _gray_by_sort(p, q):
    """The Gray product numbered by sorting every pair on
    (dimension sum, p element, q element) and looking each face up."""
    pairs = [(i, j) for i in range(p.size) for j in range(q.size)]
    pairs.sort(key=lambda t: (p.dims[t[0]] + q.dims[t[1]], t[0], t[1]))
    idx = {t: n for n, t in enumerate(pairs)}
    dims, fm, fp = [], [], []
    for (i, j) in pairs:
        dims.append(p.dims[i] + q.dims[j])
        m = sum(1 << idx[(i2, j)] for i2 in bits(p.faces_minus[i]))
        pl = sum(1 << idx[(i2, j)] for i2 in bits(p.faces_plus[i]))
        qm, qp = q.faces_minus[j], q.faces_plus[j]
        if p.dims[i] % 2:
            qm, qp = qp, qm
        m |= sum(1 << idx[(i, j2)] for j2 in bits(qm))
        pl |= sum(1 << idx[(i, j2)] for j2 in bits(qp))
        fm.append(m)
        fp.append(pl)
    return (dims, fm, fp), idx


def _with_bottom(p):
    """p with a least element at index 0 and every dimension one higher;
    each vertex gets the bottom as its + face."""
    return OgPoset([0] + [d + 1 for d in p.dims],
                   [0] + [m << 1 for m in p.faces_minus],
                   [0] + [(m << 1) | int(d == 0)
                          for d, m in zip(p.dims, p.faces_plus)])


def _tables(p):
    return [list(p.dims), list(p.faces_minus), list(p.faces_plus)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gray_and_join_match_the_sorted_numbering(corpus_members, data):
    small = [p for _, p in corpus_members if p.size <= 30]
    p = data.draw(st.sampled_from(small))
    q = data.draw(st.sampled_from(small))
    prod, idx = gray_with_index(p, q)
    want, want_idx = _gray_by_sort(p, q)
    assert _tables(prod) == [list(t) for t in want]
    assert list(idx.items()) == list(want_idx.items())
    joined, jidx = join_with_index(p, q)
    (dims, fm, fp), bidx = _gray_by_sort(_with_bottom(p), _with_bottom(q))
    assert _tables(joined) == [[d - 1 for d in dims[1:]],
                               [m >> 1 for m in fm[1:]],
                               [m >> 1 for m in fp[1:]]]
    assert list(jidx.items()) == [((i - 1, j - 1), n - 1)
                                  for (i, j), n in bidx.items() if n]


def test_gray_with_empty_and_point_factors():
    for p in (EMPTY, POINT, globe(1), simplex(2)):
        for q in (EMPTY, POINT, globe(1), simplex(2)):
            prod, idx = gray_with_index(p, q)
            want, want_idx = _gray_by_sort(p, q)
            assert _tables(prod) == [list(t) for t in want]
            assert list(idx.items()) == list(want_idx.items())
