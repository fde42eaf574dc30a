from dircomplex import (
    OgPoset, ClosedSubset,
    nerve, homology, euler, face_poset_roundtrip,
    globe, simplex, cube, globe_tau, gray, is_regular_complex, paste,
)
from dircomplex.topology import (
    ChainComplex, SimplicialComplex, chain_complex, _smith_diagonal,
    sphere_signature, ball_signature, _matches, _cell_pass, _dd_zero,
    _invariants,
)
from dircomplex.ogposet import bits
from hypothesis import given, settings, strategies as st
import pytest
from math import gcd
import itertools
import json
import time

POINT = OgPoset.point()


def test_nerve_point_and_arrow():
    assert nerve(POINT).counts() == [1]
    # the nerve of the arrow is a subdivided interval: no chain crosses
    # between the two incomparable endpoints
    assert nerve(globe(1)).counts() == [3, 2]


def test_nerve_counts_triangle():
    assert nerve(simplex(2)).counts() == [7, 12, 6]


def test_nerve_of_empty():
    assert nerve(ClosedSubset(POINT, 0)).counts() == []
    assert euler(nerve(ClosedSubset(POINT, 0))) == 0
    assert homology(nerve(ClosedSubset(POINT, 0))) == []


def test_chain_complex_dd_zero():
    cc = chain_complex(nerve(simplex(2)))
    assert cc.counts == [7, 12, 6]
    assert all(len(c) == d + 1 if d else not c
               for d, level in enumerate(cc.columns) for c in level)
    assert cc.check_dd_zero()
    cc = chain_complex(nerve(cube(2)))
    assert cc.check_dd_zero()


def test_check_dd_zero_detects_nonzero_composite():
    # an edge whose boundary is a vertex, and a 2-cell whose boundary is
    # that edge: d1 d2 = 1 != 0
    cc = ChainComplex([1, 1, 1], [[{}], [{0: 1}], [{0: 1}]])
    assert not cc.check_dd_zero()
    assert ChainComplex([1, 1, 1], [[{}], [{0: 1}], [{}]]).check_dd_zero()


def test_smith_invariants_known_matrices():
    assert _smith_diagonal([[2, 4], [4, 8]]) == [2]
    assert _smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert _smith_diagonal([[0] * 3 for _ in range(3)]) == []
    # projective-plane style torsion: Z/2 from a doubled boundary
    assert _smith_diagonal([[2]]) == [2]
    assert _smith_diagonal([]) == []


def test_smith_big_entries_are_exact():
    # the determinant 2**122 - 1 is far past any machine integer
    assert _smith_diagonal([[2 ** 61, 1], [1, 2 ** 61]]) == [1, 2 ** 122 - 1]
    # an int64 elimination wraps 2**40 * 2**40 around; the answer is 7
    assert _smith_diagonal([[3, 4, -1058041413109],
                            [2, 717408329769, 1]]) == [1, 7]


def _det(m):
    """Leibniz determinant, exact on Python integers."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        term = -1 if sum(a > b for a, b in
                         itertools.combinations(perm, 2)) % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _determinantal_invariants(m):
    """Smith invariants by definition: d_k = D_k / D_(k-1), where D_k is
    the gcd of the k x k minors, up to the rank."""
    rows, cols = len(m), len(m[0]) if m else 0
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        dk = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                dk = gcd(dk, _det([[m[i][j] for j in cs] for i in rs]))
        if not dk:
            break
        out.append(dk // prev)
        prev = dk
    return out


# small entries make rank drops and torsion likely, big ones test exactness
_entry = st.one_of(st.integers(-12, 12), st.integers(-2 ** 62, 2 ** 62))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rows=st.integers(0, 4), cols=st.integers(0, 4))
def test_smith_matches_determinantal_divisors(data, rows, cols):
    m = data.draw(st.lists(st.lists(_entry, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    copy = [list(r) for r in m]
    assert _smith_diagonal(m) == _determinantal_invariants(m)
    assert m == copy  # the kernel works on its own copy


def test_homology_point_ball_spheres():
    assert homology(nerve(POINT)) == [(1, [])]
    assert homology(nerve(globe(2).whole().boundary())) == [(1, []), (1, [])]
    assert homology(nerve(globe(3).whole().boundary())) == \
        [(1, []), (0, []), (1, [])]
    assert homology(nerve(simplex(3))) == [(1, []), (0, []), (0, []), (0, [])]
    assert _matches(homology(nerve(cube(4).whole().boundary())),
                    sphere_signature(3))
    assert _matches(homology(nerve(simplex(5).whole().boundary())),
                    sphere_signature(4))


RP2_TRIANGLES = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                 (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


def _closed_complex(facets) -> SimplicialComplex:
    """The simplicial complex generated by ``facets`` (vertex tuples)."""
    simplices = set()
    for f in facets:
        f = tuple(sorted(set(f)))
        for r in range(1, len(f) + 1):
            simplices.update(itertools.combinations(f, r))
    top = max((len(s) for s in simplices), default=0)
    return SimplicialComplex(tuple(
        tuple(sorted(s for s in simplices if len(s) == d + 1))
        for d in range(top)))


def _dense_homology(k: SimplicialComplex):
    """Reference: dense boundary matrices, each put in Smith normal form."""
    counts = k.counts()
    inv = []
    for d, level in enumerate(k.simplices):
        m = [[0] * len(level) for _ in range(counts[d - 1] if d else 0)]
        if d:
            index = {c: i for i, c in enumerate(k.simplices[d - 1])}
            for j, c in enumerate(level):
                for i in range(len(c)):
                    m[index[c[:i] + c[i + 1:]]][j] += (-1) ** i
        inv.append(_smith_diagonal(m))
    inv.append([])
    return [(n - len(inv[d]) - len(inv[d + 1]),
             sorted(x for x in inv[d + 1] if x > 1))
            for d, n in enumerate(counts)]


def test_torsion_detected_on_projective_plane():
    # minimal triangulation of the real projective plane
    h = homology(_closed_complex(RP2_TRIANGLES))
    assert h[0] == (1, [])
    assert h[1] == (0, [2])
    assert h[2] == (0, [])


_facet = st.lists(st.integers(0, 8), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(copies=st.integers(0, 2),
       relabel=st.permutations(range(12)),
       extra=st.lists(_facet, max_size=8))
def test_homology_matches_dense_reference(copies, relabel, extra):
    # disjoint relabelled copies of RP^2 carry torsion; extra facets may
    # glue onto them, kill it or add free homology
    facets = [tuple(relabel[6 * c + v] for v in t)
              for c in range(copies) for t in RP2_TRIANGLES] + extra
    k = _closed_complex(facets)
    assert homology(k) == _dense_homology(k)


def test_euler():
    assert euler(nerve(simplex(3))) == 1
    assert euler(nerve(globe(3).whole().boundary())) == 2
    assert euler(nerve(globe(2).whole().boundary())) == 0


def test_face_poset_roundtrip_families():
    assert face_poset_roundtrip(globe(3)).ok
    assert face_poset_roundtrip(simplex(3)).ok
    assert face_poset_roundtrip(cube(3)).ok


def test_face_poset_roundtrip_detects_broken_atom():
    # a 2-cell with a single edge for a boundary: its "sphere" is an interval
    p = OgPoset.from_records([
        {"dim": 0, "minus": [], "plus": []},
        {"dim": 0, "minus": [], "plus": []},
        {"dim": 1, "minus": [0], "plus": [1]},
        {"dim": 2, "minus": [2], "plus": []},
    ])
    rep = face_poset_roundtrip(p)
    assert not rep.ok
    assert 3 in rep.failures


def test_sphere_and_ball_signatures():
    assert _matches(homology(nerve(simplex(2))), ball_signature())
    assert _matches(homology(nerve(cube(2).whole().boundary())),
                    sphere_signature(1))
    assert sphere_signature(0) == [(2, [])]
    assert sphere_signature(-1) == []


def test_euler_one_for_spherical_corpus_molecules(corpus_members):
    from dircomplex import is_molecule, has_spherical_boundary
    count = 0
    for name, p in corpus_members:
        if p.size > 60:
            continue
        if not has_spherical_boundary(is_molecule(p.whole())):
            continue
        assert euler(nerve(p)) == 1, name
        count += 1
    assert count >= 15


def test_cell_homology_of_sphere_families():
    assert homology(ClosedSubset(POINT, 0)) == []
    for n in range(1, 6):
        # two n-globes pasted along their (n-1)-boundary have no greatest
        # element, so their ball is read off cells
        pasted = paste(globe(n), globe(n), n - 1).whole
        assert _matches(homology(pasted), ball_signature())
        for shape in (globe(n), simplex(n), cube(n)):
            bd = shape.whole().boundary()
            assert _matches(homology(bd), sphere_signature(bd.dim))
            assert _matches(homology(shape), ball_signature())


def _closed_subsets(data, p):
    gens = data.draw(st.lists(st.integers(0, p.size - 1), min_size=1,
                              max_size=5))
    u = p.closure(gens)
    yield u
    yield u.boundary()
    if u.dim >= 1:
        k = data.draw(st.integers(0, u.dim - 1))
        yield u.boundary(data.draw(st.sampled_from((-1, +1))), k)


# a 2-cell whose input boundary is two parallel arrows: an atom by the
# greatest-element rule, but not globular
PARALLEL_INPUT = OgPoset.from_records([
    {"dim": 0, "minus": [], "plus": []},
    {"dim": 0, "minus": [], "plus": []},
    {"dim": 1, "minus": [0], "plus": [1]},
    {"dim": 1, "minus": [0], "plus": [1]},
    {"dim": 1, "minus": [0], "plus": [1]},
    {"dim": 2, "minus": [2, 3], "plus": [4]},
])


# complexes with a member that is no cell, and subsets without a greatest
# element around it: only the nerve is exact on them
NON_CELLULAR = [
    PARALLEL_INPUT,
    paste(PARALLEL_INPUT, globe(2), 1).whole,
    paste(globe(2), PARALLEL_INPUT, 0).whole,
]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cell_homology_matches_nerve(corpus_members, data):
    # the nerve is the oracle: whichever complex homology picks, cone,
    # cells or nerve, it must give the nerve's homology, on regular
    # subsets and on the rest alike
    p = data.draw(st.one_of(st.sampled_from([p for _, p in corpus_members]),
                            st.sampled_from(NON_CELLULAR)))
    for u in _closed_subsets(data, p):
        assert homology(u) == homology(nerve(u)), bin(u.mask)


def test_non_globular_atom_is_not_cellular():
    # d(4 - 2 - 3) = -(1 - 0): Steiner's boundary is no chain complex here,
    # which is why homology asks every member to be cellular before it
    # reads homology off cells
    assert not is_regular_complex(PARALLEL_INPUT)
    assert [cell for _, _, cell, _ in _cell_pass(PARALLEL_INPUT, 0b111111)] \
        == [True] * 5 + [False]
    # its boundary, three parallel arrows, is regular and agrees with the
    # nerve
    bd = PARALLEL_INPUT.whole().boundary()
    assert is_regular_complex(bd)
    assert homology(bd) == homology(nerve(bd)) == [(1, []), (2, [])]


def test_is_regular_complex_checks_only_the_subset():
    # the non-globular 2-cell lies outside the closure of arrow 2
    assert is_regular_complex(PARALLEL_INPUT.closure([2]))
    assert not is_regular_complex(PARALLEL_INPUT.whole())


def _spy(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def spy(*args):
        calls.append(name)
        return real(*args)
    monkeypatch.setattr(module, name, spy)


def _topo(tmp_path, capsys, p, *argv):
    from dircomplex.cli import run
    f = tmp_path / "p.json"
    f.write_text(p.to_json())
    code = run(["--json", "topo", argv[0], str(f), *argv[1:]])
    return code, json.loads(capsys.readouterr().out)


def test_cli_homology_takes_nerve_path_off_the_gate(tmp_path, capsys,
                                                     monkeypatch):
    from dircomplex import topology
    built = []
    _spy(monkeypatch, topology, "nerve", built)
    _spy(monkeypatch, ChainComplex, "check_dd_zero", built)
    # the non-globular 2-cell is no cellular element, and the 2-globe pasted
    # beside it leaves no greatest element in one connected piece: only the
    # nerve is exact
    p = NON_CELLULAR[1]
    code, out = _topo(tmp_path, capsys, p, "homology")
    assert code == 0 and built == ["nerve", "check_dd_zero"]
    assert out["H"] == [{"betti": b, "torsion": t}
                        for b, t in homology(nerve(p))]
    # a disjoint vertex leaves no greatest element either, but the two
    # connected components each have one: each is a cone, and nothing is
    # built
    built.clear()
    p = OgPoset.from_records(PARALLEL_INPUT.to_json_obj()["elements"]
                             + [{"dim": 0, "minus": [], "plus": []}])
    code, out = _topo(tmp_path, capsys, p, "homology")
    assert code == 0 and built == []
    assert out["H"] == [{"betti": b, "torsion": t}
                        for b, t in homology(nerve(p))]
    # with the greatest element the nerve is a cone: nothing is built
    built.clear()
    code, out = _topo(tmp_path, capsys, PARALLEL_INPUT, "homology")
    assert code == 0 and built == []
    assert out["H"] == [{"betti": b, "torsion": t}
                        for b, t in homology(nerve(PARALLEL_INPUT))]
    built.clear()
    # every member of the boundary is cellular: homology is read off the
    # columns of the cell pass, each of them already checked for dd = 0
    code, out = _topo(tmp_path, capsys, PARALLEL_INPUT, "homology",
                      "--boundary")
    assert code == 0 and built == []
    assert out["H"] == [{"betti": 1, "torsion": []},
                        {"betti": 2, "torsion": []}]


def test_cli_topo_never_recognizes_molecules(tmp_path, capsys, monkeypatch):
    from dircomplex import cli, molecule
    calls = []
    _spy(monkeypatch, molecule, "is_molecule", calls)
    _spy(monkeypatch, molecule, "is_regular_complex", calls)
    _spy(monkeypatch, cli, "is_molecule", calls)
    _spy(monkeypatch, cli, "is_regular_complex", calls)
    for p in (simplex(3), cube(3), PARALLEL_INPUT):
        for argv in (["homology"], ["homology", "--boundary"], ["euler"],
                     ["euler", "--boundary"], ["cwcheck"]):
            _topo(tmp_path, capsys, p, *argv)
    assert calls == []
    # the spies do see a verb that recognizes
    from dircomplex.cli import run
    f = tmp_path / "parallel.json"
    f.write_text(PARALLEL_INPUT.to_json())
    assert run(["check", "regular", str(f)]) == 1
    assert "is_regular_complex" in calls and "is_molecule" in calls


def _nerve_failures(p: OgPoset) -> tuple[int, ...]:
    """Reference: every boundary of dimension >= 1 checked on its nerve."""
    failures = []
    for x in range(p.size):
        d = p.dims[x]
        if d >= 1:
            k = nerve(ClosedSubset(p, p.down[x]).boundary())
            if not (_matches(homology(k), sphere_signature(d - 1))
                    and euler(k) == 1 + (-1) ** (d - 1)):
                failures.append(x)
    return tuple(failures)


def _agrees_with_nerve(u: ClosedSubset) -> None:
    q = u.extract()[0]
    assert face_poset_roundtrip(q).failures == _nerve_failures(q), q.to_json()
    assert homology(u) == homology(nerve(u)), q.to_json()
    assert euler(u) == euler(nerve(u)), q.to_json()


# a 2-cell whose boundary is a circle, two parallel arrows, both of them
# inputs: a sphere, but d(-2 - 3) = -2(1 - 0) is not zero
CIRCLE_WITHOUT_DD = OgPoset.from_records([
    {"dim": 0, "minus": [], "plus": []},
    {"dim": 0, "minus": [], "plus": []},
    {"dim": 1, "minus": [0], "plus": [1]},
    {"dim": 1, "minus": [0], "plus": [1]},
    {"dim": 2, "minus": [2, 3], "plus": []},
])


def test_sphere_and_cellular_masks_stay_apart(tmp_path, capsys):
    p = CIRCLE_WITHOUT_DD
    assert [t[:3] for t in _cell_pass(p, p.all_mask)] == \
        [(0, True, True), (1, True, True), (2, True, True),
         (3, True, True), (4, True, False)]
    assert face_poset_roundtrip(p).failures == _nerve_failures(p) == ()
    code, out = _topo(tmp_path, capsys, p, "cwcheck")
    assert code == 0 and out["ok"] is True and out["failures"] == []
    for argv in (["homology", "--boundary"], ["homology"]):
        sub = p.whole().boundary() if len(argv) > 1 else p.whole()
        code, out = _topo(tmp_path, capsys, p, *argv)
        assert code == 0
        assert out["H"] == [{"betti": b, "torsion": t}
                            for b, t in homology(nerve(sub))]


def _pool():
    import pathlib
    pool = pathlib.Path(__file__).resolve().parent.parent / "perfbench/pool"
    for f in sorted(pool.glob("*.json")):
        if f.name != "manifest.json" and not f.name.startswith("malformed"):
            yield f.stem, OgPoset.from_json(f.read_text())


def test_roundtrip_matches_nerve_reference(corpus_members):
    # the reference takes 2 s on simplex6 and half a minute on simplex7
    named = corpus_members + [(n, p) for n, p in _pool() if p.dim < 6] + \
        [("circle", CIRCLE_WITHOUT_DD)]
    failing = 0
    for name, p in named:
        failures = _nerve_failures(p)
        assert face_poset_roundtrip(p).failures == failures, name
        failing += bool(failures)
    assert failing >= 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cells_and_roundtrip_match_nerve_on_corpus(corpus_members, data):
    _, p = data.draw(st.sampled_from(corpus_members))
    for u in _closed_subsets(data, p):
        _agrees_with_nerve(u)


@st.composite
def _oriented_graded_posets(draw):
    """Small posets with random signed faces: most atoms are no cells."""
    dims, fm, fp = [], [], []
    below: list[int] = []
    for d in range(draw(st.integers(1, 4))):
        here = []
        for _ in range(draw(st.integers(1, 4))):
            minus = plus = 0
            if d:
                for f in draw(st.lists(st.sampled_from(below), min_size=1,
                                       max_size=4, unique=True)):
                    if draw(st.booleans()):
                        minus |= 1 << f
                    else:
                        plus |= 1 << f
            here.append(len(dims))
            dims.append(d)
            fm.append(minus)
            fp.append(plus)
        below = here
    return OgPoset(dims, fm, fp)


# regular bases: a copy of one of their atoms with an arrow reversed is filed
# with the atom and agrees with it as an unsigned poset, but is no cell
_CELLS = (simplex(2), simplex(3), cube(2), cube(3), gray(globe(1), simplex(2)))


@st.composite
def _with_copied_atom(draw):
    """A random or regular poset beside a copy of one of its atoms' closures,
    in either order, and the two tops.  The copy may have one element
    reversed, one face moved to the other sign or to another element of its
    dimension, or a - face and a + face of one element swapped, which keeps
    the invariant it is filed under and its unsigned shape; else the atom
    and its copy share a shape.
    """
    p = draw(st.one_of(_oriented_graded_posets(), st.sampled_from(_CELLS)))
    x = draw(st.sampled_from([y for y in range(p.size) if p.dims[y]] or [0]))
    sub = ClosedSubset(p, p.down[x]).extract()[0]
    fm, fp = list(sub.faces_minus), list(sub.faces_plus)
    e = draw(st.sampled_from([y for y in range(sub.size) if sub.dims[y]]
                             or [0]))
    change = draw(st.sampled_from(("none", "reverse", "move", "rewire",
                                   "swap")))
    faces = fm[e] | fp[e]
    others = [g for g in range(sub.size)
              if sub.dims[g] == sub.dims[e] - 1 and not faces >> g & 1]
    if change == "reverse":
        fm[e], fp[e] = fp[e], fm[e]
    elif change == "move" and faces:
        f = 1 << draw(st.sampled_from(list(bits(faces))))
        fm[e], fp[e] = fm[e] ^ f, fp[e] ^ f
    elif change == "rewire" and faces and others:
        f = 1 << draw(st.sampled_from(list(bits(faces))))
        g = 1 << draw(st.sampled_from(others))
        if fm[e] & f:
            fm[e] ^= f | g
        else:
            fp[e] ^= f | g
    elif change == "swap" and fm[e] and fp[e]:
        f = 1 << draw(st.sampled_from(list(bits(fm[e]))))
        g = 1 << draw(st.sampled_from(list(bits(fp[e]))))
        fm[e], fp[e] = fm[e] ^ f | g, fp[e] ^ g | f
    parts = [(p.dims, p.faces_minus, p.faces_plus, x),
             (sub.dims, fm, fp, sub.size - 1)]
    if draw(st.booleans()):
        parts.reverse()
    records, tops = [], []
    for dims, minus, plus, top in parts:
        o = len(records)
        tops.append(o + top)
        records += [(d, [o + f for f in bits(m)], [o + f for f in bits(q)])
                    for d, m, q in zip(dims, minus, plus)]
    order = sorted(range(len(records)), key=lambda i: records[i][0])
    return OgPoset.from_records(records), [order.index(t) for t in tops]


def _cellular_by_reference(p: OgPoset) -> list[bool]:
    """Every element checked on its own: its boundary on the nerve, dd = 0
    on Steiner's columns, and everything below it."""
    cols = [{**dict.fromkeys(bits(q), 1), **dict.fromkeys(bits(m), -1)}
            for m, q in zip(p.faces_minus, p.faces_plus)]
    failures, cellular = _nerve_failures(p), []
    for x, col in enumerate(cols):
        dd_zero = (_dd_zero(col, cols) if p.dims[x] != 1
                   else sum(col.values()) == 0)
        cellular.append(x not in failures and dd_zero and all(
            cellular[y] for y in bits(p.down[x] ^ 1 << x)))
    return cellular


@settings(max_examples=150, deadline=None)
@given(drawn=_with_copied_atom())
def test_shared_verdicts_match_nerve_beside_a_copied_atom(drawn):
    # the copy is filed with the atom it copies, and may take its verdict
    # only where their closures agree sign by sign
    q, _ = drawn
    assert [cell for _, _, cell, _ in _cell_pass(q, q.all_mask)] == \
        _cellular_by_reference(q), q.to_json()
    _agrees_with_nerve(q.whole())
    for x in range(q.size):
        _agrees_with_nerve(ClosedSubset(q, q.down[x]).boundary())


# a 2-cell a, b => c over a: s -> m, b: m -> t and c: s -> t; beside it, the
# same circle with b reversed, filled by the 2-cell c, b => a and by a, b => c.
# The last has the first one's invariant and unsigned shape, but it is no
# cell: sharing its verdict would read a 2-sphere off cells that break dd = 0
TWO_CELL_AND_SPHERE = OgPoset.from_records(
    [(0, [], [])] * 6
    + [(1, [0], [1]), (1, [1], [2]), (1, [0], [2]),
       (1, [3], [4]), (1, [5], [4]), (1, [3], [5]),
       (2, [6, 7], [8]), (2, [11, 10], [9]), (2, [9, 10], [11])])


def test_shared_verdicts_tell_signs_apart():
    p = TWO_CELL_AND_SPHERE
    assert [t[:3] for t in _cell_pass(p, p.all_mask)][-3:] == \
        [(12, True, True), (13, True, True), (14, True, False)]
    assert homology(p) == homology(nerve(p)) == [(2, []), (0, []), (1, [])]
    assert euler(p) == euler(nerve(p)) == 3
    _agrees_with_nerve(p.whole())


@pytest.mark.parametrize("shape", [simplex(6), cube(5)])
def test_one_boundary_homology_per_dimension(monkeypatch, shape):
    # simplices and cubes have one closure shape per dimension
    from dircomplex import topology
    calls = []
    _spy(monkeypatch, topology, "homology", calls)
    _spy(monkeypatch, topology, "nerve", calls)
    assert face_poset_roundtrip(shape).ok
    assert calls == ["homology"] * (shape.dim - 1)
    calls.clear()
    # and the Euler characteristics of their boundaries need no complex
    assert euler(shape.whole().boundary()) == 1 + (-1) ** (shape.dim - 1)
    assert calls == []


@pytest.mark.parametrize("name, homologies, molecules", [
    ("join-simplex2-globe1", 5, 30), ("join-globe2-globe1", 6, 26),
    ("C3-0", 9, 56), ("C4-1", 11, 64)])
def test_every_closure_shape_is_filed(monkeypatch, name, homologies,
                                      molecules):
    # two shapes with the same face counts per dimension are each checked
    # once; sharing only the first shape per face counts would check
    # 12 / 9 / 9 / 11 boundaries and make 44 / 32 / 56 / 64 molecule calls
    from dircomplex import molecule, topology
    p = dict(_pool())[name]
    calls = []
    _spy(monkeypatch, topology, "homology", calls)
    _spy(monkeypatch, molecule, "is_molecule", calls)
    assert face_poset_roundtrip(p).ok
    assert calls == ["homology"] * homologies
    calls.clear()
    assert is_regular_complex(p)
    assert calls == ["is_molecule"] * molecules


def test_euler_beside_a_non_cellular_atom_needs_no_complex(monkeypatch):
    # the 2-cell is not cellular, so euler used to count the whole nerve of
    # simplex(6) beside it
    from dircomplex import topology
    from dircomplex.construct import amalgamate
    p = amalgamate(simplex(6), PARALLEL_INPUT, {})[0]
    bd = p.whole().boundary()
    assert (euler(nerve(p)), euler(nerve(bd))) == (2, 1)
    calls = []
    for name in ("nerve", "homology", "_cell_pass"):
        _spy(monkeypatch, topology, name, calls)
    assert (euler(p), euler(bd)) == (2, 1)
    assert calls == []


@settings(max_examples=200, deadline=None)
@given(p=_oriented_graded_posets())
def test_cells_and_roundtrip_match_nerve_on_random_posets(p):
    # failures low down send the atoms above them to the nerve fallback
    _agrees_with_nerve(p.whole())
    for x in range(p.size):
        _agrees_with_nerve(ClosedSubset(p, p.down[x]).boundary())


def _disjoint(*pieces: OgPoset) -> OgPoset:
    """The disjoint union of the pieces, glued along nothing."""
    from dircomplex.construct import amalgamate
    out = pieces[0]
    for q in pieces[1:]:
        out = amalgamate(out, q, {})[0]
    return out


@settings(max_examples=100, deadline=None)
@given(data=st.data(), count=st.integers(2, 3))
def test_homology_sums_over_connected_components(corpus_members, data,
                                                 count):
    # the nerve of a disjoint union is the union of the nerves: whichever
    # complex each component takes, the sum must be the whole nerve's
    small = [p for _, p in corpus_members if p.size <= 40]
    pieces = [data.draw(st.one_of(st.sampled_from(small),
                                  st.sampled_from(NON_CELLULAR),
                                  _oriented_graded_posets()))
              for _ in range(count)]
    u = _disjoint(*pieces).whole()
    for w in (u, u.boundary()):
        assert homology(w) == homology(nerve(w)), bin(w.mask)


def _face_poset(triangles) -> OgPoset:
    """The face poset of the simplicial complex spanned by ``triangles``,
    each face signed (-1)^i where vertex i is dropped, so every element is
    cellular and Steiner's complex is the simplicial one."""
    k = _closed_complex(triangles)
    index = {c: i for i, c in enumerate(s for lv in k.simplices for s in lv)}
    records = []
    for c in index:
        faces = [(i, index[c[:i] + c[i + 1:]])
                 for i in range(len(c))] if len(c) > 1 else []
        records.append({"dim": len(c) - 1,
                        "minus": [f for i, f in faces if i % 2],
                        "plus": [f for i, f in faces if not i % 2]})
    return OgPoset.from_records(records)


# a disc whose boundary 9-gon wraps three times round the triangle 0, 1, 2:
# an inner ring 3..11 and a centre 12, so H_1 = Z/3
MOORE3_TRIANGLES = [t for i in range(9) for t in (
    (i % 3, (i + 1) % 3, 3 + i), ((i + 1) % 3, 3 + i, 3 + (i + 1) % 9),
    (3 + i, 3 + (i + 1) % 9, 12))]


def test_component_sum_merges_torsion_into_invariant_factors(monkeypatch):
    from dircomplex import topology
    rp2, moore3 = _face_poset(RP2_TRIANGLES), _face_poset(MOORE3_TRIANGLES)
    assert homology(rp2) == [(1, []), (0, [2]), (0, [])]
    assert homology(moore3) == [(1, []), (0, [3]), (0, [])]
    calls = []
    _spy(monkeypatch, topology, "_component_sum", calls)
    # the non-cellular third piece sends the union to the component sum;
    # its torsion reads as the whole nerve's: Z/2 + Z/3 = Z/6
    for pieces, torsion in (((rp2, moore3), [6]), ((rp2, rp2), [2, 2])):
        calls.clear()
        u = _disjoint(*pieces, NON_CELLULAR[1])
        h = homology(u)
        assert calls[0] == "_component_sum"
        assert h[1][1] == torsion
        assert h == homology(nerve(u))


def test_homology_beside_a_non_cellular_atom_builds_no_nerve(monkeypatch):
    # both components have a greatest element, so each is a point; the
    # whole nerve has 94,608 simplices and takes 1.4 s
    from dircomplex import topology
    from dircomplex.construct import amalgamate
    p = amalgamate(simplex(6), PARALLEL_INPUT, {})[0]
    calls = []
    _spy(monkeypatch, topology, "nerve", calls)
    start = time.perf_counter()
    assert homology(p) == [(2, [])] + [(0, [])] * 6
    assert time.perf_counter() - start < 0.25
    assert calls == []


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rows=st.integers(0, 4))
def test_sparse_kernel_matches_dense_smith(data, rows):
    # empty columns, an all-empty input and entries other than +-1 too
    entry = st.sampled_from([1, -1, 2, -2, 3, -4, 6, 12])
    cols = data.draw(st.lists(
        st.dictionaries(st.integers(0, rows - 1), entry, max_size=rows)
        if rows else st.just({}), max_size=5))
    copy = [dict(c) for c in cols]
    dense = [[c.get(r, 0) for c in cols] for r in range(rows)]
    assert sorted(_invariants(cols)) == _smith_diagonal(dense) == \
        _determinantal_invariants(dense)
    assert cols == copy  # the kernel works on its own copy
