import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dircomplex import (
    OgPoset, ClosedSubset, PosetMap,
    is_molecule, is_atom, toplevel_decomposition, has_spherical_boundary,
    is_regular_complex, is_totally_loop_free, find_submolecule, NotAMolecule,
    composable, enumerate_molecules,
    paste, globe, simplex, cube, phi, gray, gen_corpus,
)
from dircomplex import molecule
from dircomplex.cli import run
from dircomplex.molecule import MoleculeCert, _next_code, _splits
from dircomplex.ogposet import bits, _shape

from test_topology import _oriented_graded_posets, _pool, _with_copied_atom

_POOL = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "pool"


def test_globes_are_atoms():
    for n in range(5):
        cert = is_molecule(globe(n).whole())
        assert cert is not None and cert.is_atom
        assert is_atom(globe(n).whole())


def test_path_is_a_paste_of_two_atoms():
    p = paste(globe(1), globe(1), 0).whole
    cert = is_molecule(p.whole())
    assert cert is not None and not cert.is_atom
    assert cert.k == 0
    assert cert.left.is_atom and cert.right.is_atom
    assert cert.verify()


def test_two_disjoint_points_are_not_a_molecule():
    p = OgPoset.from_records([{"dim": 0, "minus": [], "plus": []},
                              {"dim": 0, "minus": [], "plus": []}])
    assert is_molecule(p.whole()) is None
    assert is_molecule(ClosedSubset(p, 0)) is None


def test_boundary_of_globe_is_not_an_atom():
    bd = globe(2).whole().boundary()
    assert not is_atom(bd)
    assert is_atom(simplex(2).whole())


def test_certificates_reverify(corpus_members):
    for name, p in corpus_members:
        cert = is_molecule(p.whole())
        assert cert is not None, name
        assert cert.verify(), name


def test_toplevel_decomposition_atom():
    cert = is_molecule(globe(3).whole())
    parts, k = toplevel_decomposition(cert)
    assert len(parts) == 1 and parts[0].mask == globe(3).all_mask


def test_toplevel_decomposition_vertical_pair():
    p = paste(globe(2), globe(2), 1).whole
    cert = is_molecule(p.whole())
    parts, k = toplevel_decomposition(cert)
    assert k == 1 and len(parts) == 2
    union = 0
    for part in parts:
        union |= part.mask
        tops = [t for t in part.maximal() if p.dims[t] > k]
        assert len(tops) == 1
    assert union == p.all_mask
    # consecutive parts compose: bd+ of one equals bd- of the next
    for a, b in zip(parts, parts[1:]):
        inter = a.mask & b.mask
        assert a.boundary(+1, k).mask == inter == b.boundary(-1, k).mask


def test_toplevel_decomposition_phi_output():
    ph = phi(3)
    out = ph.whole.whole().boundary(+1)
    cert = is_molecule(out)
    parts, k = toplevel_decomposition(cert)
    assert k == 1 and len(parts) == 2
    for part in parts:
        assert is_atom(part)


def test_spherical_globes_simplices():
    for n in range(5):
        assert has_spherical_boundary(is_molecule(globe(n).whole()))
    for n in range(5):
        assert has_spherical_boundary(is_molecule(simplex(n).whole()))


def test_spherical_path():
    p = paste(globe(1), globe(1), 0).whole
    assert has_spherical_boundary(is_molecule(p.whole()))


def test_spherical_molecules_are_pure_with_disjoint_poles(corpus_members):
    for name, p in corpus_members:
        cert = is_molecule(p.whole())
        if not has_spherical_boundary(cert):
            continue
        w = p.whole()
        assert w.is_pure, name
        if p.dim > 0:
            minus = w.boundary(-1)
            plus = w.boundary(+1)
            top_minus = minus.mask & p.dim_mask(p.dim - 1)
            top_plus = plus.mask & p.dim_mask(p.dim - 1)
            assert top_minus and top_plus, name
            assert not (top_minus & top_plus), name


def test_regular_families():
    for n in range(5):
        assert is_regular_complex(globe(n))
    for n in range(5):
        assert is_regular_complex(simplex(n))
    for n in range(4):
        assert is_regular_complex(cube(n))


def test_not_regular_when_an_input_face_set_is_empty():
    # a 1-cell with only an output vertex: its input boundary is empty
    p = OgPoset.from_records([{"dim": 0, "minus": [], "plus": []},
                              {"dim": 1, "minus": [], "plus": [0]}])
    assert not is_regular_complex(p)


def test_loop_freeness():
    for n in range(5):
        assert is_totally_loop_free(globe(n))
    assert is_totally_loop_free(simplex(3))
    cyc = OgPoset.from_records([
        {"dim": 0, "minus": [], "plus": []},
        {"dim": 0, "minus": [], "plus": []},
        {"dim": 1, "minus": [0], "plus": [1]},
        {"dim": 1, "minus": [1], "plus": [0]},
    ])
    assert is_regular_complex(cyc)  # regular, yet looping
    assert not is_totally_loop_free(cyc)


def _loop_free_by_dfs(p: OgPoset) -> bool:
    """The library's earlier test: an iterative depth-first search for a
    directed cycle, + faces after the element and - faces before it."""
    succ = [[] for _ in range(p.size)]
    for y in range(p.size):
        for x in bits(p.faces_plus[y]):
            succ[y].append(x)
        for x in bits(p.faces_minus[y]):
            succ[x].append(y)
    state = [0] * p.size  # 0 new, 1 on stack, 2 done
    for start in range(p.size):
        if state[start]:
            continue
        stack = [(start, iter(succ[start]))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state[nxt] == 1:
                    return False
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()
    return True


def test_loop_freeness_matches_dfs_on_corpus(corpus_members):
    for name, p in corpus_members:
        assert is_totally_loop_free(p) == _loop_free_by_dfs(p), name
        for x in range(p.size):
            q = ClosedSubset(p, p.down[x]).boundary().extract()[0]
            assert is_totally_loop_free(q) == _loop_free_by_dfs(q), (name, x)


@settings(max_examples=300, deadline=None)
@given(p=_oriented_graded_posets())
def test_loop_freeness_matches_dfs_on_random_posets(p):
    assert is_totally_loop_free(p) == _loop_free_by_dfs(p)


def test_find_submolecule_reflexive_and_generator():
    p = paste(globe(2), globe(2), 1).whole
    cert = is_molecule(p.whole())
    assert find_submolecule(cert, cert) == []
    chain = find_submolecule(cert.left, cert)
    assert chain is not None and len(chain) == 1


def test_find_submolecule_refuses_certificates_of_two_posets():
    # the masks of one poset name other elements in another
    p = paste(globe(1), globe(1), 0).whole
    q = paste(globe(2), globe(2), 0).whole
    with pytest.raises(ValueError):
        find_submolecule(is_molecule(p.closure([3])), is_molecule(q.whole()))


def test_long_chain_is_recognized_within_the_recursion_limit():
    # a chain of n arrows is the pasting of its first arrow with the rest,
    # so recognition nests n - 1 splits deep: one stack frame per level
    n = 700
    p = OgPoset([0] * (n + 1) + [1] * n, [0] * (n + 1)
                + [1 << i for i in range(n)], [0] * (n + 1)
                + [1 << i + 1 for i in range(n)])
    cert = is_molecule(p.whole())
    assert cert is not None and cert.k == 0


def test_find_submolecule_after_interrupted_search(monkeypatch):
    # a search cut short by an exception must leave nothing in the memo
    # that hides a real submolecule from later searches on the same poset
    from dircomplex import molecule
    pr = paste(globe(2), globe(2), 1)
    cu = is_molecule(pr.whole.whole())
    cv = is_molecule(pr.left_incl.image(globe(2).whole()))
    real = molecule._splits
    calls = []

    def interrupted(p, mask):
        calls.append(mask)
        if len(calls) == 1:
            raise RuntimeError("interrupted")
        return real(p, mask)

    monkeypatch.setattr(molecule, "_splits", interrupted)
    with pytest.raises(RuntimeError):
        find_submolecule(cv, cu)
    monkeypatch.undo()
    assert find_submolecule(cv, cu) == [(47, 91, "left")]


def test_atom_boundary_is_submolecule_of_molecule_boundary():
    # a molecule with a single top atom: a whiskered 2-cell
    p = paste(globe(2), globe(1), 0).whole
    w = p.whole()
    top = [t for t in w.maximal() if p.dims[t] == 2][0]
    for sign in (-1, +1):
        part = ClosedSubset(p, p.down[top]).boundary(sign)
        whole_bd = w.boundary(sign)
        cv = is_molecule(part)
        cb = is_molecule(whole_bd)
        assert find_submolecule(cv, cb) is not None


def test_codimension_one_coface_counts(corpus_members):
    for name, p in corpus_members:
        w = p.whole()
        n = p.dim
        if n == 0:
            continue
        minus = {x for x in w.elements_of_dim(n - 1)
                 if not (p.cofaces_plus[x] & w.mask)}
        plus = {x for x in w.elements_of_dim(n - 1)
                if not (p.cofaces_minus[x] & w.mask)}
        for x in w.elements_of_dim(n - 1):
            cofs = [(y, s) for s in (-1, +1)
                    for y in bits(p.cofaces(x, s) & w.mask)]
            if x in minus and x in plus:
                assert len(cofs) == 0, name
            elif x in minus or x in plus:
                assert len(cofs) == 1, name
            else:
                assert len(cofs) == 2, name
                assert {s for _, s in cofs} == {-1, +1}, name


def test_invalid_certificate_rejected():
    p = paste(globe(1), globe(1), 0).whole
    cert = is_molecule(p.whole())
    from dircomplex.molecule import MoleculeCert
    bogus = MoleculeCert(p, cert.mask, cert.left, cert.left, 0)
    assert not bogus.verify()
    with pytest.raises(NotAMolecule) as exc:
        toplevel_decomposition(bogus)
    assert str(exc.value) == \
        "invalid certificate: maximal elements [3, 4], dim 1"


def test_verify_refuses_a_pasting_below_dimension_zero():
    # two disjoint points meet in their empty (-1)-boundaries, but there is
    # no pasting at k < 0, and a k that is no integer is no pasting either
    p = OgPoset([0, 0], [0, 0], [0, 0])
    a, b = MoleculeCert(p, 1), MoleculeCert(p, 2)
    assert is_molecule(p.whole()) is None
    assert not composable(a.subset, b.subset, -1)
    for k in (-1, -2, None, 0.0, "0", True):
        assert composable(a.subset, b.subset, k) is False, k
        assert MoleculeCert(p, 3, a, b, k).verify() is False, k
    arrow = paste(globe(1), globe(1), 0).whole
    cert = is_molecule(arrow.whole())
    assert cert.verify()
    assert replace(cert, k=-1).verify() is False
    assert replace(cert, k=None).verify() is False


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_rejects_one_broken_node(corpus_members, data):
    # break one node of a recognized certificate, rebuild the nodes above
    # it, and verify() must answer False without raising
    _, p = data.draw(st.sampled_from(corpus_members))
    gens = data.draw(st.lists(st.integers(0, p.size - 1), min_size=1,
                              max_size=4))
    cert = is_molecule(p.closure(gens)) or is_molecule(p.whole())
    assert cert is not None and cert.verify()
    path, node = [], cert
    while not node.is_atom and data.draw(st.booleans()):
        side = data.draw(st.sampled_from(("left", "right")))
        path.append((node, side))
        node = getattr(node, side)
    kinds = ["range"] + (["atom"] if node.is_atom else
                         ["k-1", "k+1", "left", "right"])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "range":  # an element the poset does not have
        extra = data.draw(st.integers(p.size, p.size + 70))
        bad = replace(node, mask=node.mask | 1 << extra)
    elif kind == "atom":  # no longer the closure of its highest element
        top = node.mask.bit_length() - 1
        j = data.draw(st.integers(0, p.size - 1).filter(lambda j: j != top))
        bad = replace(node, mask=node.mask ^ 1 << j)
    elif kind in ("k-1", "k+1"):  # bd_k of a molecule has dimension k
        bad = replace(node, k=node.k + (1 if kind == "k+1" else -1))
    else:  # a part that is the node itself
        bad = replace(node, **{kind: node})
    for above, side in reversed(path):
        bad = replace(above, **{side: bad})
    assert bad.verify() is False


def test_verify_checks_each_shared_node_once(monkeypatch):
    # the certificate of simplex 6's input boundary shares its nodes along
    # many paths; each pasting node is checked once, not once per path
    cert = is_molecule(simplex(6).whole().boundary(-1))
    nodes, todo = {}, [cert]
    while todo:
        node = todo.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            if not node.is_atom:
                todo += [node.left, node.right]
    pastings = sum(not node.is_atom for node in nodes.values())
    calls = []
    real = molecule.composable

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(molecule, "composable", spy)
    assert cert.verify()
    assert len(calls) == pastings


def test_boundaries_have_exact_dimension(corpus_members):
    # in a regular ambient complex the k-boundary of a molecule is
    # k-dimensional for every k below the molecule's dimension
    for name, p in corpus_members:
        w = p.whole()
        for k in range(p.dim):
            for sign in (-1, +1):
                assert w.boundary(sign, k).dim == k, (name, k, sign)


def test_corpus_members_are_regular(corpus_members):
    for name, p in corpus_members:
        assert is_regular_complex(p), name


def test_class_tag():
    # the 2-globe has spherical boundary, is totally loop-free and lives in
    # a regular complex
    u = globe(2).whole()
    assert has_spherical_boundary(is_molecule(u))
    assert is_totally_loop_free(u.extract()[0])
    assert is_regular_complex(u.parent)


def test_toplevel_decomposition_explicit_k():
    # a horizontal pair splits at the interchange level by default, but the
    # 0-glued form can be forced
    p = paste(globe(2), globe(2), 0).whole
    cert = is_molecule(p.whole())
    parts, k = toplevel_decomposition(cert, k=0)
    assert k == 0 and len(parts) == 2
    for part in parts:
        tops = [t for t in part.maximal() if p.dims[t] > 0]
        assert len(tops) == 1
    # at or above the dimension there is no split, and no top above k
    for k in (2, 3):
        with pytest.raises(NotAMolecule, match=f"0 atoms above dimension {k}"):
            toplevel_decomposition(cert, k)


# -- the split walk against the exhaustive scan it replaced -----------------

def _pair_admissible_by_definition(p, a, b, k):
    shared = p.down[a] & p.down[b]
    if shared & p.mask_above(k):
        return False
    for z in bits(shared & p.dim_mask(k)):
        if p.cofaces_minus[z] & p.down[a]:
            return False
        if p.cofaces_plus[z] & p.down[b]:
            return False
    return True


def _scan_splits(u):
    """Every verified split of u by a scan over all 2^t - 2 bipartitions."""
    p = u.parent
    maximals = [i for i in bits(u.mask) if not p.cofaces(i) & u.mask]
    found = []
    for k in range(u.dim - 1, -1, -1):
        tops = [t for t in maximals if p.dims[t] > k]
        t = len(tops)
        if t < 2:
            continue
        ok = [[_pair_admissible_by_definition(p, a, b, k) for b in tops]
              for a in tops]
        for code in range(1, (1 << t) - 1):
            if not all(ok[i][j] for i in range(t) for j in range(t)
                       if code >> i & 1 and not code >> j & 1):
                continue
            a_mask = b_mask = 0
            for i in range(t):
                if code >> i & 1:
                    a_mask |= p.down[tops[i]]
                else:
                    b_mask |= p.down[tops[i]]
            rest = u.mask & ~(a_mask | b_mask)
            ik = 0
            for z in bits(u.mask & p.dim_mask(k)):
                if not (p.cofaces_minus[z] & a_mask
                        or p.cofaces_plus[z] & b_mask):
                    ik |= 1 << z
            inter = p.closure_mask(ik) | rest
            lmask, rmask = a_mask | inter, b_mask | inter
            if lmask == u.mask or rmask == u.mask or lmask & rmask != inter:
                continue
            if ClosedSubset(p, lmask).boundary(+1, k).mask != inter:
                continue
            if ClosedSubset(p, rmask).boundary(-1, k).mask != inter:
                continue
            found.append((lmask, rmask, k))
    return found


def _split_test_subsets(p, rng, unions):
    w = p.whole()
    yield w
    for k in range(p.dim):
        for sign in (-1, +1):
            yield w.boundary(sign, k)
    for x in range(p.size):
        yield ClosedSubset(p, p.down[x])
    for _ in range(unions):
        size = min(p.size, rng.randint(2, 5))
        yield p.closure(rng.sample(range(p.size), size))


_SCAN_SHAPES = {"simplex5": simplex(5), "cube4": cube(4),
                "gray-simplex2-globe2": gray(simplex(2), globe(2))}


@pytest.mark.parametrize("source", [0, 1, 2, *_SCAN_SHAPES])
def test_split_walk_matches_exhaustive_scan(source):
    rng = random.Random(source)
    if source in _SCAN_SHAPES:
        posets = {source: _SCAN_SHAPES[source]}.items()
        unions, least = 100, 100
    else:
        posets = gen_corpus(seed=source).items()
        unions, least = 10, 500
    checked = split = 0
    for name, p in posets:
        seen = set()
        for u in _split_test_subsets(p, rng, unions):
            if u.mask in seen:
                continue
            seen.add(u.mask)
            got = list(_splits(p, u.mask))
            assert got == _scan_splits(u), (source, name, bin(u.mask))
            checked += 1
            split += bool(got)
    assert checked > least and split > 30


def _first_by_scan(p, mask, memo):
    """The first certificate of mask by recursion over ``_scan_splits``: an
    atom, or the first scanned split whose two parts are molecules."""
    if mask not in memo:
        cert = None
        if p.down[mask.bit_length() - 1] == mask:
            cert = MoleculeCert(p, mask)
        else:
            for lmask, rmask, k in _scan_splits(ClosedSubset(p, mask)):
                left = _first_by_scan(p, lmask, memo)
                right = (None if left is None
                         else _first_by_scan(p, rmask, memo))
                if right is not None:
                    cert = MoleculeCert(p, mask, left, right, k)
                    break
        memo[mask] = cert
    return memo[mask]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_first_certificate_matches_the_scan_recursion(corpus_members, data):
    # unions of cells of dimension 2 or more, or their boundaries, split
    # more often than closures of random elements; recognition runs on a
    # fresh copy, so that no earlier test's memo answers
    _, p = data.draw(st.sampled_from(
        corpus_members + sorted(_SCAN_SHAPES.items())))
    cells = [x for x in range(p.size) if p.dims[x] >= min(2, p.dim)]
    u = p.closure(data.draw(st.lists(st.sampled_from(cells), min_size=1,
                                     max_size=4)))
    if u.dim > 0 and data.draw(st.booleans()):
        u = u.boundary(data.draw(st.sampled_from((-1, +1))))
    fresh = OgPoset(p.dims, p.faces_minus, p.faces_plus)
    cert = is_molecule(ClosedSubset(fresh, u.mask))
    ref = _first_by_scan(p, u.mask, {})
    assert (cert is None) == (ref is None)
    if cert is not None:
        assert cert.to_json() == ref.to_json()
        assert cert.verify() and ref.verify()


def test_a_failed_first_split_resumes_at_its_own_k():
    # two arrows, one without an input and one without an output vertex:
    # the first split's left part is two points and an arrow, which does
    # not split, and the certificate is the next split at the same k
    p = OgPoset([0, 0, 1, 1], [0, 0, 0, 2], [0, 0, 1, 0])
    assert list(_splits(p, p.all_mask)) == [(7, 11, 0), (10, 5, 0)]
    assert is_molecule(ClosedSubset(p, 7)) is None
    cert = is_molecule(p.whole())
    assert cert.to_json() == _first_by_scan(p, p.all_mask, {}).to_json() \
        == '{"k":0,"left":{"atom":3},"right":{"atom":2}}'


def _decomposition_by_scan(cert, k, scan, mols):
    """``toplevel_decomposition`` in the order of a generator of every
    molecule split: each scanned split of a part is read, those at another
    gluing dimension skipped, and the first into two molecules taken.  The
    part masks and k, or NotAMolecule."""
    p = cert.parent
    if k is None:
        k = cert.subset.dim - 1 if cert.is_atom else cert.k

    def flat(mask):
        for lmask, rmask, kk in scan(mask):
            if (kk == k and _first_by_scan(p, lmask, mols) is not None
                    and _first_by_scan(p, rmask, mols) is not None):
                return flat(lmask) + flat(rmask)
        return [mask]

    parts = flat(cert.mask)
    for mask in parts:
        if sum(p.dims[t] > k for t in ClosedSubset(p, mask).maximal()) != 1:
            return NotAMolecule
    return parts, k


def _submolecule_by_scan(p, target, cur, scan, mols, memo):
    """``find_submolecule``'s witness from cur down to target, reading the
    scanned splits of each subset whose two parts are molecules."""
    if cur == target:
        return []
    if cur not in memo:
        memo[cur] = None
        for lmask, rmask, _ in scan(cur):
            if (_first_by_scan(p, lmask, mols) is None
                    or _first_by_scan(p, rmask, mols) is None):
                continue
            for side, part in (("left", lmask), ("right", rmask)):
                if target & ~part == 0:
                    tail = _submolecule_by_scan(p, target, part, scan, mols,
                                                memo)
                    if tail is not None:
                        memo[cur] = [(lmask, rmask, side)] + tail
                        return memo[cur]
    return memo[cur]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decompositions_and_witnesses_match_the_scan_order(corpus_members,
                                                            data):
    # toplevel_decomposition stops its split walk below its k, and
    # find_submolecule tests both parts of each split it walks; both must
    # answer as a reading of every scanned molecule split does
    p = data.draw(st.one_of(_oriented_graded_posets(), st.sampled_from(
        [q for _, q in corpus_members + sorted(_SCAN_SHAPES.items())])))
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    masks = {u.mask for u in _split_test_subsets(p, rng, 3)}
    split = sorted(m for m in masks if p.down[m.bit_length() - 1] != m)
    u = ClosedSubset(p, data.draw(st.sampled_from(split or sorted(masks))))
    fresh = OgPoset(p.dims, p.faces_minus, p.faces_plus)
    cert = is_molecule(ClosedSubset(fresh, u.mask))
    scans, mols = {}, {}

    def scan(mask):
        if mask not in scans:
            scans[mask] = _scan_splits(ClosedSubset(p, mask))
        return scans[mask]

    ref = _first_by_scan(p, u.mask, mols)
    assert (cert is None) == (ref is None)
    if cert is None:
        return
    for k in [None, *range(u.dim)]:
        try:
            parts, kk = toplevel_decomposition(cert, k)
            got = [q.mask for q in parts], kk
        except NotAMolecule:
            got = NotAMolecule
        assert got == _decomposition_by_scan(ref, k, scan, mols), k
    for x in bits(u.mask):
        v = is_molecule(ClosedSubset(fresh, p.down[x]))
        assert find_submolecule(v, cert) == _submolecule_by_scan(
            p, p.down[x], u.mask, scan, mols, {}), x


def test_find_submolecule_skips_a_split_whose_right_part_is_no_molecule():
    # arrows 2: () -> 1, 3: 0 -> () and 4: () -> 0; the first split of the
    # whole puts arrow 2 alone on the left, a molecule, and the rest, which
    # is no molecule, on the right: the witness for arrow 2 passes it by
    p = OgPoset([0, 0, 1, 1, 1], [0, 0, 0, 1, 0], [0, 0, 2, 0, 1])
    assert next(_splits(p, p.all_mask)) == (6, 27, 0)
    assert is_molecule(ClosedSubset(p, 27)) is None
    assert find_submolecule(is_molecule(ClosedSubset(p, 6)),
                            is_molecule(p.whole())) \
        == [(17, 15, "right"), (9, 6, "right")]


def test_threads_recognizing_one_poset_get_the_same_certificates():
    # four threads fill one poset's memo and split table at once, switching
    # every microsecond; each must get whole certificates, equal to one
    # thread's on its own copy
    base = simplex(6)
    p = OgPoset(base.dims, base.faces_minus, base.faces_plus)
    alone = OgPoset(base.dims, base.faces_minus, base.faces_plus)
    want = [(True, is_molecule(alone.whole().boundary(s)).to_json())
            for s in (-1, +1)]
    got = []
    start = threading.Barrier(4)

    def work():
        start.wait()
        certs = [is_molecule(p.whole().boundary(s)) for s in (-1, +1)]
        got.append([(c.verify(), c.to_json()) for c in certs])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert got == [want] * 4


def _relation_rows(t):
    row = st.lists(st.integers(0, t - 1), max_size=3).map(
        lambda js: sum({1 << j for j in js}))
    return st.lists(row, min_size=t, max_size=t)


@settings(max_examples=300, deadline=None)
@given(forced=st.integers(1, 9).flatmap(_relation_rows))
def test_closed_codes_are_the_closed_bipartitions_in_order(forced):
    # with top j's closure the single bit j, top i forces exactly the tops
    # whose bits its reach mask holds: the relation is ``forced`` itself
    t = len(forced)
    want = [c for c in range(1, (1 << t) - 1)
            if all(forced[i] & ~c == 0 for i in bits(c))]
    downs, rows, got, code = [1 << j for j in range(t)], [-1] * t, [], 0
    while code := _next_code(downs, forced, rows, code):
        got.append(code)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_forcing_rows_match_pair_definition(corpus_members, data):
    # a on the left forces b on the left exactly when a may not sit left
    # of b, i.e. when cl{b} meets the reach mask of a
    _, p = data.draw(st.sampled_from(corpus_members))
    gens = data.draw(st.lists(st.integers(0, p.size - 1), min_size=1,
                              max_size=6))
    u = p.closure(gens)
    for k in range(u.dim):
        tops = [t for t in u.maximal() if p.dims[t] > k]
        for a in tops:
            reach = molecule._split_row(p, a)[k][2]
            for b in tops:
                if a != b:
                    assert bool(p.down[b] & reach) == \
                        (not _pair_admissible_by_definition(p, a, b, k))


def _nested(c):
    """The certificate written out as a tree, with no sharing."""
    if c.is_atom:
        return {"atom": c.mask.bit_length() - 1}
    return {"k": c.k, "left": _nested(c.left), "right": _nested(c.right)}


def _spherical_by_reference(cert):
    u = cert.subset
    return all(u.boundary(+1, k).mask & u.boundary(-1, k).mask
               == u.boundary(None, k - 1).mask for k in range(u.dim))


def _regular_by_reference(u):
    """``is_regular_complex`` with each clause computing its own boundaries."""
    p = u.parent
    for x in bits(u.mask):
        d = p.dims[x]
        if d == 0:
            continue
        cl = ClosedSubset(p, p.down[x])
        bd = {}
        for sign in (-1, +1):
            bd[sign] = cl.boundary(sign)
            if is_molecule(bd[sign]) is None:
                return False
        if d > 1:
            for sign in (-1, +1):
                for sign2 in (-1, +1):
                    if bd[sign2].boundary(sign).mask != \
                            cl.boundary(sign, d - 2).mask:
                        return False
        cert = is_molecule(cl)
        if cert is None or not _spherical_by_reference(cert):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(p=_oriented_graded_posets(), data=st.data())
def test_regularity_and_sphericity_match_their_references(p, data):
    # random signed faces: regular and non-regular posets both occur
    gens = data.draw(st.lists(st.integers(0, p.size - 1), min_size=1,
                              max_size=4))
    for u in (p.whole(), p.closure(gens), p.closure(gens).boundary()):
        assert is_regular_complex(u) == _regular_by_reference(u)
        cert = is_molecule(u)
        if cert is not None:
            assert has_spherical_boundary(cert) == \
                _spherical_by_reference(cert)


def _invariant(p, x):
    """The numbers of - and + faces of x and of elements of its closure
    per dimension: counts that two closures can share while their shapes
    differ."""
    cl = p.down[x]
    return (p.faces_minus[x].bit_count(), p.faces_plus[x].bit_count(),
            *[(cl & p.dim_mask(k)).bit_count() for k in range(p.dims[x])])


def test_equal_shapes_are_isomorphic_closures(corpus_members):
    # wherever one atom's verdict stands for another's, the one filed first
    # under their closures' _shape key, the order-preserving bijection of
    # their closures is a map both ways, so an isomorphism
    compared = equal = 0
    for _, p in corpus_members + list(_pool()):
        first, copies = {}, {}
        for x in range(p.size):
            if p.dims[x]:
                compared += 1
                copies[x] = ClosedSubset(p, p.down[x]).extract()[0]
                y = first.setdefault(_shape(p, p.down[x]), x)
                if y != x:
                    equal += 1
                    for a, b in ((x, y), (y, x)):
                        PosetMap(copies[a], copies[b],
                                 tuple(range(copies[a].size))).check()
    assert 0 < equal < compared


def _two_cells(*reversed_b):
    """One component per flag: the 2-cell a, b => c over a: s -> m,
    b: m -> t (t -> m if the flag is set) and c: s -> t."""
    records = []
    for rev in reversed_b:
        s, m, t, a, b, c = range(len(records), len(records) + 6)
        records += [(0, [], []), (0, [], []), (0, [], []), (1, [s], [m]),
                    (1, [t], [m]) if rev else (1, [m], [t]), (1, [s], [t]),
                    (2, [a, b], [c])]
    return OgPoset.from_records(records)


@pytest.mark.parametrize("reversed_b", [(False, True), (True, False)])
def test_shapes_tell_signs_apart(reversed_b):
    # both 2-cells agree in their face counts and as unsigned posets, but only
    # the one with b: m -> t is regular (a, b: t -> m is no molecule); the
    # other must be checked whichever of them comes first
    p = _two_cells(*reversed_b)
    x, y = p.elements_of_dim(2)
    unsigned = OgPoset(p.dims, [m | q for m, q in zip(p.faces_minus,
                                                      p.faces_plus)],
                       [0] * p.size)
    assert _invariant(p, x) == _invariant(p, y)
    assert _shape(unsigned, p.down[x]) == _shape(unsigned, p.down[y])
    assert _shape(p, p.down[x]) != _shape(p, p.down[y])
    assert [is_regular_complex(p.closure([z])) for z in (x, y)] == \
        [not rev for rev in reversed_b]
    assert not is_regular_complex(p)
    assert not _regular_by_reference(p.whole())


@settings(max_examples=400, deadline=None)
@given(drawn=_with_copied_atom())
def test_regularity_matches_reference_beside_a_copied_atom(drawn):
    # the random posets of the test above seldom hold two atoms of one shape
    q, tops = drawn
    for u in (q.whole(), q.closure(tops)):
        assert is_regular_complex(u) == _regular_by_reference(u)


@settings(max_examples=300, deadline=None)
@given(p=_oriented_graded_posets())
def test_round_atoms_are_globular(p):
    # the lemma that lets is_regular_complex skip globularity: wherever
    # bd-_{d-1} ∩ bd+_{d-1} = bd_{d-2} on cl{x}, both (d-1)-boundaries have
    # cl{x}'s (d-2)-boundaries, whether or not they are molecules
    for x in range(p.size):
        d = p.dims[x]
        if d < 2:
            continue
        cl = ClosedSubset(p, p.down[x])
        minus, plus = cl.boundary(-1), cl.boundary(+1)
        if minus.mask & plus.mask != cl.boundary(None, d - 2).mask:
            continue
        for sign in (-1, +1):
            want = cl.boundary(sign, d - 2).mask
            assert minus.boundary(sign, d - 2).mask == want, (x, sign)
            assert plus.boundary(sign, d - 2).mask == want, (x, sign)


def _assert_renders_as_json_dumps(cert, level):
    tree = _nested(cert)
    assert cert.to_json() == json.dumps(tree, separators=(",", ":"))
    indented = json.dumps(tree, indent=2).replace("\n", "\n" + "  " * level)
    assert cert.to_json(2, level) == indented


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certificate_text_is_json_dumps_of_the_unshared_tree(corpus_members,
                                                             data):
    # nodes up to _KEPT_TEXT characters are reused as text and longer ones
    # written as parts; small limits send corpus certificates down both paths
    _, p = data.draw(st.sampled_from(corpus_members))
    gens = data.draw(st.lists(st.integers(0, p.size - 1), min_size=1,
                              max_size=5))
    u = p.closure(gens)
    subsets = [u, u.boundary()]
    if u.dim >= 1:
        k = data.draw(st.integers(0, u.dim - 1))
        subsets.append(u.boundary(data.draw(st.sampled_from((-1, +1))), k))
    level = data.draw(st.integers(0, 3))
    kept = molecule._KEPT_TEXT
    molecule._KEPT_TEXT = data.draw(st.sampled_from((0, 40, 200, kept)))
    try:
        for v in subsets:
            cert = is_molecule(v)
            if cert is not None:
                _assert_renders_as_json_dumps(cert, level)
    finally:
        molecule._KEPT_TEXT = kept


def test_simplex7_boundary_certificate_bytes_are_pinned():
    # the pool's recorded digest of the compact output (772,314 bytes), and
    # the indented output's digest at the commit before MoleculeCert.to_json
    path = str(_POOL / "simplex7.json")
    for flag, want in (
            (["--json"], "b3e578ce38c3d9a7f60135a7562424a3"
                         "753fc0e6628071952b83157deb94fec8"),
            ([], "c205ae0ec381cdcc4cee2bb8056154cc"
                 "6ce173420c362d55b247c2c52f1cbb2d")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run([*flag, "check", "molecule", path,
                        "--subset", "247,249,251,253"])
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want


def test_large_certificate_renders_as_json_dumps():
    # 1,320 distinct nodes, 772 kB compact: the parts path at the real limit
    p = OgPoset.from_json((_POOL / "simplex7.json").read_text())
    cert = is_molecule(p.closure([247, 249, 251, 253]))
    assert cert.verify()
    for level in (0, 1):
        _assert_renders_as_json_dumps(cert, level)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_composable_agrees_with_its_two_boundaries(corpus_members, data):
    # the early refusal (a common element above dimension k) must give the
    # answer that comparing both k-boundaries with the intersection gives;
    # there is no pasting at k < 0, though both (-1)-boundaries are empty
    _, p = data.draw(st.sampled_from(corpus_members))
    tops = st.lists(st.integers(0, p.size - 1), min_size=1, max_size=4)
    a = p.closure(data.draw(tops))
    b = p.closure(data.draw(tops))
    empty = ClosedSubset(p, 0)
    for u, v in ((a, b), (b, a), (a, a.boundary(+1)), (a.boundary(-1), a),
                 (a, empty), (empty, b), (empty, empty)):
        inter = u.mask & v.mask
        for k in range(-1, p.dim + 2):  # k >= dim takes the whole subset
            assert composable(u, v, k) == (
                k >= 0 and u.boundary(+1, k).mask == inter
                and v.boundary(-1, k).mask == inter), k


def test_composable_refuses_subsets_of_different_posets():
    with pytest.raises(ValueError, match="subsets of different posets"):
        composable(ClosedSubset(globe(1), 1), ClosedSubset(simplex(2), 1), 0)


def test_verify_refuses_parts_of_another_poset():
    # Q is the path 0 -> 1 -> 2 and P the cospan 0 -> 1 <- 2, with the same
    # elements and masks: Q's pasting is no certificate of P
    q = OgPoset((0, 0, 0, 1, 1), (0, 0, 0, 0b001, 0b010),
                (0, 0, 0, 0b010, 0b100))
    p = OgPoset((0, 0, 0, 1, 1), (0, 0, 0, 0b001, 0b100),
                (0, 0, 0, 0b010, 0b010))
    assert is_molecule(p.whole()) is None
    left, right = MoleculeCert(q, 0b01011), MoleculeCert(q, 0b10110)
    assert MoleculeCert(q, 0b11111, left, right, 0).verify()
    assert MoleculeCert(p, 0b11111, left, right, 0).verify() is False


def _molecules_by_pairs(p):
    """Every molecule mask of p, ascending: the atoms closed under pasting
    by trying each known molecule against each new one, in both orders and
    at every k below the larger dimension."""
    found = {p.down[x]: ClosedSubset(p, p.down[x]) for x in range(p.size)}
    frontier = list(found.values())
    while frontier:
        fresh = []
        for a in list(found.values()):
            for b in frontier:
                for left, right in ((a, b), (b, a)):
                    u = left.mask | right.mask
                    if u in found:
                        continue
                    if any(composable(left, right, k)
                           for k in range(max(left.dim, right.dim))):
                        found[u] = ClosedSubset(p, u)
                        fresh.append(found[u])
        frontier = fresh
    return sorted(found)


@settings(max_examples=200, deadline=None)
@given(p=_oriented_graded_posets())
def test_molecule_closure_matches_pairwise_closure_on_random_posets(p):
    assert [s.mask for s in enumerate_molecules(p)] == _molecules_by_pairs(p)


def test_molecule_closure_matches_pairwise_closure_on_corpus(corpus_members):
    for name, p in corpus_members:
        if p.size <= 40:
            assert [s.mask for s in enumerate_molecules(p)] \
                == _molecules_by_pairs(p), name


def test_molecule_closure_counts_are_pinned():
    pool = OgPoset.from_json((_POOL / "C4-1.json").read_text())
    assert len(enumerate_molecules(cube(4))) == 521
    assert len(enumerate_molecules(pool)) == 868
