import pytest

from dircomplex import (
    OgPoset, ClosedSubset,
    is_molecule, is_atom, toplevel_decomposition, has_spherical_boundary,
    is_regular_complex, is_totally_loop_free, find_submolecule, NotAMolecule,
    paste, globe, simplex, cube, phi,
)
from dircomplex.ogposet import bits


def test_globes_are_atoms():
    for n in range(5):
        cert = is_molecule(globe(n).whole())
        assert cert is not None and cert.is_atom
        assert is_atom(globe(n).whole())


def test_path_is_a_paste_of_two_atoms():
    p = paste(globe(1), globe(1), 0).whole
    cert = is_molecule(p.whole())
    assert cert is not None and not cert.is_atom
    assert cert.tree.k == 0
    assert cert.tree.left.is_atom and cert.tree.right.is_atom
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


def test_find_submolecule_reflexive_and_generator():
    p = paste(globe(2), globe(2), 1).whole
    cert = is_molecule(p.whole())
    assert find_submolecule(cert, cert) == []
    left = cert.tree.left
    chain = find_submolecule(left, cert)
    assert chain is not None and len(chain) == 1


def test_find_submolecule_after_interrupted_search(monkeypatch):
    # a search cut short by an exception must leave nothing in the memo
    # that hides a real submolecule from later searches on the same poset
    from dircomplex import molecule
    pr = paste(globe(2), globe(2), 1)
    cu = is_molecule(pr.whole.whole())
    cv = is_molecule(pr.left_incl.image(globe(2).whole()))
    real = molecule.is_molecule
    calls = []

    def interrupted(subset):
        calls.append(subset)
        if len(calls) == 1:
            raise RuntimeError("interrupted")
        return real(subset)

    monkeypatch.setattr(molecule, "is_molecule", interrupted)
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
    from dircomplex.molecule import MoleculeCert, PasteNode
    bogus = MoleculeCert(p.whole(),
                         PasteNode(cert.tree.left, cert.tree.left, 0))
    assert not bogus.verify()
    with pytest.raises(NotAMolecule):
        toplevel_decomposition(bogus)


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
    from dircomplex import class_tag
    tag = class_tag(globe(2).whole())
    assert tag.spherical_boundary and tag.totally_loop_free
    assert tag.regular_ambient


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
