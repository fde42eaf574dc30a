"""Dual-route checks: independent recomputations of the core predicates."""

import itertools

import pytest

from dircomplex import (
    OgPoset, ClosedSubset, find_isomorphism, gen_corpus,
    is_molecule, enumerate_molecules, has_spherical_boundary,
    paste, inflate, globe, simplex, cube, phi,
)
from dircomplex import corpus
from dircomplex.ogposet import bits


def _all_closed_masks(p: OgPoset):
    """Every downward-closed subset, by extending along the element order.

    Elements are sorted by dimension, so a set is closed exactly when each
    member's faces already occur among the smaller indices taken.
    """
    masks = [0]
    for i in range(p.size):
        need = p.faces_minus[i] | p.faces_plus[i]
        masks += [m | (1 << i) for m in masks if m & need == need]
    return masks


SMALL = [globe(2), simplex(2), paste(globe(1), globe(1), 0).whole,
         paste(globe(2), globe(2), 1).whole, paste(globe(2), globe(2), 0).whole,
         phi(2).whole, cube(2), inflate(simplex(1)).whole]


@pytest.mark.parametrize("p", SMALL, ids=lambda p: repr(p))
def test_recognizer_agrees_with_pasting_closure(p):
    # bottom-up: close the atoms under binary pasting (the definition);
    # top-down: search for splits.  The two must accept the same subsets.
    closure_masks = {s.mask for s in enumerate_molecules(p)}
    for mask in _all_closed_masks(p):
        got = is_molecule(ClosedSubset(p, mask)) is not None
        assert got == (mask in closure_masks), bin(mask)


def test_recognizer_on_fresh_seeds():
    for seed in (1, 2):
        corp = gen_corpus(seed=seed, max_dim=3, max_elements=60)
        assert len(corp) >= 25
        for name, p in corp.items():
            cert = is_molecule(p.whole())
            assert cert is not None and cert.verify(), (seed, name)


def test_gen_corpus_drops_what_is_no_regular_complex(monkeypatch):
    # every draw of the real corpus is regular, so a failing predicate
    # stands in for a draw that is not
    monkeypatch.setattr(corpus, "is_regular_complex", lambda p: p.dim != 1)
    corp = gen_corpus(seed=0, max_dim=2, max_elements=20)
    assert "globe2" in corp and "globe1" not in corp
    assert all(p.dim != 1 for p in corp.values())


def test_every_structural_map_is_valid(corpus_members):
    for name, p in corpus_members:
        if p.size > 30:
            continue
        bd, incl = p.whole().boundary().extract()
        incl.check()
        cert = is_molecule(p.whole())
        if p.dim <= 3 and has_spherical_boundary(cert):
            inf = inflate(p)
            inf.tau.check()
            inf.iota_minus.check()
            inf.iota_plus.check()


def test_pasting_inclusions_are_valid(corpus_members):
    import dircomplex
    count = 0
    members = [p for _, p in corpus_members if p.size <= 20]
    for a, b in itertools.product(members, members):
        for k in range(min(a.dim, b.dim)):
            try:
                pr = paste(a, b, k)
            except dircomplex.BoundaryMismatch:
                continue
            pr.left_incl.check()
            pr.right_incl.check()
            count += 1
            break
    assert count >= 10


def test_recognizer_closure_agreement_on_twisted_shapes():
    # duals reverse flows, joins mix sign parities, suspensions shift dims;
    # the two recognition routes must still agree subset-by-subset
    from dircomplex import op, dual, suspend, join, gray
    path = paste(globe(1), globe(1), 0).whole
    twisted = [
        op(paste(globe(2), globe(2), 1).whole),
        dual(phi(3).whole, [2]),
        suspend(path),
        join(globe(1), OgPoset.point()),
        gray(path, globe(1)),
    ]
    for p in twisted:
        closure_masks = {s.mask for s in enumerate_molecules(p)}
        for mask in _all_closed_masks(p):
            got = is_molecule(ClosedSubset(p, mask)) is not None
            assert got == (mask in closure_masks), (repr(p), bin(mask))


def test_constructors_preserve_regularity(corpus_members):
    from dircomplex import (dual, suspend, join, gray, cylinder_quotient,
                            is_regular_complex)
    small = [p for _, p in corpus_members if p.size <= 15]
    for p in small[:8]:
        assert is_regular_complex(suspend(p))
        assert is_regular_complex(dual(p, range(1, p.dim + 1)))
    for a in small[:5]:
        for b in small[:5]:
            if a.dim + b.dim <= 3:
                assert is_regular_complex(gray(a, b))
            if a.dim + b.dim <= 2:
                assert is_regular_complex(join(a, b))
    for p in small[:6]:
        if p.dim >= 1:
            quot, _ = cylinder_quotient(p, p.whole().boundary(-1))
            assert is_regular_complex(quot)
