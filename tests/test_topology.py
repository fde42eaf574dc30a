from dircomplex import (
    OgPoset, ClosedSubset,
    nerve, nerve_map, homology, euler, face_poset_roundtrip,
    globe, simplex, cube, globe_tau,
)
from dircomplex.topology import (
    chain_complex, _snf_invariants, sphere_signature, ball_signature,
    _matches,
)
import numpy as np

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
    assert cc.check_dd_zero()
    cc = chain_complex(nerve(cube(2)))
    assert cc.check_dd_zero()


def test_smith_invariants_known_matrices():
    assert _snf_invariants(np.array([[2, 4], [4, 8]], dtype=np.int64)) == [2]
    assert _snf_invariants(np.array([[2, 0], [0, 3]], dtype=np.int64)) \
        == [1, 6]
    assert _snf_invariants(np.zeros((3, 3), dtype=np.int64)) == []
    # projective-plane style torsion: Z/2 from a doubled boundary
    assert _snf_invariants(np.array([[2]], dtype=np.int64)) == [2]


def test_smith_overflow_escalates():
    big = np.array([[2 ** 61, 1], [1, 2 ** 61]], dtype=object)
    from dircomplex.topology import _snf_core
    diag = _snf_core(big, check=False)
    assert len(diag) == 2


def test_homology_point_ball_spheres():
    assert homology(nerve(POINT)) == [(1, [])]
    assert homology(nerve(globe(2).whole().boundary())) == [(1, []), (1, [])]
    assert homology(nerve(globe(3).whole().boundary())) == \
        [(1, []), (0, []), (1, [])]
    assert homology(nerve(simplex(3))) == [(1, []), (0, []), (0, []), (0, [])]


def test_torsion_detected_on_projective_plane():
    # minimal triangulation of the real projective plane
    tris = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
            (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
    simplices = [set(), set(), set()]
    for t in tris:
        simplices[2].add(t)
        for i in range(3):
            simplices[1].add(t[:i] + t[i + 1:])
        for v in t:
            simplices[0].add((v,))
    from dircomplex.topology import SimplicialComplex
    k = SimplicialComplex(tuple(tuple(sorted(s)) for s in simplices))
    h = homology(k)
    assert h[0] == (1, [])
    assert h[1] == (0, [2])
    assert h[2] == (0, [])


def test_euler():
    assert euler(nerve(simplex(3))) == 1
    assert euler(nerve(globe(3).whole().boundary())) == 2
    assert euler(nerve(globe(2).whole().boundary())) == 0


def test_nerve_functorial():
    f = globe_tau(2, 1)
    g = globe_tau(1, 0)
    k = nerve(globe(2))
    once = nerve_map(f.then(g), k)
    twice = nerve_map(g, nerve_map(f, k))
    assert once == twice


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
