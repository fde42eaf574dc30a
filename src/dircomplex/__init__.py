"""Combinatorics of regular directed complexes.

Oriented graded posets, molecule recognition, the pasting/product/join
operation algebra, the standard shape families with their folding maps,
and a combinatorial-homology backend for the ball/sphere realization
checks.
"""

from .ogposet import (
    OgPoset, ClosedSubset, PosetMap,
    InvalidStructure, FaceDimMismatch, OrientationClash, NotGraded,
    IndexOutOfRange, InvalidMap,
    find_isomorphism,
)
from .molecule import (
    MoleculeCert, NotAMolecule,
    is_molecule, is_atom, toplevel_decomposition, has_spherical_boundary,
    is_regular_complex, is_totally_loop_free, find_submolecule,
    composable, enumerate_molecules,
)
from .construct import (
    PastingResult, BoundaryMismatch, NotASubmolecule, NotSpherical, NotClosed,
    paste, paste_along, substitute, celto, compos,
    gray, gray_boundary_check, join, join_boundary_check,
    suspend, dual, op,
    cylinder_quotient, inflate, inflate_map, unitor_shape, reverse_map,
)
from .shapes import (
    globe, simplex, cube, globe_element, simplex_index, simplex_bits,
    globe_tau, globe_incl,
    simplex_face, simplex_degeneracy, folding_a, folding_c, fatten,
    phi, compositor_c, extr, extrtil, horn, last_vertex, enumerate_maps,
)
from .topology import (
    SimplicialComplex, ChainComplex,
    nerve, homology, euler, face_poset_roundtrip,
)
from .corpus import gen_corpus

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
