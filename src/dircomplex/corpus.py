"""Deterministic test corpus: all shape families plus seeded random builds."""

from __future__ import annotations

import random

from .ogposet import OgPoset
from .molecule import is_molecule, is_regular_complex
from .construct import (
    paste, gray, join, suspend, dual, inflate, compos, celto,
    BoundaryMismatch, NotSpherical,
)
from .molecule import NotAMolecule
from .shapes import globe, simplex, cube, phi


def gen_corpus(seed: int = 0, max_dim: int = 4, max_elements: int = 200
               ) -> dict[str, OgPoset]:
    """Every shape family up to the budget plus randomized pastings and
    products, all filtered to regular molecule complexes, by name; the
    same arguments give the same dict."""
    rng = random.Random(seed)
    out: dict[str, OgPoset] = {}

    def add(name: str, p: OgPoset) -> None:
        if name in out or p.dim > max_dim or p.size > max_elements:
            return
        if any(q == p for q in out.values()):
            return
        if is_molecule(p.whole()) is None or not is_regular_complex(p):
            return
        out[name] = p

    for n in range(0, min(4, max_dim) + 1):
        add(f"globe{n}", globe(n))
        add(f"simplex{n}", simplex(n))
        add(f"cube{n}", cube(n))
    for m in range(2, min(4, max_dim) + 1):
        add(f"compositor{m}", phi(m).whole)

    add("arrow-path2", paste(globe(1), globe(1), 0).whole)
    add("arrow-path3",
        paste(paste(globe(1), globe(1), 0).whole, globe(1), 0).whole)
    add("vert2", paste(globe(2), globe(2), 1).whole)
    add("horiz2", paste(globe(2), globe(2), 0).whole)
    add("whisker", paste(globe(2), globe(1), 0).whole)
    add("inflate-simplex2", inflate(simplex(2)).whole)
    add("suspend-simplex2", suspend(simplex(2)))
    add("join-arrow-point", join(globe(1), OgPoset.point()))
    add("op-simplex3", dual(simplex(3), [1, 3]))
    add("gray-arrow-path", gray(globe(1), paste(globe(1), globe(1), 0).whole))

    names = list(out)
    attempts = 0
    while attempts < 60 and len(out) < 48:
        attempts += 1
        op_name = rng.choice(["paste", "gray", "join", "suspend",
                              "dual", "compos", "celto"])
        a = out[rng.choice(names)]
        b = out[rng.choice(names)]
        try:
            if op_name == "paste":
                k = rng.randrange(0, max(a.dim, 1))
                built = paste(a, b, k).whole
                name = f"r{attempts}-paste{k}"
            elif op_name == "gray":
                built = gray(a, b)
                name = f"r{attempts}-gray"
            elif op_name == "join":
                built = join(a, b)
                name = f"r{attempts}-join"
            elif op_name == "suspend":
                built = suspend(a)
                name = f"r{attempts}-suspend"
            elif op_name == "celto":
                built = celto(a, a).whole
                name = f"r{attempts}-celto"
            else:
                built = compos(a)
                name = f"r{attempts}-compos"
        except (BoundaryMismatch, NotSpherical, NotAMolecule, ValueError):
            continue
        add(name, built)
        names = list(out)
    return out
