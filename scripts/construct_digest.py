"""One sha256 over the outputs of the constructions on corpus seed 0.

For the members of ``gen_corpus(seed=0)``, this hashes the canonical JSON of
every poset and the assignment of every map that these calls return, or the
class and message of the ``ValueError`` they raise:

- ``paste`` of every pair at every k below the larger dimension;
- ``paste_along`` onto each boundary atom of top dimension and onto the
  whole boundary, of each member and of ``celto`` of the extracted
  submolecule with itself;
- ``substitute`` of each top atom and of the whole complex, by its
  extracted copy and by its ``compos``;
- ``celto`` of every pair of one dimension, and ``compos``, ``suspend``,
  ``inflate`` and ``dual`` at the odd, the even and all dimensions of each
  member;
- ``gray`` and ``join`` of every pair with dimension sum at most 4, and
  both boundary checks at every (k, sign) on those pairs;
- ``unitor_shape`` on each side and sign, at each atom of top dimension of
  that side's boundary and at the whole side.

A second digest, ``shapes_sha256``, hashes the same way what the shape
towers return, each built from cleared shape caches: ``extr(k, n)`` for
k <= 2 and ``extrtil(k, n)`` for k <= 1, both for n <= 4, ``compositor_c(n,
k)`` for n <= 5, and ``phi``, ``folding_a``, ``folding_c`` and ``sprec`` of
0 to 5.

Two commits that print the same digests give byte-identical outputs on all
of these.

    python scripts/construct_digest.py [--src path/to/src]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the dircomplex package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import dircomplex as dc

    h = hashlib.sha256()
    records = 0

    def out(x):
        """Posets as canonical JSON, maps as assignments, results by field."""
        if isinstance(x, dc.OgPoset):
            return x.to_json()
        if isinstance(x, dc.PosetMap):
            return list(x.assignment)
        if isinstance(x, dict):
            return sorted(x.items())
        if isinstance(x, (tuple, list)):
            return [out(y) for y in x]
        if dataclasses.is_dataclass(x):
            return {f.name: out(getattr(x, f.name))
                    for f in dataclasses.fields(x)}
        return x

    def line(name, call, *argv) -> bytes:
        try:
            got = out(call(*argv))
        except ValueError as exc:
            got = [type(exc).__name__, str(exc)]
        return json.dumps([name, call.__name__, got]).encode() + b"\n"

    def record(name, call, *argv) -> None:
        nonlocal records
        h.update(line(name, call, *argv))
        records += 1

    def substitute_compos(u, v, w):
        return dc.substitute(u, v, dc.compos(w))

    def paste_along_unit(w, u2, v, sign):
        return dc.paste_along(dc.celto(w, w).whole, u2, v, sign)

    def atoms(u: "dc.ClosedSubset"):
        """The closures of u's top-dimensional elements, then u itself."""
        return [u.parent.closure([x]) for x in u.elements_of_dim(u.dim)] + [u]

    members = list(dc.gen_corpus(seed=0).items())
    for a_name, a in members:
        for b_name, b in members:
            for k in range(max(a.dim, b.dim)):
                record(f"{a_name} {b_name} {k}", dc.paste, a, b, k)
            if a.dim == b.dim:
                record(f"{a_name} {b_name}", dc.celto, a, b)
            if a.dim + b.dim <= 4:
                for op in (dc.gray, dc.join):
                    record(f"{a_name} {b_name}", op, a, b)
                for k in range(a.dim + b.dim + 2):
                    for sign in (-1, +1):
                        for check in (dc.gray_boundary_check,
                                      dc.join_boundary_check):
                            record(f"{a_name} {b_name} {k} {sign}",
                                   check, a, b, k, sign)

        for op in (dc.compos, dc.suspend, dc.inflate):
            record(a_name, op, a)
        for dims in (range(1, a.dim + 1, 2), range(2, a.dim + 1, 2),
                     range(1, a.dim + 1)):
            record(f"{a_name} {list(dims)}", dc.dual, a, dims)

        for i, v in enumerate(atoms(a.whole())):
            w, _ = v.extract()
            record(f"{a_name} {i}", dc.substitute, a, v, w)
            record(f"{a_name} {i}", substitute_compos, a, v, w)
        if a.dim < 1:
            continue
        for sign in (-1, +1):
            side = "left" if sign < 0 else "right"
            for i, v in enumerate(atoms(a.whole().boundary(sign))):
                w, _ = v.extract()
                record(f"{a_name} {sign} {i}", paste_along_unit, w, a, v,
                       sign)
                for u1_name, u1 in members:
                    if u1.dim == a.dim:
                        record(f"{u1_name} {a_name} {sign} {i}",
                               dc.paste_along, u1, a, v, sign)
                for unit_sign in (-1, +1):
                    record(f"{a_name} {side} {i} {unit_sign}",
                           dc.unitor_shape, a, v, side, unit_sign)

    shapes = dc.shapes
    towers = ([(shapes.extr, k, n) for k in range(3) for n in range(5)]
              + [(shapes.extrtil, k, n) for k in range(2) for n in range(5)]
              + [(shapes.compositor_c, n, k) for n in range(6)
                 for k in range(n)]
              + [(call, n) for call in (shapes.phi, shapes.folding_a,
                                        shapes.folding_c, shapes.sprec)
                 for n in range(6)])
    caches = [f for f in vars(shapes).values() if hasattr(f, "cache_clear")]
    shapes_h = hashlib.sha256()
    for call, *argv in towers:
        for f in caches:
            f.cache_clear()
        shapes_h.update(line(" ".join(map(str, argv)), call, *argv))
    print(json.dumps({"records": records, "sha256": h.hexdigest(),
                      "shapes_sha256": shapes_h.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
