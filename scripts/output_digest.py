"""One sha256 over the outputs that molecule recognition decides.

For every member of corpus seeds 0-2 and every well-formed pool file under
``perfbench/pool``, on the whole complex, both of its boundaries and the
pool's own ``--subset`` selections, this hashes:

- ``check molecule``, ``check spherical`` and ``check regular``: exit code
  and stdout, with and without ``--json``;
- ``toplevel_decomposition`` of every certificate, at its own k and at
  every k below its dimension (or the ``NotAMolecule`` message);
- ``find_submolecule`` witnesses of atoms (every element's closure, at most
  48 per complex) and of both boundaries in the whole complex.

Every certificate must pass ``verify()``.  Two commits that print the same
digest give byte-identical outputs on all of these.

A second sha256, ``topo_sha256``, covers what the topology layer answers
on the same complexes: ``--json topo homology``, ``euler`` and
``cwcheck``, each with and without ``--boundary``, exit code and stdout.

    python scripts/output_digest.py [--src path/to/src]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL = ROOT / "perfbench" / "pool"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the dircomplex package")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import dircomplex as dc
    from dircomplex import cli

    complexes = []
    for seed in (0, 1, 2):
        complexes += [(f"corpus{seed}/{name}", p.to_json(), [])
                      for name, p in dc.gen_corpus(seed=seed).items()]
    selections: dict[str, list[str]] = {}
    for spec in json.loads((POOL / "manifest.json").read_text())["requests"]:
        argv = spec.get("argv", [])
        if "--subset" in argv:
            selections.setdefault(spec["file"], []).append(
                argv[argv.index("--subset") + 1])
    for f in sorted(POOL.glob("*.json")):
        if f.name == "manifest.json":
            continue
        try:
            dc.OgPoset.from_json(f.read_text())
        except dc.InvalidStructure:
            continue
        complexes.append((f"pool/{f.name}", f.read_text(),
                          sorted(set(selections.get(f.name, [])))))

    h, topo = hashlib.sha256(), hashlib.sha256()
    records = certs = 0

    def record(*parts) -> None:
        nonlocal records
        h.update(repr(parts).encode())
        records += 1

    def run(argv: list[str], text: str) -> tuple[int, str]:
        out = io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
        finally:
            sys.stdin = stdin
        return code, out.getvalue()

    for name, text, picked in complexes:
        for verb in ("homology", "euler", "cwcheck"):
            for flag in ([], ["--boundary"]):
                argv = ["--json", "topo", verb, "-", *flag]
                topo.update(repr((name, argv, *run(argv, text))).encode())
        p = dc.OgPoset.from_json(text)
        whole = p.whole()
        subsets = [whole, whole.boundary(-1), whole.boundary(+1)]
        subsets += [p.closure(int(i) for i in s.split(",")) for s in picked]
        for u in subsets:
            sel = ",".join(map(str, u.maximal()))
            for flag in ([], ["--json"]):
                for kind in ("molecule", "spherical", "regular"):
                    argv = flag + ["check", kind, "-", "--subset", sel]
                    record(name, argv, *run(argv, text))
        q = dc.OgPoset.from_json(text)
        found = [dc.is_molecule(q.closure(u.maximal())) for u in subsets]
        for cert in filter(None, found):
            assert cert.verify(), name
            certs += 1
            u = cert.subset
            for k in [None, *range(u.dim)]:
                try:
                    parts, kk = dc.toplevel_decomposition(cert, k)
                    got = ([v.mask for v in parts], kk)
                except dc.NotAMolecule as exc:
                    got = str(exc)
                record(name, "toplevel", u.mask, k, got)
        top = found[0]
        if top is None:
            continue
        step = -(-q.size // 48)  # at most 48 atoms
        atoms = [dc.is_molecule(q.closure([x]))
                 for x in range(0, q.size, step)]
        for v in atoms + found[1:3]:
            if v is not None:
                record(name, "submolecule", v.subset.mask,
                       dc.find_submolecule(v, top))
    print(json.dumps({"complexes": len(complexes), "records": records,
                      "certificates": certs, "sha256": h.hexdigest(),
                      "topo_sha256": topo.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
