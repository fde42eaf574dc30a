import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dircomplex
from dircomplex import OgPoset, cube, dual, globe, simplex, gen_corpus, shapes
from dircomplex.cli import (
    run, export_dot, _COMMANDS, _OPS, _PARSER, _SHAPES, _SHAPE_LIMIT,
    _plain_parse, _read_complex,
)

from test_ogposet import _RECORDS

MANIFEST = Path(__file__).resolve().parents[1] / "perfbench/pool/manifest.json"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shape_globe(capsys):
    code, out, _ = invoke(capsys, "shape", "globe", "2")
    assert code == 0
    assert out.strip() == globe(2).to_json()


def test_shape_families(capsys):
    for args in (["shape", "simplex", "3"], ["shape", "cube", "2"],
                 ["shape", "phi", "3"], ["shape", "C", "2", "0"],
                 ["shape", "E", "0", "2"], ["shape", "Etilde", "0", "2"]):
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        OgPoset.from_json(out)


def test_check_verbs(tmp_path, capsys):
    f = tmp_path / "d3.json"
    f.write_text(simplex(3).to_json())
    for verb in ("molecule", "atom", "spherical", "regular", "loopfree"):
        code, out, _ = invoke(capsys, "check", verb, str(f))
        assert code == 0, verb
    twopoints = OgPoset.from_records(
        [{"dim": 0, "minus": [], "plus": []},
         {"dim": 0, "minus": [], "plus": []}])
    g = tmp_path / "pts.json"
    g.write_text(twopoints.to_json())
    code, out, _ = invoke(capsys, "check", "molecule", str(g))
    assert code == 1


def test_check_subset(tmp_path, capsys):
    f = tmp_path / "d2.json"
    f.write_text(simplex(2).to_json())
    code, out, _ = invoke(capsys, "--json", "check", "molecule", str(f),
                          "--subset", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_check_regular_and_loopfree_honour_subset(tmp_path, capsys):
    # a 2-cell whose input boundary is two parallel arrows is not regular,
    # but the closure of one arrow is
    two_cell = "perfbench/pool/parallel-input-2cell.json"
    code, _, _ = invoke(capsys, "check", "regular", two_cell)
    assert code == 1
    code, _, _ = invoke(capsys, "check", "regular", two_cell, "--subset", "2")
    assert code == 0
    # two arrows forming a loop, and one of them on its own
    loop = tmp_path / "loop.json"
    loop.write_text(OgPoset((0, 0, 1, 1), (0, 0, 0b01, 0b10),
                            (0, 0, 0b10, 0b01)).to_json())
    code, _, _ = invoke(capsys, "check", "loopfree", str(loop))
    assert code == 1
    code, _, _ = invoke(capsys, "check", "loopfree", str(loop),
                        "--subset", "2")
    assert code == 0


def test_op_pipeline(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(globe(1).to_json())
    code, out, _ = invoke(capsys, "op", "paste", str(a), str(a), "0")
    assert code == 0
    assert OgPoset.from_json(out).size == 5
    code, out, _ = invoke(capsys, "op", "gray", str(a), str(a))
    assert code == 0
    assert OgPoset.from_json(out).size == 9
    code, out, _ = invoke(capsys, "op", "inflate", str(a), "--emit-maps")
    assert code == 0
    lines = out.strip().splitlines()
    assert OgPoset.from_json(lines[0]).size == 5
    maps = json.loads(lines[1])
    assert set(maps) == {"tau", "iota_minus", "iota_plus"}
    code, out, _ = invoke(capsys, "op", "celto", str(a), str(a), "--emit-maps")
    assert code == 0
    lines = out.strip().splitlines()
    assert OgPoset.from_json(lines[0]) == globe(2)
    assert json.loads(lines[1]) == {"minus": [0, 1, 2], "plus": [0, 1, 3]}


def test_op_invalid_input_fails(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"elements":[{"dim":1,"minus":[],"plus":[]}]}')
    code, out, err = invoke(capsys, "check", "molecule", str(bad))
    assert code == 1


_POINT = {"dim": 0, "minus": [], "plus": []}


@pytest.mark.parametrize("elements", [
    [0, 1],                                                  # bare integers
    [{"dim": 0, "plus": []}],                                # minus missing
    [_POINT, _POINT, {"dim": "1", "minus": [0], "plus": [1]}],  # string dim
    [_POINT, {"dim": 1, "minus": "0", "plus": []}],          # faces not a list
    5,                                                       # no record list
], ids=["not-a-record", "missing-key", "string-dim", "faces-not-ints",
        "elements-not-a-list"])
def test_check_refuses_malformed_records(tmp_path, capsys, elements):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"elements": elements}))
    code, _, err = invoke(capsys, "check", "molecule", str(f))
    assert code == 1
    assert err.startswith("invalid: ") and "Traceback" not in err


_GLOBE2 = globe(2).to_json().encode()


@pytest.mark.parametrize("verb", [["check", "molecule"], ["topo", "homology"]],
                         ids=["check", "topo"])
@pytest.mark.parametrize("content, message", [
    (b"\xef\xbb\xbf" + _GLOBE2, "error: Unexpected UTF-8 BOM (decode using "
     "utf-8-sig): line 1 column 1 (char 0)"),
    (_GLOBE2[:12] + b"\xff" + _GLOBE2[12:], "error: 'utf-8' codec can't "
     "decode byte 0xff in position 12: invalid start byte"),
], ids=["bom", "invalid-byte"])
def test_undecodable_file_is_one_error_line(tmp_path, capsys, verb, content,
                                            message):
    f = tmp_path / "g.json"
    f.write_bytes(content)
    assert invoke(capsys, *verb, str(f)) == (1, "", message + "\n")


def test_crlf_file_reads_as_its_lf_twin(tmp_path):
    text = json.dumps(cube(2).to_json_obj(), indent=2)
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert crlf.read_bytes().count(b"\r\n") == text.count("\n") > 0
    assert _read_complex(str(crlf)) == _read_complex(str(lf)) == cube(2)


@pytest.mark.parametrize("argv", [
    ["topo", "homology", "{f}"], ["topo", "homology", "{f}", "--boundary"],
    ["topo", "euler", "{f}"], ["topo", "cwcheck", "{f}"],
    ["map", "a", "2"], ["map", "c", "2"], ["map", "gamma", "3"],
    ["map", "sprec", "2"],
], ids=" ".join)
def test_indented_output_is_pinned(tmp_path, capsys, argv):
    # both forms print one object: indented as json.dumps(obj, indent=2),
    # and compact under --json, each with one newline
    f = tmp_path / "d2.json"
    f.write_text(simplex(2).to_json())
    argv = [str(f) if a == "{f}" else a for a in argv]
    code, compact, _ = invoke(capsys, "--json", *argv)
    assert code == 0
    obj = json.loads(compact)
    assert compact == json.dumps(obj, separators=(",", ":")) + "\n"
    assert invoke(capsys, *argv) == (0, json.dumps(obj, indent=2) + "\n", "")


def test_map_verbs(capsys):
    code, out, _ = invoke(capsys, "map", "a", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["assignment"]) == 7
    code, out, _ = invoke(capsys, "map", "gamma", "2")
    assert code == 0
    assert json.loads(out)["assignment"][-1] == 2


def test_topo_verbs(tmp_path, capsys):
    f = tmp_path / "o2.json"
    f.write_text(globe(2).to_json())
    code, out, _ = invoke(capsys, "topo", "homology", str(f), "--boundary")
    assert code == 0
    assert json.loads(out)["H"] == [
        {"betti": 1, "torsion": []}, {"betti": 1, "torsion": []}]
    code, out, _ = invoke(capsys, "topo", "euler", str(f))
    assert json.loads(out)["euler"] == 1
    code, out, _ = invoke(capsys, "topo", "cwcheck", str(f))
    assert code == 0


def test_topo_nerve(tmp_path, capsys):
    # the order complex of the arrow: two edges from its ends to it
    f = tmp_path / "o1.json"
    f.write_text(globe(1).to_json())
    code, out, _ = invoke(capsys, "--json", "topo", "nerve", str(f))
    assert (code, out.strip()) == (
        0, '{"counts":[3,2],"simplices":[[[0],[1],[2]],[[0,2],[1,2]]]}')
    code, out, _ = invoke(capsys, "--json", "topo", "nerve", str(f),
                          "--boundary")
    assert (code, out.strip()) == (0, '{"counts":[2],"simplices":[[[0],[1]]]}')
    g = tmp_path / "d2.json"
    g.write_text(simplex(2).to_json())
    code, out, _ = invoke(capsys, "--json", "topo", "nerve", str(g))
    assert code == 0
    assert json.loads(out)["counts"] == [7, 12, 6] == \
        dircomplex.topology.nerve(simplex(2).whole()).counts()


def test_corpus_listing_deterministic(capsys):
    code, out1, _ = invoke(capsys, "corpus", "--seed", "0", "--max-dim", "2",
                           "--max-size", "40")
    code2, out2, _ = invoke(capsys, "corpus", "--seed", "0", "--max-dim", "2",
                            "--max-size", "40")
    assert code == code2 == 0
    assert out1 == out2
    names = [line.split("\t")[0] for line in out1.strip().splitlines()]
    assert "globe2" in names and "cube2" in names


def test_corpus_emit(capsys):
    code, out, _ = invoke(capsys, "corpus", "--max-dim", "2",
                          "--max-size", "40", "--emit", "globe2")
    assert code == 0
    assert out.strip() == globe(2).to_json()
    code, out, err = invoke(capsys, "corpus", "--max-dim", "2",
                            "--max-size", "40", "--emit", "globe9")
    assert code == 2 and not out
    assert err == "no corpus member named globe9\n"


def test_dot_deterministic(tmp_path, capsys):
    f = tmp_path / "o1.json"
    f.write_text(globe(1).to_json())
    code, out1, _ = invoke(capsys, "dot", str(f))
    code2, out2, _ = invoke(capsys, "dot", str(f))
    assert code == 0 and out1 == out2
    assert out1.count("rank=same") == 2
    assert out1.count('label="-"') == 1 and out1.count('label="+"') == 1


def test_usage_error_exit_code(capsys):
    assert run(["bogus-verb"]) == 2
    assert run([]) == 2


def test_json_roundtrip_through_cli(tmp_path, capsys):
    f = tmp_path / "c.json"
    text = simplex(3).to_json()
    f.write_text(text)
    code, out, _ = invoke(capsys, "corpus", "--emit", "simplex3")
    assert out.strip() == text


def test_library_and_cli_agree(tmp_path, capsys):
    corp = gen_corpus(seed=0, max_dim=2, max_elements=40)
    code, out, _ = invoke(capsys, "corpus", "--seed", "0", "--max-dim", "2",
                          "--max-size", "40")
    listed = [line.split("\t")[0] for line in out.strip().splitlines()]
    assert listed == list(corp)


def test_stdin_dash(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(globe(2).to_json()))
    code = run(["check", "regular", "-"])
    out = capsys.readouterr()
    assert code == 0


def test_op_subst(tmp_path, capsys):
    from dircomplex import paste
    p = paste(globe(2), globe(2), 1).whole
    cell = next(i for i in range(p.size) if p.dims[i] == 2)
    u = tmp_path / "u.json"
    u.write_text(p.to_json())
    w = tmp_path / "w.json"
    w.write_text(globe(2).to_json())
    code, out, _ = invoke(capsys, "op", "subst", str(u), str(cell), str(w))
    assert code == 0
    assert OgPoset.from_json(out).size == p.size


@pytest.mark.parametrize("argv", [
    ["shape", "globe"], ["shape", "simplex", "2", "3"], ["shape", "cube"],
    ["shape", "phi", "3", "1"], ["shape", "C", "4"], ["shape", "E", "1"],
    ["shape", "Etilde", "1"], ["shape", "C", "2", "0", "1"],
    ["map", "a"], ["map", "c", "2", "1"], ["map", "gamma", "2", "2"],
    ["map", "sprec"],
])
def test_wrong_parameter_count_is_a_usage_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and not out
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"usage: {argv[0]} {argv[1]} takes ")


@pytest.mark.parametrize("operands", [
    ["paste", "g2", "g2"], ["gray", "g2"], ["join", "g2"], ["suspend"],
    ["dual"], ["inflate"], ["celto", "g2"], ["compos"], ["subst", "g2", "0"],
], ids=lambda a: a[0])
def test_op_with_too_few_operands_is_a_usage_error(tmp_path, capsys, operands):
    g2 = tmp_path / "g2.json"
    g2.write_text(globe(2).to_json())
    verb, *rest = operands
    code, out, err = invoke(
        capsys, "op", verb, *(str(g2) if a == "g2" else a for a in rest))
    assert code == 2 and not out
    assert err.startswith(f"usage: op {verb} takes ") and "Traceback" not in err


def test_op_dual_takes_one_or_two_operands(tmp_path, capsys):
    g2 = tmp_path / "g2.json"
    g2.write_text(globe(2).to_json())
    code, out, _ = invoke(capsys, "op", "dual", str(g2))
    assert code == 0 and OgPoset.from_json(out) == globe(2)
    code, out, _ = invoke(capsys, "op", "dual", str(g2), "2")
    assert code == 0 and OgPoset.from_json(out) == dual(globe(2), [2])
    code, out, err = invoke(capsys, "op", "dual", str(g2), "1", "2")
    assert code == 2 and not out
    assert err.startswith("usage: op dual takes 1 or 2 parameters, got 3")


@pytest.mark.parametrize("operands", [["paste", "g2", "g2", "x"],
                                      ["dual", "g2", "1,x"]],
                         ids=lambda a: a[0])
def test_op_with_a_malformed_integer_is_a_usage_error(tmp_path, capsys,
                                                      operands):
    g2 = tmp_path / "g2.json"
    g2.write_text(globe(2).to_json())
    verb, *rest = operands
    code, out, err = invoke(
        capsys, "op", verb, *(str(g2) if a == "g2" else a for a in rest))
    assert code == 2 and not out
    assert err == "usage: 'x' is not an integer\n"


def test_cli_process_never_imports_numpy(tmp_path):
    # a cold process would pay ~0.1 s for numpy's import; nothing needs it,
    # not even the Smith kernel behind homology
    f = tmp_path / "d3.json"
    f.write_text(simplex(3).to_json())
    code = (
        "import sys\n"
        "from dircomplex.cli import run\n"
        "from dircomplex.topology import _smith_diagonal\n"
        f"assert run(['check', 'molecule', {str(f)!r}]) == 0\n"
        f"assert run(['topo', 'homology', {str(f)!r}]) == 0\n"
        "assert _smith_diagonal([[2, 4], [4, 8]]) == [2]\n"
        "assert 'numpy' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(dircomplex.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("token", ["x", "99", "-1", "1,,2"])
@pytest.mark.parametrize("verb", [["check", "molecule"], ["topo", "homology"]],
                         ids=lambda v: v[0])
def test_bad_subset_is_a_usage_error(tmp_path, capsys, verb, token):
    f = tmp_path / "d2.json"
    f.write_text(simplex(2).to_json())
    code, out, err = invoke(capsys, *verb, str(f), f"--subset={token}")
    bad = token.split(",")[1] if "," in token else token
    assert code == 2 and not out
    assert err.startswith(f"usage: {bad!r} is not an element index")
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def _cli_env():
    src = os.path.dirname(os.path.dirname(dircomplex.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_stdout_pipe_exits_quietly():
    # the reader takes 20 bytes of a ~100 kB complex and closes the pipe
    env = _cli_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "dircomplex.cli", "shape", "simplex", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0 and err == b""


def test_shape_sizes_follow_their_closed_forms():
    for family, build, params in (("globe", globe, range(6)),
                                  ("simplex", simplex, range(8)),
                                  ("cube", cube, range(6))):
        size = _SHAPES[family][2]
        for n in params:
            assert size(n) == build(n).size, (family, n)
    # E and Etilde are counted by the n-simplex they build on the way
    for family, build in (("E", shapes.extr), ("Etilde", shapes.extrtil)):
        size = _SHAPES[family][2]
        for k in range(2):
            for n in range(2, 5):
                assert size(k, n) < build(k, n).whole.size, (family, k, n)
    # the compositors are counted exactly, on valid parameters only
    for m in range(2, 9):
        assert _SHAPES["phi"][2](m) == shapes.phi(m).whole.size, m
    for n in range(2, 7):
        for k in range(n):
            assert _SHAPES["C"][2](n, k) == \
                shapes.compositor_c(n, k).whole.size, (n, k)
    # the limit admits simplex 13 and cube 9, and nothing larger
    for family, largest in (("simplex", 13), ("cube", 9)):
        size = _SHAPES[family][2]
        assert size(largest) <= _SHAPE_LIMIT < size(largest + 1)


@pytest.mark.parametrize("args", [["simplex", "10"], ["cube", "7"]])
def test_shapes_used_in_ci_are_built(capsys, args):
    code, out, err = invoke(capsys, "shape", *args)
    assert code == 0 and not err
    assert OgPoset.from_json(out).size == _SHAPES[args[0]][2](int(args[1]))


@pytest.mark.parametrize("args", [["simplex", "40"], ["cube", "10"],
                                  ["globe", "10000"],
                                  ["simplex", "1000000000000"],
                                  ["E", "0", "40"], ["Etilde", "0", "40"],
                                  ["phi", "100000"], ["C", "200", "0"]])
def test_oversized_shape_is_refused_before_it_is_built(args):
    # building simplex 40 ends in a MemoryError, and E and Etilde on n = 40
    # build it first; the refusal builds nothing
    proc = subprocess.run(
        [sys.executable, "-m", "dircomplex.cli", "shape", *args],
        capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr == (f"usage: shape {' '.join(args)} builds more than "
                           f"{_SHAPE_LIMIT} elements\n")


@pytest.mark.parametrize("argv", [["shape", "simplex", "14"],
                                  ["map", "gamma", "14"]])
def test_oversized_request_is_refused_in_process(capsys, argv):
    # the least oversized simplex: a broken refusal would build it in a
    # second, where the cases above run apart because they would exhaust
    # memory
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and not out
    assert err == (f"usage: {' '.join(argv)} builds more than "
                   f"{_SHAPE_LIMIT} elements\n")


def test_run_leaves_a_closed_pipe_to_main(monkeypatch):
    # main, which the process runs, turns it into a quiet exit 0
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        run(["shape", "globe", "1"])


def test_module_runs_the_cli():
    # python -m dircomplex is the console script, with no install
    shape = subprocess.run(
        [sys.executable, "-m", "dircomplex", "shape", "globe", "2"],
        capture_output=True, text=True, env=_cli_env(), timeout=60)
    check = subprocess.run(
        [sys.executable, "-m", "dircomplex", "check", "spherical", "-"],
        input=shape.stdout, capture_output=True, text=True, env=_cli_env(),
        timeout=60)
    assert shape.returncode == check.returncode == 0, check.stderr
    assert json.loads(check.stdout)["ok"] is True


@pytest.mark.parametrize("args", [["a", "40"], ["gamma", "100000"],
                                  ["c", "14"], ["sprec", "14"]])
def test_oversized_map_is_refused_before_it_is_built(args):
    # every map builds the n-simplex (gamma enumerates its elements): a 14
    # builds 32,767 elements, which shape simplex 14 refuses
    proc = subprocess.run(
        [sys.executable, "-m", "dircomplex.cli", "map", *args],
        capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr == (f"usage: map {' '.join(args)} builds more than "
                           f"{_SHAPE_LIMIT} elements\n")


def test_paste_below_dimension_zero_is_an_error(tmp_path, capsys):
    f = tmp_path / "g1.json"
    f.write_text(globe(1).to_json())
    code, out, err = invoke(capsys, "op", "paste", str(f), str(f), "-1")
    assert code == 1 and not out
    assert err == "error: paste needs k >= 0, got k = -1\n"


@pytest.mark.parametrize("args", [["phi", "1"], ["C", "3", "3"]])
def test_invalid_compositor_parameters_are_errors(capsys, args):
    code, out, err = invoke(capsys, "shape", *args)
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deep_compositor_is_built():
    # its boundary search used to recurse once per element
    proc = subprocess.run(
        [sys.executable, "-m", "dircomplex.cli", "shape", "phi", "500"],
        capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 0 and not proc.stderr
    assert OgPoset.from_json(proc.stdout).size == 1003


def test_too_deep_certificate_is_one_error_line(tmp_path, capsys):
    # a path of 1,200 arrows nests its certificate past the recursion limit
    n = 1200
    chain = OgPoset([0] * (n + 1) + [1] * n,
                    [0] * (n + 1) + [1 << i for i in range(n)],
                    [0] * (n + 1) + [1 << i + 1 for i in range(n)])
    f = tmp_path / "chain.json"
    f.write_text(chain.to_json())
    code, out, err = invoke(capsys, "check", "molecule", str(f))
    assert code == 1 and not out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# the forms the plain parse declines: abbreviations, --opt=value, help,
# the -- separator, values starting with -, a misplaced --json
_TRICKY = ["--js", "--sub", "--b", "--emit-m", "--se", "--max-d", "--e",
           "--subset=1", "--seed=2", "--json=1", "-h", "--help", "--", "-",
           "-1", "--json"]
# and every word of the grammar, integers and file names
_WORDS = sorted({
    *_COMMANDS, *(c for _, _, args in _COMMANDS.values() for _, kw in args
                  for c in kw.get("choices", ())),
    *(name for _, _, args in _COMMANDS.values() for name, _ in args),
    *_TRICKY, "0", "3", "12", "1,2", "f.json", "x",
})


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_plain_parse_gives_the_argparse_namespace(data):
    # a command's argv in the plain form, with up to two tokens inserted,
    # replaced or deleted; wherever the plain parse answers, argparse agrees
    tricky = st.sampled_from(_TRICKY)
    word = st.one_of(st.sampled_from(["0", "3", "12", "1,2", "f.json"]),
                     tricky)
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    argv = data.draw(st.lists(st.just("--json"), max_size=1)) + [command]
    for name, kw in _COMMANDS[command][2]:
        if "choices" in kw:
            argv.append(data.draw(st.sampled_from(kw["choices"])))
        elif kw.get("nargs") == "*":
            argv += data.draw(st.lists(word, max_size=3))
        elif not name.startswith("-"):
            argv.append(data.draw(word))
        elif data.draw(st.booleans()):  # the option or an abbreviation
            argv.append(data.draw(st.one_of(st.just(name), st.sampled_from(
                [name[:k] for k in range(3, len(name))]))))
            if kw.get("action") != "store_true":
                argv.append(data.draw(word))
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(argv)))
        edit = data.draw(st.sampled_from(["insert", "replace", "delete"]))
        argv[at:at + (edit != "insert")] = [] if edit == "delete" else [
            data.draw(st.one_of(tricky, st.sampled_from(_WORDS)))]
    ns = _plain_parse(argv)
    if ns is not None:
        assert vars(ns) == vars(_PARSER.parse_args(argv))


def test_pool_argv_take_the_plain_parse():
    # the benchmark's CLI requests all skip argparse
    requests = json.loads(MANIFEST.read_text())["requests"]
    forms = {tuple("f.json" if a == "{file}" else a for a in r["argv"])
             for r in requests if "argv" in r}
    assert forms
    for argv in map(list, forms):
        ns = _plain_parse(argv)
        assert ns is not None, argv
        assert vars(ns) == vars(_PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["check", "molecule", "F", "--sub", "4"],
    ["check", "molecule", "F", "--subset=4"],
    ["check", "molecule", "--subset", "4", "--", "F"],
    ["--js", "check", "molecule", "F"],
], ids=" ".join)
def test_declined_argv_is_parsed_by_argparse(tmp_path, capsys, argv):
    f = tmp_path / "d2.json"
    f.write_text(simplex(2).to_json())
    argv = [str(f) if a == "F" else a for a in argv]
    assert _plain_parse(argv) is None
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and json.loads(out)["ok"] is True


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_random_records_through_every_file_verb_exit_cleanly(
        tmp_path_factory, data):
    # each file-reading verb on a file of random records, the other operands
    # that file or an arrow: exit 0, 1 or 2, and no exception escapes run
    base = tmp_path_factory.getbasetemp()
    records, arrow = base / "records.json", base / "arrow.json"
    records.write_text(json.dumps({"elements": data.draw(_RECORDS)}))
    arrow.write_text(globe(1).to_json())
    f = str(records)
    verb = data.draw(st.sampled_from(["check", "topo", "dot", "op"]))
    if verb == "dot":
        argv = ["dot", f]
    elif verb != "op":
        choices = _COMMANDS[verb][2][0][1]["choices"]  # predicates or verbs
        argv = [verb, data.draw(st.sampled_from(choices)), f]
        if data.draw(st.booleans()):
            argv += ["--subset", data.draw(st.sampled_from(["0", "1,2"]))]
        if verb == "topo" and data.draw(st.booleans()):
            argv.append("--boundary")
    else:
        name = data.draw(st.sampled_from(sorted(_OPS)))
        count = data.draw(st.sampled_from(_OPS[name][0]))
        operands = [f] + [data.draw(st.sampled_from([f, str(arrow)]))
                          for _ in range(count - 1)]
        if name in ("paste", "subst", "dual") and len(operands) > 1:
            at = 2 if name == "paste" else 1
            operands[at] = data.draw(st.sampled_from(["-1", "0", "1", "1,2"]))
        argv = ["op", name, *operands]
    argv = data.draw(st.sampled_from([[], ["--json"]])) + argv
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2), argv
