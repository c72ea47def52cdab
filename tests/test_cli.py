import io
import json
import os
import random
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import surfclass
from surfclass import cli, simplicial
from surfclass.cli import run
from surfclass.rewrite import NormalForm, make_canonical
from surfclass.simplicial import (
    ValidationReport,
    build_simplicial,
    refine_to_triangulation,
    to_cell_complex,
)

from simputil import DISC, MOBIUS_BAND, faces_per_triangle

TORUS_CC = "# opposite sides identified\nsurface torus\nface A : a b a' b'\n"
BAD_CC = "face A : a a a\n"
MOBIUS_CC = "face A : a b a c\n"
TRI_FILE = "triangle a b c\ntriangle a b d\ntriangle a c d\ntriangle b c d\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write, tmp_path


def test_classify_json(files, capsys):
    write, _ = files
    code = run(["classify", write("torus.cc", TORUS_CC), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "torus"
    assert payload["normal_word"] == "a1 b1 a1' b1'"


def test_classify_text(files, capsys):
    write, _ = files
    assert run(["classify", write("m.cc", MOBIUS_CC)]) == 0
    assert "Möbius strip" in capsys.readouterr().out


def test_validate_error_path(files, capsys):
    write, _ = files
    code = run(["validate", write("bad.cc", BAD_CC)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("E_EDGE_MULTIPLICITY")
    assert "'a'" in err


def test_validate_simplicial(files, capsys):
    write, _ = files
    code = run(["validate", write("tet.tri", TRI_FILE), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_surface"] is True
    assert payload["triangles"] == 4


MOBIUS_TRI = "".join(f"triangle {' '.join(t)}\n" for t in MOBIUS_BAND)


@pytest.mark.parametrize("triangles", [TRI_FILE, MOBIUS_TRI], ids=["closed", "bordered"])
def test_validate_walks_each_vertex_fan_once(files, capsys, monkeypatch, triangles):
    write, _ = files
    calls = []
    fan_shape = simplicial._fan_shape

    def counted(*args):
        calls.append(args)
        return fan_shape(*args)

    monkeypatch.setattr(simplicial, "_fan_shape", counted)
    assert run(["validate", write("surface.tri", triangles), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0 < len(calls) <= payload["vertices"]


def test_usage_error_exit_2(files, capsys):
    assert run(["no-such-verb"]) == 2


def test_parse_error_exit_2(files, capsys):
    write, _ = files
    assert run(["classify", write("garbled.cc", "face ??? broken\n")]) == 2
    assert "E_FILE_FORMAT" in capsys.readouterr().err
    assert run(["classify", write("badtok.cc", "face A : 9x\n")]) == 2
    assert "E_MALFORMED_TOKEN" in capsys.readouterr().err


def test_normalize_trace(files, capsys):
    write, _ = files
    code = run(["normalize", write("m.cc", MOBIUS_CC), "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "=>" in out  # move lines
    assert "normal_word: a1 a1 c1 h1 c1'" in out


def test_normalize_selftest(files, capsys):
    write, _ = files
    code = run(["normalize", write("t.cc", TORUS_CC), "--seed", "3", "--moves", "10"])
    assert code == 0
    assert "p: 1" in capsys.readouterr().out


def test_normalize_selftest_that_finds_another_form_is_an_internal_error(files, capsys, monkeypatch):
    # the first call normalizes the input, the second its scramble, which
    # is made to come out as the genus-2 surface
    write, _ = files
    calls = []

    def second_differs(K):
        calls.append(K)
        return real(K if len(calls) == 1 else make_canonical(NormalForm("I", 2, 0)))

    real = cli.normalize
    monkeypatch.setattr(cli, "normalize", second_differs)
    assert run(["normalize", write("t.cc", TORUS_CC), "--seed", "1", "--moves", "5"]) == 1
    captured = capsys.readouterr()
    assert len(calls) == 2
    assert captured.out == ""
    assert captured.err == (
        "self-test: scrambled with seed 1 (5 moves)\n"
        "E_INTERNAL: scrambled normal form differs\n"
    )


@pytest.mark.parametrize("moves", [-1, cli.MAX_SCRAMBLE_MOVES + 1])
def test_normalize_rejects_moves_out_of_range(files, capsys, moves):
    write, _ = files
    assert run(["normalize", write("t.cc", TORUS_CC), "--seed", "1", "--moves", str(moves)]) == 2
    captured = capsys.readouterr()
    one_coded_line(captured.err, "E_USAGE")
    assert captured.out == ""


def test_normalize_moves_cap_admits_the_documented_self_test():
    # README and CI run ``--moves 200``
    assert 200 <= cli.MAX_SCRAMBLE_MOVES


def test_homology_cell_input_notice(files, capsys):
    write, _ = files
    code = run(["homology", write("t.cc", TORUS_CC), "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "refining" in captured.err
    payload = json.loads(captured.out)
    assert payload["H1"] == "Z^2" and payload["H2"] == "Z"


@pytest.mark.parametrize("verb", ["homology", "classify", "validate"])
@pytest.mark.parametrize("text, err", [
    ("triangle a b c\ntriangle a b c\n", "line 2: duplicate triangle a b c (line 1)"),
    # two triangles glued along all three edges were read as one, a closed disk
    ("triangle a b c\ntriangle c b a\n", "line 2: duplicate triangle c b a (line 1)"),
    (TRI_FILE + "# again\ntriangle  d b   c\n", "line 6: duplicate triangle d b c (line 4)"),
])
def test_duplicate_triangle_is_a_format_error(files, capsys, verb, text, err):
    write, _ = files
    assert run([verb, write("dup.tri", text), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"E_FILE_FORMAT: {err}\n"


def test_homology_simplicial_direct(files, capsys):
    write, _ = files
    code = run(["homology", write("tet.tri", TRI_FILE), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (payload["H0"], payload["H1"], payload["H2"]) == ("Z", "0", "Z")


def test_homology_of_a_random_2_complex(files, capsys):
    # a Linial-Meshulam random 2-complex: its +-1 d2 on the dual trees is
    # 730 x 504, which the Smith reduction finishes on unit pivots alone
    write, _ = files
    rng = random.Random(2)
    triangles = [t for t in combinations(range(40), 3) if rng.random() < 2.8 / 40]
    text = "".join(f"triangle v{a} v{b} v{c}\n" for a, b, c in triangles)
    code = run(["homology", write("lm40.tri", text), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload == {
        "H0": "Z", "H1": "Z^17", "H2": "Z^20", "euler": 4,
        "vertices": 40, "edges": 730, "triangles": 694,
    }


def test_refine_output_parses(files, capsys):
    write, tmp = files
    out_path = str(tmp / "out.tri")
    code = run(["refine", write("t.cc", TORUS_CC), "--out", out_path])
    assert code == 0
    text = (tmp / "out.tri").read_text()
    assert text.startswith("triangle ")
    code = run(["homology", out_path, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["H1"] == "Z^2"


def test_fractal_render_deterministic(files, capsys):
    write, tmp = files
    a, b = str(tmp / "a.svg"), str(tmp / "b.svg")
    assert run(["fractal-render", "--preset", "sierpinski-gasket", "--iters", "4", "--out", a]) == 0
    assert run(["fractal-render", "--preset", "sierpinski-gasket", "--iters", "4", "--out", b]) == 0
    assert capsys.readouterr().err == f"wrote {a} (243 primitives)\nwrote {b} (243 primitives)\n"
    da = (tmp / "a.svg").read_bytes()
    db = (tmp / "b.svg").read_bytes()
    assert da == db
    assert da.startswith(b"<svg ")
    # 3 maps, 3 seed segments: 4 iterations -> 3^4 * 3 paths
    assert da.count(b"<path") == 3**4 * 3


def test_fractal_render_zero_iters_koch(files, capsys):
    write, tmp = files
    out_path = str(tmp / "k.svg")
    assert run(["fractal-render", "--preset", "koch", "--iters", "0", "--out", out_path]) == 0
    data = (tmp / "k.svg").read_text()
    assert data.count("<path") == 1


def test_fractal_render_point_seed_circles(files, capsys):
    write, tmp = files
    seed = write("seed.pts", "0.1,0.2\n")
    out_path = str(tmp / "p.svg")
    assert run([
        "fractal-render", "--preset", "sierpinski-gasket", "--iters", "2",
        "--seed-file", seed, "--out", out_path,
    ]) == 0
    assert capsys.readouterr().err == f"wrote {out_path} (9 primitives)\n"
    assert (tmp / "p.svg").read_text().count("<circle") == 9


def test_fractal_render_unknown_preset(files, capsys):
    code = run(["fractal-render", "--preset", "nope", "--iters", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("E_UNKNOWN_PRESET: ") and err.count("\n") == 1
    # the message names every accepted preset, and each of them renders
    names = err.split("choose from ")[1].strip().split(", ")
    assert sorted(names) == [
        "heighway", "hilbert", "koch", "sierpinski-dragon", "sierpinski-gasket", "snowflake",
    ]
    for name in names:
        assert run(["fractal-render", "--preset", name, "--iters", "1"]) == 0, name
        assert capsys.readouterr().out.startswith("<svg"), name


def test_hausdorff_cli(files, capsys):
    write, _ = files
    a = write("a.pts", "0,0\n1,0\n")
    b = write("b.pts", "3,0\n")
    assert run(["hausdorff", a, b]) == 0
    assert float(capsys.readouterr().out) == 3.0


def test_commented_crlf_point_files_give_the_clean_files_bytes(files, capsys):
    # the clean files are read in bulk, the commented CRLF copies line by line
    write, tmp = files
    clean = "0,0\n0.5,-0.0\n1e-3,1\n0.25,0.75\n"
    noisy = "# seed\r\n" + clean.replace("\n", "  # note\r\n").replace("0.25", "\t0.25")
    (tmp / "noisy.pts").write_bytes(noisy.encode())
    seeds = [write("clean.pts", clean), str(tmp / "noisy.pts")]
    for seed in seeds:
        assert run(["fractal-render", "--preset", "sierpinski-gasket", "--iters", "3",
                    "--seed-file", seed, "--out", seed + ".svg"]) == 0
    assert (tmp / "clean.pts.svg").read_bytes() == (tmp / "noisy.pts.svg").read_bytes()
    other = write("b.pts", "# B\n\n3,0\n2,2 # far\n")
    for flags in ([], ["--json"]):
        outs = []
        for a, b in ((seeds[0], write("b-clean.pts", "3,0\n2,2\n")), (seeds[1], other)):
            assert run(["hausdorff", a, b] + flags) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].strip(), outs


def test_winding_cli(files, capsys):
    write, _ = files
    square = write("sq.pts", "0,0\n1,0\n1,1\n0,1\n")
    assert run(["winding", square, "--point", "0.5,0.5"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert run(["winding", square, "--point", "5,5"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run(["winding", square, "--point", "0.5,0"]) == 1
    assert "E_POINT_ON_CURVE" in capsys.readouterr().err


def test_out_flag_writes_file(files, capsys):
    write, tmp = files
    path = str(tmp / "res.json")
    code = run(["classify", write("t.cc", TORUS_CC), "--json", "--out", path])
    assert code == 0
    assert json.loads((tmp / "res.json").read_text())["name"] == "torus"
    assert capsys.readouterr().out == ""


def test_identical_argv_identical_stdout(files, capsys):
    write, _ = files
    path = write("t.cc", TORUS_CC)
    run(["classify", path, "--json"])
    first = capsys.readouterr().out
    run(["classify", path, "--json"])
    assert capsys.readouterr().out == first


def one_coded_line(err, code):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(code + ": "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("point, out, code", [
    ("5e-171,5e-171", "1\n", 0),
    ("2e-170,5e-171", "0\n", 0),
    ("5e-171,0", "", 1),
    ("1e-170,3e-171", "", 1),
])
def test_winding_on_a_curve_whose_squared_sides_underflow(files, capsys, point, out, code):
    # a side of 1e-170 squares to 0.0 as a float
    write, _ = files
    square = write("tiny.pts", "0,0\n1e-170,0\n1e-170,1e-170\n0,1e-170\n")
    assert run(["winding", square, "--point", point]) == code
    cap = capsys.readouterr()
    assert cap.out == out
    if code:
        one_coded_line(cap.err, "E_POINT_ON_CURVE")


@pytest.mark.parametrize("point, out, code", [("0,0", "1\n", 0), ("1e308,0", "", 1)])
def test_winding_on_a_curve_near_the_float_maximum(files, capsys, point, out, code):
    # the square's span of 2e308 is not a finite float
    write, _ = files
    square = write("huge.pts", "-1e308,-1e308\n1e308,-1e308\n1e308,1e308\n-1e308,1e308\n")
    assert run(["winding", square, "--point", point]) == code
    cap = capsys.readouterr()
    assert cap.out == out
    if code:
        one_coded_line(cap.err, "E_POINT_ON_CURVE")


def test_winding_too_few_points(files, capsys):
    write, _ = files
    assert run(["winding", write("two.pts", "0,0\n1,0\n"), "--point", "0.5,0.5"]) == 1
    one_coded_line(capsys.readouterr().err, "E_DEGENERATE_GEOMETRY")


def test_winding_repeated_points(files, capsys):
    write, _ = files
    curve = write("rep.pts", "0,0\n1,0\n1,0\n0,1\n")
    assert run(["winding", curve, "--point", "0.2,0.2"]) == 1
    one_coded_line(capsys.readouterr().err, "E_DEGENERATE_GEOMETRY")


def test_winding_non_finite_point(files, capsys):
    write, _ = files
    square = write("sq.pts", "0,0\n1,0\n1,1\n0,1\n")
    assert run(["winding", square, "--point", "nan,0.5"]) == 2
    one_coded_line(capsys.readouterr().err, "E_USAGE")


def test_fractal_render_repeated_seed_points(files, capsys):
    write, tmp = files
    seed = write("seed.pts", "0,0\n0.5,0.5\n0.5,0.5\n")
    assert run([
        "fractal-render", "--preset", "sierpinski-gasket", "--iters", "1",
        "--seed-file", seed, "--out", str(tmp / "g.svg"),
    ]) == 1
    one_coded_line(capsys.readouterr().err, "E_DEGENERATE_GEOMETRY")


@pytest.mark.parametrize("bad", ["nan,1", "1,inf", "-inf,0"])
def test_hausdorff_rejects_non_finite(files, capsys, bad):
    write, _ = files
    a = write("a.pts", f"0,0\n{bad}\n")
    b = write("b.pts", "0,1\n")
    assert run(["hausdorff", a, b]) == 2
    err = capsys.readouterr().err
    one_coded_line(err, "E_FILE_FORMAT")
    assert "line 2" in err


@pytest.mark.parametrize("bad", ["0.5 0 0 0.5 nan 0", "inf 0 0 0.5 0 0", "0.5 0 0 0.5 0 -inf"])
def test_parse_ifs_rejects_non_finite_coefficients(files, capsys, bad):
    write, tmp = files
    ifs = write("bad.ifs", f"0.5 0 0 0.5 0 0\n{bad}\n")
    seed = write("seg.pts", "0,0\n1,0\n")
    argv = ["fractal-render", "--ifs", ifs, "--seed-file", seed, "--iters", "1"]
    assert run(argv + ["--out", str(tmp / "o.svg")]) == 2
    err = capsys.readouterr().err
    one_coded_line(err, "E_FILE_FORMAT")
    assert "line 2" in err
    assert not (tmp / "o.svg").exists()


@pytest.mark.parametrize("argv", [
    ["validate", "bad.in"],
    ["classify", "bad.in"],
    ["normalize", "bad.in"],
    ["homology", "bad.in"],
    ["refine", "bad.in", "--out", "out"],
    ["fractal-render", "--ifs", "bad.in", "--seed-file", "seg.pts", "--iters", "1", "--out", "out"],
    ["fractal-render", "--ifs", "maps.ifs", "--seed-file", "bad.in", "--iters", "1", "--out", "out"],
    ["hausdorff", "bad.in", "seg.pts"],
    ["hausdorff", "seg.pts", "bad.in"],
    ["winding", "bad.in", "--point", "0.5,0.5"],
], ids=["validate", "classify", "normalize", "homology", "refine", "render-ifs", "render-seed",
        "hausdorff-a", "hausdorff-b", "winding"])
@pytest.mark.parametrize("data, offset", [
    (b"\xff\xfe" + "face A : a a'\n".encode("utf-16-le"), 0),  # a UTF-16 file with its BOM
    ("# côté\n".encode() + b"\xff\n", 9),
    (b"\xef\xbb\xbfab\xff\n", 5),  # counted from the start of the file, byte-order mark included
], ids=["utf16", "byte9", "bom-byte5"])
def test_non_utf8_input_is_one_coded_line(files, capsys, monkeypatch, argv, data, offset):
    write, tmp = files
    write("seg.pts", "0,0\n1,0\n")
    write("maps.ifs", "0.5 0 0 0.5 0 0\n")
    (tmp / "bad.in").write_bytes(data)
    monkeypatch.chdir(tmp)
    assert run(argv) == 2
    err = capsys.readouterr().err
    one_coded_line(err, "E_FILE_FORMAT")
    assert f"bad.in: byte {offset} is not UTF-8" in err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("name, text, argv", [
    ("t.cc", TORUS_CC, ["classify", "{}", "--json"]),
    ("t.tri", TRI_FILE, ["classify", "{}", "--json"]),
    ("sq.pts", "0,0\n1,0\n1,1\n0,1\n", ["winding", "{}", "--point", "0.5,0.5"]),
    ("maps.ifs", "0.5 0 0 0.5 0 0\n0.5 0 0 0.5 0.5 0\n",
     ["fractal-render", "--ifs", "{}", "--seed-file", "seed.pts", "--iters", "2"]),
], ids=["cc", "tri", "pts", "ifs"])
def test_a_leading_byte_order_mark_is_skipped(files, capsys, monkeypatch, name, text, argv):
    write, tmp = files
    write("seed.pts", "0,0\n1,0\n")
    monkeypatch.chdir(tmp)
    results = []
    for prefix in ("", "\ufeff"):
        path = write(("bom-" if prefix else "") + name, prefix + text)
        results.append((run([a.format(path) for a in argv]), capsys.readouterr()))
    assert results[0][0] == 0 and results[0] == results[1]


@pytest.mark.parametrize("maps, seed, iters, code", [
    # a singular map collapses the segment at level 1
    ("0.5 0 0 0 0 0", "0,0\n0,1\n", "1", "E_DEGENERATE_GEOMETRY"),
    ("0.5 0 0 0 0 0", "0,0\n0,1\n", "4", "E_DEGENERATE_GEOMETRY"),
    # finite coefficients, but the shift doubles x past the largest float
    ("0.5 0 0 0.5 1e308 0", "0,0\n0,1\n", "6", "E_RENDER_LIMIT"),
    # the shift absorbs the seed's unit length at level 1; x overflows at
    # level 4 and y = 0 * inf is nan at level 5, where the segment's ends
    # no longer compare equal: only the last level is checked
    ("0.5 0 0 0.5 1e308 0", "0,0\n1,0\n", "3", "E_DEGENERATE_GEOMETRY"),
    ("0.5 0 0 0.5 1e308 0", "0,0\n1,0\n", "5", "E_RENDER_LIMIT"),
    # copy 1 collapses slot 1 and copy 2 slot 0: the first segment in
    # copy-major order is named, not the first in slot-major order
    ("0.5 0 0 0.5 0 0\n0.5 0 0 0 0.25 0.75\n0 0 0 0.5 0.125 0.5", "0,0\n1,0\n1,1\n", "1",
     "E_DEGENERATE_GEOMETRY: segment endpoints coincide at (0.75, 0.75)"),
    # at level 4, copy 0's x overflows and copy 1's segments are collapsed:
    # the degenerate segment is named before the overflow
    ("0.5 0 0 0.5 1e308 0\n0.5 0 0 0 0 0", "0,0\n0,1\n0,2\n", "4",
     "E_DEGENERATE_GEOMETRY: segment endpoints coincide at (1.75e+308, 0.0)"),
])
def test_fractal_render_failure_is_one_coded_line(files, capsys, maps, seed, iters, code):
    # code is the line's code, or the whole line
    write, tmp = files
    ifs, pts = write("maps.ifs", maps + "\n"), write("seg.pts", seed)
    argv = ["fractal-render", "--ifs", ifs, "--seed-file", pts, "--iters", iters]
    assert run(argv + ["--out", str(tmp / "o.svg")]) == 1
    err = capsys.readouterr().err
    one_coded_line(err, code.split(":")[0])
    if ":" in code:
        assert err == code + "\n"
    assert not (tmp / "o.svg").exists()


def test_fractal_render_rejects_negative_iters(files, capsys):
    _, tmp = files
    out_path = str(tmp / "g.svg")
    assert run(["fractal-render", "--preset", "koch", "--iters", "-1", "--out", out_path]) == 2
    one_coded_line(capsys.readouterr().err, "E_USAGE")
    assert not (tmp / "g.svg").exists()


@pytest.mark.parametrize("extra, message", [
    (["--preset", "koch", "--ifs", "maps.ifs"], "--preset and --ifs exclude each other"),
    (["--preset", "snowflake", "--ifs", "maps.ifs"], "--preset and --ifs exclude each other"),
    (["--preset", "snowflake", "--seed-file", "seg.pts"], "--preset snowflake takes no --seed-file"),
], ids=["koch-ifs", "snowflake-ifs", "snowflake-seed"])
def test_fractal_render_rejects_inputs_it_would_ignore(files, capsys, monkeypatch, extra, message):
    write, tmp = files
    write("maps.ifs", "0.5 0 0 0.5 0 0\n0.5 0 0 0.5 0.5 0\n")
    write("seg.pts", "0,0\n1,0\n")
    monkeypatch.chdir(tmp)
    assert run(["fractal-render", *extra, "--iters", "1", "--out", "o.svg"]) == 2
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", f"E_USAGE: {message}\n")
    assert not (tmp / "o.svg").exists()


def pinched_genus_two():
    """A genus-2 triangulation with two far-apart vertices glued together."""
    _, simp = refine_to_triangulation(make_canonical(NormalForm("I", 2, 0)))
    near = {v: {v} for v in simp.vertices}
    for a, b in simp.edges:
        near[a].add(b)
        near[b].add(a)
    u = simp.vertices[0]
    within_two = set().union(*(near[x] for x in near[u]))
    w = next(v for v in simp.vertices if v not in within_two)
    return "".join(
        "triangle " + " ".join(u if x == w else x for x in t) + "\n"
        for t in simp.triangles
    ), u


def test_classify_pinched_triangulation_is_not_a_surface(files, capsys):
    write, _ = files
    text, glued = pinched_genus_two()
    path = write("pinched.tri", text)
    assert run(["homology", path]) == 0  # the pinched space itself
    assert "H1: Z^5" in capsys.readouterr().out
    assert run(["classify", path]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    one_coded_line(cap.err, "E_NOT_A_SURFACE")
    assert f"vertex {glued} " in cap.err


def test_classify_edge_in_three_triangles_names_user_vertices(files, capsys):
    write, _ = files
    path = write("fin.tri", "triangle a b c\ntriangle a b d\ntriangle a b x\n")
    assert run(["classify", path]) == 1
    err = capsys.readouterr().err
    one_coded_line(err, "E_NOT_A_SURFACE")
    assert "('a', 'b') lies in 3 triangles" in err
    assert not re.search(r"\be\d+\b", err)


@pytest.mark.parametrize("case", ["pinched", "fin"])
def test_validate_non_surface_triangulation_gives_one_coded_line(files, capsys, case):
    # stderr names the first violation that the report lists, the one
    # that classify names for the same file
    write, _ = files
    if case == "pinched":  # no border edges: the closed check governs
        text = pinched_genus_two()[0]
    else:  # border edges: the bordered check governs
        text = "triangle a b c\ntriangle a b d\ntriangle a b x\n"
    path = write(f"{case}.tri", text)
    assert run(["validate", path]) == 1
    cap = capsys.readouterr()
    assert "closed_surface: False\nbordered_surface: False\n" in cap.out
    one_coded_line(cap.err, "E_NOT_A_SURFACE")
    assert run(["classify", path]) == 1
    assert capsys.readouterr().err == cap.err
    assert run(["validate", path, "--json"]) == 1
    out, err = capsys.readouterr()
    assert err == cap.err == f"E_NOT_A_SURFACE: {json.loads(out)['violations'][0]}\n"


def test_validate_of_one_triangle_lists_no_violation(files, capsys):
    # a valid bordered surface: the closed check fails, but does not govern
    write, _ = files
    assert run(["validate", write("disc.tri", "triangle a b c\n"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["closed_surface"], report["bordered_surface"], report["violations"]) == (
        False, True, [])


def test_refine_refuses_an_output_whose_border_circles_differ_from_the_input(capsys, monkeypatch):
    # the torus has no contour, so an output with one border circle is
    # refused before anything is written, even when its checks pass
    one_circle = lambda closed, bordered: ValidationReport(True, (), 1)  # noqa: E731
    monkeypatch.setattr(simplicial, "surface_verdict", one_circle)
    assert run(["refine", str(SAMPLES / "torus.cc")]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    one_coded_line(cap.err, "E_INTERNAL")
    assert "1 border circles" in cap.err


def test_classify_h1_equals_homology_h1_on_valid_triangulations(files, capsys, figure_triangulations):
    # two independent routes to H1: the normal form and the SNF of the
    # boundary matrices; each input is at most 30 triangles
    write, _ = files
    cases = dict(figure_triangulations, disc=DISC, mobius=MOBIUS_BAND)
    for name, tris in cases.items():
        assert len(tris) <= 30
        path = write(f"{name}.tri", "".join(f"triangle {a} {b} {c}\n" for a, b, c in tris))

        def payload(verb):
            assert run([verb, path, "--json"]) == 0, name
            return json.loads(capsys.readouterr().out)

        report = payload("validate")
        assert report["closed_surface"] or report["bordered_surface"], name
        assert payload("classify")["h1"] == payload("homology")["H1"], name


@pytest.mark.parametrize("case", ["faces", "euler"])
def test_classify_tri_cross_checks_the_glued_polygon(files, capsys, monkeypatch, figure_triangulations, case):
    # a gluing that leaves several faces, or one face of the wrong
    # surface, is caught before normalize with one coded line
    write, _ = files
    if case == "faces":
        broken = faces_per_triangle
    else:
        torus = to_cell_complex(build_simplicial(figure_triangulations["torus"]))
        broken = lambda K: torus  # noqa: E731
    monkeypatch.setattr(cli, "to_cell_complex", broken)
    assert run(["classify", write("tet.tri", TRI_FILE)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    one_coded_line(cap.err, "E_INTERNAL")


def test_fractal_render_one_map_ifs_is_bounded_in_iters(files, capsys, monkeypatch):
    # one map keeps the scene at one segment, so the iteration count is
    # what is bounded; a stub records what would have been iterated
    rendered = []

    def stub(system, seed, iters):
        rendered.append(iters)
        return seed

    monkeypatch.setattr(cli, "ifs_iterate", stub)
    write, tmp = files
    ifs = write("one.ifs", "0.9999 0 0 0.9999 0 0\n")
    seed = write("seg.pts", "0,0\n1,0\n")
    argv = ["fractal-render", "--ifs", ifs, "--seed-file", seed, "--out", str(tmp / "o.svg")]
    for iters in (10**9, cli.MAX_PRIMITIVES + 1):
        assert run(argv + ["--iters", str(iters)]) == 1
        one_coded_line(capsys.readouterr().err, "E_RENDER_LIMIT")
    assert rendered == []
    assert run(argv + ["--iters", str(cli.MAX_PRIMITIVES)]) == 0
    assert rendered == [cli.MAX_PRIMITIVES]


def test_fractal_render_rejects_a_render_over_the_primitive_cap(files, capsys, monkeypatch):
    # 3 seed segments x 3^60: refused before any iteration or allocation
    def no_render(*args):
        raise AssertionError("iterated although the render is over the cap")

    monkeypatch.setattr(cli, "ifs_iterate", no_render)
    monkeypatch.setattr(cli, "snowflake", no_render)
    _, tmp = files
    out_path = str(tmp / "g.svg")
    argv = ["fractal-render", "--preset", "sierpinski-gasket", "--iters", "60", "--out", out_path]
    assert run(argv) == 1
    one_coded_line(capsys.readouterr().err, "E_RENDER_LIMIT")
    assert not (tmp / "g.svg").exists()
    assert run(["fractal-render", "--preset", "snowflake", "--iters", "60"]) == 1
    one_coded_line(capsys.readouterr().err, "E_RENDER_LIMIT")


def test_fractal_render_primitive_cap_boundary(files, capsys, monkeypatch):
    # gasket: 3 x 3^11 = 531,441 primitives are served, 3 x 3^12 are not;
    # a stub stands in for the iteration so nothing large is built
    rendered = []

    def stub(system, seed, iters):
        rendered.append(iters)
        return seed

    monkeypatch.setattr(cli, "ifs_iterate", stub)
    _, tmp = files
    out_path = str(tmp / "g.svg")
    base = ["fractal-render", "--preset", "sierpinski-gasket", "--out", out_path]
    assert 3 * 3**11 <= cli.MAX_PRIMITIVES < 3 * 3**12
    assert run(base + ["--iters", "11"]) == 0
    assert run(base + ["--iters", "12"]) == 1
    assert rendered == [11]
    one_coded_line(capsys.readouterr().err.splitlines()[-1], "E_RENDER_LIMIT")


def test_cached_parser_matches_separate_runs(files, capsys, monkeypatch):
    """One parser serves every call of a process: a valid verb, a usage
    error, then the valid verb again give what three fresh processes give."""
    write, _ = files
    path = write("torus.cc", TORUS_CC)
    calls = [["classify", path], ["classify", path, "--bogus"], ["classify", path]]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to it
    in_process = []
    for argv in calls:
        code = run(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert cli._parser() is cli._parser()

    env = dict(
        os.environ,
        PYTHONPATH=str(Path(surfclass.__file__).parents[1]),
        PYTHONIOENCODING="utf-8",
        COLUMNS="80",
    )
    separate = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-m", "surfclass.cli", *argv],
            capture_output=True,
            encoding="utf-8",
            env=env,
        )
        separate.append((done.returncode, done.stdout, done.stderr))
    assert in_process == separate
    assert [c[0] for c in in_process] == [0, 2, 0]
    assert in_process[1][2].startswith("usage: surfclass ")


# ---------------------------------------------------------------------------
# failure paths: stdout, every stderr line and the exit code

FIN_TRI = "triangle a b c\ntriangle a b d\ntriangle a b e\n"  # edge a b in three triangles
SAMPLES = Path(__file__).parents[1] / "samples"


def no_such_file(path):
    return f"E_IO: [Errno 2] No such file or directory: {path!r}\n"


@pytest.mark.parametrize("argv", [
    ["classify", "missing.in"],
    ["fractal-render", "--ifs", "missing.in", "--seed-file", "missing.in", "--out", "o.svg"],
], ids=["classify", "fractal-render"])
def test_a_missing_input_is_one_io_line(files, capsys, monkeypatch, argv):
    _, tmp = files
    monkeypatch.chdir(tmp)
    assert run(argv) == 1
    assert capsys.readouterr() == ("", no_such_file("missing.in"))
    assert list(tmp.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["classify", "{}"],
    ["validate", "{}"],
    ["fractal-render", "--preset", "koch", "--iters", "1"],
], ids=["classify", "validate", "fractal-render"])
def test_out_into_a_missing_directory_is_one_io_line(files, capsys, argv):
    # fractal-render prints no 'wrote' note for the file it could not write
    write, tmp = files
    path = write("t.cc", TORUS_CC)
    out_path = str(tmp / "nodir" / "o.txt")
    assert run([a.format(path) for a in argv] + ["--out", out_path]) == 1
    assert capsys.readouterr() == ("", no_such_file(out_path))


@pytest.mark.parametrize("argv, status, code", [
    (["validate", "bad.cc"], 1, "E_EDGE_MULTIPLICITY"),
    (["classify", "bad.cc"], 1, "E_EDGE_MULTIPLICITY"),
    (["normalize", "bad.cc", "--trace"], 1, "E_EDGE_MULTIPLICITY"),
    (["homology", "bad.cc"], 1, "E_EDGE_MULTIPLICITY"),
    (["hausdorff", "one.pts", "empty.pts"], 2, "E_FILE_FORMAT"),
    (["winding", "one.pts", "--point", "0,1"], 1, "E_DEGENERATE_GEOMETRY"),
], ids=["validate", "classify", "normalize", "homology", "hausdorff", "winding"])
def test_a_failing_verb_creates_no_out_file(files, capsys, monkeypatch, argv, status, code):
    write, tmp = files
    write("bad.cc", BAD_CC)
    write("one.pts", "0,0\n")
    write("empty.pts", "# none\n")
    monkeypatch.chdir(tmp)
    assert run(argv + ["--out", "o.txt"]) == status
    cap = capsys.readouterr()
    assert cap.out == ""
    one_coded_line(cap.err, code)
    assert not (tmp / "o.txt").exists()


def test_validate_writes_its_refused_report_to_out(files, capsys):
    write, tmp = files
    path = write("fin.tri", FIN_TRI)
    out_path = str(tmp / "report.txt")
    assert run(["validate", path, "--out", out_path]) == 1
    err = "E_NOT_A_SURFACE: D1: edge ('a', 'b') lies in 3 triangles\n"
    assert capsys.readouterr() == ("", err)
    report = (tmp / "report.txt").read_text(encoding="utf-8")
    assert report.startswith("kind: simplicial\nclosed_surface: False\nbordered_surface: False\n")
    assert report.endswith("border_circles: 1\nvertices: 5\nedges: 7\ntriangles: 3\n")
    assert run(["validate", path]) == 1
    assert capsys.readouterr() == (report, err)
    # a report that cannot be written leaves only the E_IO line
    out_path = str(tmp / "nodir" / "report.txt")
    assert run(["validate", path, "--out", out_path]) == 1
    assert capsys.readouterr() == ("", no_such_file(out_path))


def test_winding_point_that_is_not_two_numbers(files, capsys):
    square = str(SAMPLES / "square.pts")
    assert run(["winding", square, "--point", "abc"]) == 2
    assert capsys.readouterr() == ("", "E_USAGE: --point expects 'x,y'\n")
    assert run(["winding", square, "--point", "0.5,0.5", "--json"]) == 0
    assert capsys.readouterr() == ('{"winding": 1}\n', "")


@pytest.mark.parametrize("extra, message", [
    ([], "need --preset or --ifs"),
    (["--ifs", "maps.ifs"], "custom IFS needs --seed-file"),
], ids=["no-system", "no-seed"])
def test_fractal_render_without_a_system_or_seed(files, capsys, monkeypatch, extra, message):
    write, tmp = files
    write("maps.ifs", "0.5 0 0 0.5 0 0\n")
    monkeypatch.chdir(tmp)
    assert run(["fractal-render", *extra, "--iters", "1"]) == 2
    assert capsys.readouterr() == ("", f"E_USAGE: {message}\n")


@pytest.mark.parametrize("maps, message", [
    ("0.5 0 0 0.5 0 0\n0.5 0 0 0.5 0\n", "line 2: expected 6 coefficients"),
    ("# maps\n0.5 0 0 x 0 0\n", "line 2: bad coefficient"),
    ("# no maps\n", "no maps in IFS file"),
], ids=["five", "x", "comments"])
def test_fractal_render_bad_ifs_file_is_one_coded_line(files, capsys, maps, message):
    write, tmp = files
    seed = write("s.pts", "0,0\n1,0\n")
    argv = ["fractal-render", "--ifs", write("m.ifs", maps), "--seed-file", seed]
    assert run(argv + ["--out", str(tmp / "o.svg")]) == 2
    assert capsys.readouterr() == ("", f"E_FILE_FORMAT: {message}\n")
    assert not (tmp / "o.svg").exists()


def test_an_ascii_stdout_gets_one_io_line_and_out_stays_utf8(files, capsys, monkeypatch):
    # the wrapper encodes the whole text before it writes, so stdout stays empty
    write, tmp = files
    path = write("m.cc", MOBIUS_CC)
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
    for flags in ([], ["--json"]):
        assert run(["classify", path, *flags]) == 1
        sys.stdout.flush()
        assert raw.getvalue() == b""
        assert capsys.readouterr() == (
            "", "E_IO: stdout's encoding ascii cannot write 'ö'; use --out FILE, which is UTF-8\n"
        )
    assert run(["classify", path, "--out", str(tmp / "m.txt")]) == 0
    assert (tmp / "m.txt").read_bytes().startswith("Möbius strip\n".encode("utf-8"))
    assert raw.getvalue() == b"" and capsys.readouterr() == ("", "")
