import json

import pytest

from surfclass.cli import run

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


def test_homology_cell_input_notice(files, capsys):
    write, _ = files
    code = run(["homology", write("t.cc", TORUS_CC), "--json"])
    captured = capsys.readouterr()
    assert code == 0
    assert "refining" in captured.err
    payload = json.loads(captured.out)
    assert payload["H1"] == "Z^2" and payload["H2"] == "Z"


def test_homology_simplicial_direct(files, capsys):
    write, _ = files
    code = run(["homology", write("tet.tri", TRI_FILE), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (payload["H0"], payload["H1"], payload["H2"]) == ("Z", "0", "Z")


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
    capsys.readouterr()
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
    assert (tmp / "p.svg").read_text().count("<circle") == 9


def test_fractal_render_unknown_preset(files, capsys):
    code = run(["fractal-render", "--preset", "nope", "--iters", "1"])
    assert code == 1
    assert "E_UNKNOWN_PRESET" in capsys.readouterr().err


def test_hausdorff_cli(files, capsys):
    write, _ = files
    a = write("a.pts", "0,0\n1,0\n")
    b = write("b.pts", "3,0\n")
    assert run(["hausdorff", a, b]) == 0
    assert float(capsys.readouterr().out) == 3.0


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
