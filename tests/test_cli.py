"""Command-line interface: every subcommand, argument handling, output shapes."""

import json
import math
import warnings

import numpy as np
import pytest

from feketedyn.cli import UNDECIDED_EXIT, main
from feketedyn.polyarith import chebyshev_monic

# an integer past the float range, which stopped root solves with OverflowError
HUGE = str(10 ** 400)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- capacity

def test_capacity_poly_inline(capsys):
    code, out, _ = run(capsys, "capacity", "--poly", "-2 0 1")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


def test_capacity_poly_file(capsys, tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("0 1 2\n")
    code, out, _ = run(capsys, "capacity", "--poly-file", str(f))
    assert code == 0
    # cap = |a_d|^(-1/(d-1)) = 2^(-1) for 2z^2 + z
    assert float(out.strip()) == pytest.approx(0.5, abs=1e-12)


def test_capacity_set_config(capsys, tmp_path):
    cfg = tmp_path / "set.cfg"
    cfg.write_text("kind = interval\na = -2\nb = 2\n")
    code, out, _ = run(capsys, "capacity", "--config", str(cfg))
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("argv, text", [
    (("capacity", "--config"), "\ufeffkind = interval\na = -2\nb = 2\n"),
    (("capacity", "--config"), '\ufeff{"kind": "interval", "a": -2, "b": 2}\n'),
    (("capacity", "--poly-file"), "\ufeff-2 0 1\n"),
    (("capacity", "--config"), "kind = union_of_intervals\nintervals = [-2, 1, 0, 2]\n"),
], ids=["bom-flat-config", "bom-json-config", "bom-poly-file", "overlapping-union"])
def test_capacity_one_prints_1(capsys, tmp_path, argv, text):
    # a UTF-8 byte-order mark was read as text: "unknown set kind None",
    # "expected 'key = value', got '\ufeff{...'" and "invalid literal for
    # int()"; the overlapping union took the Fekete path and printed 0.9986
    f = tmp_path / "input.txt"
    f.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, *argv, str(f))
    assert (code, out) == (0, "1\n")


def test_capacity_requires_input(capsys):
    with pytest.raises(SystemExit):
        main(["capacity"])


# -------------------------------------------------------------------- green

def test_green_dynamical(capsys):
    code, out, _ = run(capsys, "green", "--poly", "0 0 1", "--at", "3,0")
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.log(3.0), abs=1e-9)


def test_green_spaced_negative_point(capsys):
    # a value starting with '-' after a space is the point, not a flag
    spaced = run(capsys, "green", "--poly", "0 0 1", "--at", "-3,0")
    assert spaced == run(capsys, "green", "--poly", "0 0 1", "--at=-3,0")
    code, out, _ = spaced
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.log(3.0), abs=1e-9)


def test_green_set(capsys, tmp_path):
    cfg = tmp_path / "set.cfg"
    cfg.write_text("kind = interval\na = -2\nb = 2\n")
    code, out, _ = run(capsys, "green", "--config", str(cfg),
                       "--at", "2.1,0")
    assert code == 0
    assert float(out.strip()) == pytest.approx(math.acosh(1.05), abs=1e-9)


@pytest.mark.parametrize("text", [
    "kind = disk\ncenter = 0\nradius = 1\n",
    "kind = circle\ncenter = 0\nradius = 1\n",
    "kind = union_of_intervals\nintervals = [-2, -1, 1, 2]\n",
], ids=["disk", "circle", "union"])
def test_green_set_near_float_max(capsys, tmp_path, text):
    # |z| overflowed and the value printed was inf, with exit 0; for a set of
    # capacity at most 1 around 0, g is log|z| - log cap, about 710.07 or more
    cfg = tmp_path / "set.cfg"
    cfg.write_text(text)
    code, out, _ = run(capsys, "green", "--config", str(cfg), "--at", "1.7e308,1.7e308")
    assert code == 0
    value = float(out.strip())
    assert math.isfinite(value) and value >= math.log(1.7e308) + 0.5 * math.log(2) - 1e-12


@pytest.mark.parametrize("text, at", [
    ("kind = interval\na = -2\nb = 2\n", "0,3e-9"),
    ("kind = disk\ncenter = 0\nradius = 1\n", "1.0000000015,0"),
    ("kind = circle\ncenter = 0\nradius = 1\n", "1.0000000015,0"),
], ids=["interval", "disk", "circle"])
def test_green_set_zero_on_the_hull_band(capsys, tmp_path, text, at):
    # within the membership tolerance of the set, so in the hull: the
    # closed forms' own bands printed 1.4999999009409518e-09 here
    cfg = tmp_path / "set.cfg"
    cfg.write_text(text)
    code, out, _ = run(capsys, "green", "--config", str(cfg), "--at", at)
    assert (code, out) == (0, "0\n")


def test_green_undecided_orbit(capsys):
    # 0 -> 1 -> 2 stays inside the escape radius 2 of z^2 + 1 for two steps:
    # no value, where a bare 0 was printed with exit 0
    assert run(capsys, "green", "--poly", "1 0 1", "--at", "0,0", "--max-iter", "2") \
        == (UNDECIDED_EXIT, "undecided\n", "")
    assert UNDECIDED_EXIT not in (0, 1, 2)
    code, out, _ = run(capsys, "green", "--poly", "1 0 1", "--at", "0,0", "--max-iter", "3")
    assert code == 0
    assert float(out) == pytest.approx(0.20367726136974004, rel=1e-12)


# -------------------------------------------------------------------- julia

def test_julia_raster(capsys, tmp_path):
    out_dir = tmp_path / "img"
    code, out, _ = run(capsys, "julia", "--poly", "-2 0 1",
                       "--out", str(out_dir), "--resolution", "64,64")
    assert code == 0
    pgm = out_dir / "julia.pgm"
    assert pgm.exists()
    assert pgm.read_bytes().startswith(b"P5")
    sidecar = json.loads((out_dir / "julia.pgm.json").read_text())
    assert sidecar["resolution"] == [64, 64]
    assert str(pgm) in out


def test_julia_spaced_negative_bbox(capsys, tmp_path):
    a, b = tmp_path / "spaced", tmp_path / "joined"
    for out_dir, bbox in ((a, ["--bbox", "-2,2,-1,1"]), (b, ["--bbox=-2,2,-1,1"])):
        code, _, _ = run(capsys, "julia", "--poly", "-2 0 1", "--out", str(out_dir),
                         *bbox, "--resolution", "16,16")
        assert code == 0
    assert (a / "julia.pgm").read_bytes() == (b / "julia.pgm").read_bytes()
    sidecar = json.loads((a / "julia.pgm.json").read_text())
    assert sidecar["bbox"] == [-2.0, 2.0, -1.0, 1.0]


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_julia_raster_overflowing_moduli(capsys, tmp_path):
    # every pixel has finite parts; some have moduli past the largest float
    out_dir = tmp_path / "img"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(capsys, "julia", "--poly", "0 0 1", "--out", str(out_dir),
                         "--bbox", "1e308,1.7e308,1e308,1.7e308",
                         "--resolution", "16,16")
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    text = (out_dir / "julia.pgm.json").read_text()
    sidecar = json.loads(text, parse_constant=_no_constant)
    # g_max is log|z| at the far corner: log 1.7e308 + log|1 + i| less half a pixel
    assert 709.5 < sidecar["g_max"] < 710.1
    assert sidecar["undecided_pixels"] == 0


# ------------------------------------------------------------------- brolin

def test_brolin_csv(capsys, tmp_path):
    out_dir = tmp_path / "m"
    code, out, _ = run(capsys, "brolin", "--poly", "-2 0 1",
                       "--out", str(out_dir), "--n", "512", "--seed", "3")
    assert code == 0
    path = out_dir / "brolin.csv"
    assert path.read_text().splitlines()[0] == "re,im,weight"
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (512, 3)
    assert float(np.sum(rows[:, 2])) == pytest.approx(1.0, abs=1e-12)
    # K_{z^2-2} = [-2,2]
    assert float(np.max(np.abs(rows[:, 0]))) <= 2.0 + 1e-6
    assert float(np.max(np.abs(rows[:, 1]))) <= 1e-5


@pytest.fixture
def cheb64(tmp_path):
    # 2T_64(z/2): far past float root-finding, so its preimages must come in
    # closed form
    path = tmp_path / "cheb64.txt"
    path.write_text(chebyshev_monic(64).to_text() + "\n")
    return path


def test_brolin_chebyshev_64(capsys, tmp_path, cheb64):
    out_dir = tmp_path / "m"
    code, _, _ = run(capsys, "brolin", "--poly-file", str(cheb64),
                     "--out", str(out_dir), "--n", "1024")
    assert code == 0
    rows = np.loadtxt(out_dir / "brolin.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape == (1024, 3)
    assert float(np.max(np.abs(rows[:, 0]))) <= 2.0 + 1e-9
    assert float(np.max(np.abs(rows[:, 1]))) <= 1e-9


@pytest.mark.parametrize("degree, at, want", [
    (2, "0", 0.0), (64, "0.5", 0.0), (1024, "2.5", math.log(2)), (1024, "3", 0.9624236501192069),
])
def test_green_chebyshev_is_the_segment_green(capsys, tmp_path, degree, at, want):
    # 2T_d(z/2) reads the Green function of [-2, 2]: on the segment it
    # printed undecided with exit 3, and at degree 1,024 the overflow branch
    # printed 1.0076515432127651 at 2.5 and 1.1560813691402709 at 3
    path = tmp_path / "cheb.txt"
    path.write_text(chebyshev_monic(degree).to_text() + "\n")
    code, out, _ = run(capsys, "green", "--poly-file", str(path), "--at", at)
    assert code == 0
    if want == 0.0:
        assert out == "0\n"
    assert float(out) == pytest.approx(want, abs=1e-15)


def test_julia_chebyshev_64_bbox_from_atoms(capsys, tmp_path, cheb64):
    out_dir = tmp_path / "img"
    code, _, _ = run(capsys, "julia", "--poly-file", str(cheb64),
                     "--out", str(out_dir), "--resolution", "16,16")
    assert code == 0
    # the atoms' bounding box, on [-2, 2], widened by 0.5
    bbox = json.loads((out_dir / "julia.pgm.json").read_text())["bbox"]
    assert bbox == pytest.approx([-2.5, 2.5, -0.5, 0.5], abs=1e-3)


@pytest.mark.parametrize("argv, needle", [
    (("green", "--poly", "0 0 1", "--at", "abc"), "argument --at: "),
    (("julia", "--poly", "0 0 1", "--bbox", "1,a,2,3"), "argument --bbox: "),
    (("julia", "--poly", "0 0 1", "--bbox", "1,0,0,1"), "degenerate bbox"),
    (("julia", "--poly", "0 0 1", "--resolution", "8,8"), "below 16x16"),
    (("julia", "--poly", "0 0 1", "--resolution", "x"), "argument --resolution: "),
    (("brolin", "--poly", "0 0 1", "--n", "0"), "argument --n: "),
    (("green", "--poly", "1 1", "--at", "1"), "degree >= 2"),
    (("capacity", "--poly", "5"), "degree >= 2"),
    (("green", "--poly", "0 0 1", "--at", "3", "--max-iter", "-1"),
     "argument --max-iter: "),
    (("julia", "--poly", "0 0 1", "--max-iter", "x"), "argument --max-iter: "),
    (("height", "weil", "--poly", "5"), "degree >= 1"),
    (("capacity", "--poly-file", "{tmp}/missing.txt"), "cannot read"),
    (("capacity", "--poly-file", "{tmp}/bin.txt"), "cannot read"),
    (("capacity", "--poly", "{tmp}/bin.txt"), "cannot read"),
    (("capacity", "--config", "{tmp}/bin.txt"), "codec can't decode"),
    # a non-finite window wrote a sidecar with "g_max": Infinity
    (("julia", "--poly", "0 0 1", "--bbox", "0,inf,0,1"), "is not finite"),
    (("green", "--poly", "0 0 1", "--at", "nan,0"), "is not finite"),
    # a coefficient past the float range, which ended in OverflowError
    (("capacity", "--poly", f"0 0 {HUGE}"), "a float can hold"),
    (("height", "canonical", "--poly", "-2 1", "--dyn", f"0 0 1 {HUGE}"),
     "a float can hold"),
    # two sources, of which --poly-file silently won
    (("capacity", "--poly", "0 0 1", "--poly-file", "{tmp}/bin.txt"),
     "not allowed with argument --poly"),
    (("capacity",), "one of the arguments --poly --poly-file --config is required"),
    # a non-monic map, which ended in a GoodReductionError traceback
    (("height", "canonical", "--poly", "-2 1", "--dyn", "0 0 2"), "non-monic map"),
    # the text of a --poly-file naming another file, which was followed
    (("capacity", "--poly-file", "{tmp}/pointer.txt"), "invalid literal"),
    # options that the chosen path never reads, which were silently dropped
    (("green", "--config", "{tmp}/disk.cfg", "--at", "3,0", "--max-iter", "0"),
     "--max-iter"),
    (("height", "weil", "--poly", "-2 0 1", "--set", "{tmp}/disk.cfg"), "--set"),
    (("height", "canonical", "--poly", "-2 0 1", "--dyn", "0 0 1",
      "--set", "{tmp}/disk.cfg"), "--set"),
    (("height", "weil", "--poly", "-2 0 1", "--dyn", "0 0 1"), "--dyn"),
    (("height", "rumely", "--poly", "-2 0 1", "--dyn", "0 0 1"), "--dyn"),
    (("julia", "--poly", "0 0 1", "--bbox", "-2,2,-1,1", "--seed", "9"), "--seed"),
    # text that is no coefficients, which gave only int()'s message
    (("capacity", "--poly", "abc"),
     "a map needs integer coefficients 'c0 c1 ... cd', got 'abc'"),
    (("height", "canonical", "--poly", "-2 1", "--dyn", "x y"),
     "a map needs integer coefficients 'c0 c1 ... cd', got 'x y'"),
    (("height", "weil", "--poly", "1 z"),
     "a minimal polynomial needs integer coefficients 'c0 c1 ... cd', got '1 z'"),
], ids=["at", "bbox-part", "bbox-degenerate", "resolution-small",
        "resolution-text", "brolin-n", "green-degree", "capacity-degree",
        "green-max-iter", "julia-max-iter", "height-constant", "poly-file-missing",
        "poly-file-binary", "poly-binary", "config-binary", "bbox-infinite", "at-nan",
        "capacity-huge", "dyn-huge", "two-sources", "no-source", "dyn-non-monic",
        "poly-file-path-text", "green-config-max-iter", "weil-set", "canonical-set",
        "weil-dyn", "rumely-dyn", "julia-bbox-seed", "poly-text", "dyn-text",
        "minpoly-text"])
def test_malformed_argument_is_usage_error(capsys, tmp_path, argv, needle):
    # bin.txt is a file that is not UTF-8; pointer.txt holds the path of a
    # file of coefficients
    (tmp_path / "bin.txt").write_bytes(b"\xff\xfe\x00")
    (tmp_path / "sq.txt").write_text("0 0 1")
    (tmp_path / "pointer.txt").write_text(str(tmp_path / "sq.txt"))
    (tmp_path / "disk.cfg").write_text("kind = disk\ncenter = 0\nradius = 1\n")
    argv = tuple(a.format(tmp=tmp_path) for a in argv)
    out_dir = tmp_path / "out"
    if argv[0] in ("julia", "brolin"):
        argv += ("--out", str(out_dir))
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("fekete-dyn") and needle in last
    assert not out_dir.exists()


def test_numeric_token_is_coefficients_beside_a_file_of_that_name(capsys, tmp_path,
                                                                    monkeypatch):
    # a file named 5 holding z^2 was read in place of the constant 5
    (tmp_path / "5").write_text("0 0 1")
    (tmp_path / "map.txt").write_text("-2 0 1")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["height", "weil", "--poly", "5"])
    assert exit_info.value.code == 2
    assert "needs degree >= 1, got '5'" in capsys.readouterr().err
    # a token that reads as no coefficients still names its file
    code, out, _ = run(capsys, "height", "canonical", "--poly", "-3 1", "--dyn", "map.txt")
    assert code == 0
    assert float(out) == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-6)


# ------------------------------------------------------------------- klimek

def test_klimek_two_sets(capsys, tmp_path):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(
        "left = { kind = disk, center = 0, radius = 1 }\n"
        "right = { kind = disk, center = 0, radius = 2 }\n")
    code, out, _ = run(capsys, "klimek", "--config", str(cfg))
    assert code == 0
    rec = json.loads(out)
    assert rec["gamma"] == pytest.approx(math.log(2.0), abs=1e-3)
    assert set(rec) >= {"gamma", "argmax_point", "side", "cap_gap"}


def test_klimek_poly_side(capsys, tmp_path):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(
        "left_poly = -2 0 1\n"
        "right = { kind = interval, a = -2, b = 2 }\n"
        "n_atoms = 512\n"
        "seed = 1\n")
    code, out, _ = run(capsys, "klimek", "--config", str(cfg))
    assert code == 0
    rec = json.loads(out)
    assert rec["gamma"] <= 1e-3
    assert rec["cap_gap"] <= 1e-9


def test_klimek_chebyshev_64_poly_side(capsys, tmp_path, cheb64):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(f"left_poly = {cheb64.read_text().strip()}\n"
                   "right = { kind = interval, a = -2, b = 2 }\n"
                   "n_atoms = 256\n")
    code, out, _ = run(capsys, "klimek", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["gamma"] <= 1e-3


@pytest.mark.parametrize("n_atoms", [0, 100])
def test_klimek_too_few_atoms_is_usage_error(capsys, tmp_path, n_atoms):
    # refused before sampling: the sup-norm formula needs 256 boundary samples
    cfg = tmp_path / "pair.cfg"
    cfg.write_text("left_poly = 0 0 1\n"
                   "right = { kind = disk, center = 0, radius = 1 }\n"
                   f"n_atoms = {n_atoms}\n")
    with pytest.raises(SystemExit) as exc:
        main(["klimek", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("fekete-dyn: error: ") and "n_atoms >= 256" in last


@pytest.mark.parametrize("text, needle", [
    # a misspelt key, which would otherwise run with the default 1,024 atoms
    ("left_poly = 0 0 1\nright = { kind = disk, center = 0, radius = 1 }\n"
     "n_atom = 256\n", "klimek config: unknown key 'n_atom'"),
    # a side given both ways, whose polynomial would otherwise be dropped
    ("left = { kind = disk, center = 0, radius = 1 }\nleft_poly = 0 0 1\n"
     "right = { kind = disk, center = 0, radius = 2 }\n",
     "give 'left = {...}' or 'left_poly = ...', not both"),
    # counts that int() would truncate: 300.9 atoms to 300, seed 2.5 to 2
    ("left_poly = 0 0 1\nright = { kind = disk, center = 0, radius = 1 }\n"
     "n_atoms = 300.9\n", "klimek config: n_atoms takes integers, not 300.9"),
    ("left_poly = 0 0 1\nright = { kind = disk, center = 0, radius = 1 }\n"
     "seed = 2.5\n", "klimek config: seed takes integers, not 2.5"),
], ids=["unknown-key", "side-both-ways", "n_atoms-float", "seed-float"])
def test_klimek_config_keys_are_checked(capsys, tmp_path, text, needle):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["klimek", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("fekete-dyn: error: ") and needle in last


def test_klimek_malformed_poly_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(
        "left = { kind = disk, center = 0, radius = 1 }\n"
        "right_poly = -2 zero 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["klimek", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid literal" in err and "Traceback" not in err


# ------------------------------------------------------------------- height

def test_height_weil_json(capsys):
    code, out, _ = run(capsys, "height", "weil", "--poly", "-1 -1 1",
                       "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "weil"
    # golden ratio: h = (1/2) log phi
    assert rec["total"] == pytest.approx(0.24060591252980173, abs=1e-12)
    assert rec["total"] == pytest.approx(
        rec["archimedean"] + rec["nonarchimedean"], abs=1e-12)


def test_height_rumely_collapse(capsys, tmp_path):
    cfg = tmp_path / "disk.cfg"
    cfg.write_text("kind = disk\ncenter = 0\nradius = 1\n")
    code, out, _ = run(capsys, "height", "rumely", "--poly", "-1 -1 1",
                       "--set", str(cfg), "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "rumely"
    assert rec["total"] == pytest.approx(0.24060591252980173, abs=1e-6)


def test_height_canonical(capsys, tmp_path):
    dyn = tmp_path / "map.txt"
    dyn.write_text("-2 0 1\n")
    code, out, _ = run(capsys, "height", "canonical", "--poly", "-3 1",
                       "--dyn", str(dyn), "--json")
    assert code == 0
    rec = json.loads(out)
    # hhat_{z^2-2}(3) = log((3+sqrt(5))/2)
    assert rec["total"] == pytest.approx(math.log((3 + math.sqrt(5)) / 2),
                                         abs=1e-6)


def test_height_plain_text(capsys):
    code, out, _ = run(capsys, "height", "weil", "--poly", "-1 -1 1")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.24060591252980173, abs=1e-12)


def test_height_canonical_needs_dyn(capsys):
    with pytest.raises(SystemExit):
        main(["height", "canonical", "--poly", "-3 1"])


def test_height_canonical_malformed_dyn_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["height", "canonical", "--poly", "-3 1", "--dyn", "-2 0 x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid literal" in err and "Traceback" not in err


# --------------------------------------------------------------- experiment

def test_experiment_runaway(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "name = drift\n"
        "family = runaway\n"
        "degree_range = [4, 6]\n"
        "outputs = [csv, json]\n")
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "experiment", "runaway",
                       "--config", str(cfg), "--out", str(out_dir))
    assert code == 0
    lines = out.strip().splitlines()
    assert str(out_dir / "drift.csv") in lines
    assert str(out_dir / "MANIFEST.json") in lines
    header = (out_dir / "drift.csv").read_text().splitlines()[0]
    assert header == "d,N_d,inside,max_modulus,h,target"


def test_experiment_name_with_hash(capsys, tmp_path):
    # a # inside quotes is no comment: name = "run#2" wrote "run.csv, with
    # the quote in its file name
    cfg = tmp_path / "run.cfg"
    cfg.write_text('name = "run#2"  # the second run\nfamily = runaway\ndegree_range = [4, 6]\n')
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "experiment", "runaway",
                       "--config", str(cfg), "--out", str(out_dir))
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["MANIFEST.json", "run#2.csv",
                                                         "run#2.json"]


def test_experiment_seed_override(capsys, tmp_path):
    cfg = tmp_path / "pow.cfg"
    cfg.write_text(
        "name = pow\n"
        "family = power_maps\n"
        "set = { kind = disk, center = 0, radius = 1 }\n"
        "degree_range = [2, 64]\n"
        "checkpoints = [4, 8]\n"
        "seed = 1\n"
        "n_atoms = 512\n")
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "experiment", "bilu_rumely",
                     "--config", str(cfg), "--out", str(out_dir),
                     "--seed", "5")
    assert code == 0
    man = json.loads((out_dir / "MANIFEST.json").read_text())
    assert man["seed"] == 5


def test_experiment_fs(capsys, tmp_path):
    cfg = tmp_path / "fs.cfg"
    cfg.write_text(
        "name = fs\n"
        "family = chebyshev\n"
        "set = { kind = interval, a = -2, b = 2 }\n"
        "degree_range = [2, 64]\n"
        "checkpoints = [4]\n"
        "epsilon = 0.1\n"
        "n_atoms = 512\n")
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "experiment", "dynamical_fs",
                       "--config", str(cfg), "--out", str(out_dir))
    assert code == 0
    payload = json.loads((out_dir / "fs.json").read_text())
    assert payload["columns"] == ["n", "gamma", "max_dist", "contained"]


def test_experiment_unknown_name(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("name = x\nfamily = runaway\n")
    with pytest.raises(SystemExit):
        main(["experiment", "nope", "--config", str(cfg), "--out",
              str(tmp_path / "o")])


def _usage_error(capsys, tmp_path, runner, config) -> str:
    """The one-line usage error an experiment with this config exits with
    (code 2), having written nothing."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["experiment", runner, "--config", str(cfg), "--out", str(out_dir)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("fekete-dyn: error: ")
    assert not out_dir.exists()
    return last


@pytest.mark.parametrize("runner, config, family", [
    # a family the named runner does not take
    ("runaway", "name = pow\nfamily = power_maps\n"
                "set = { kind = disk, center = 0, radius = 1 }\n", "power_maps"),
    # a spec that does not validate
    ("bilu_rumely", "name = x\nfamily = bogus\n", "bogus"),
])
def test_experiment_config_error_is_usage_error(capsys, tmp_path, runner, config,
                                                family):
    assert repr(family) in _usage_error(capsys, tmp_path, runner, config)


@pytest.mark.parametrize("runner, config, needle", [
    ("dynamical_fs", "name = x\nfamily = power_maps\nset = { kind = hexagon }\n",
     "unknown set kind 'hexagon'"),
    ("dynamical_fs", "name = x\nfamily = power_maps\nset = { kind = interval, a = -2 }\n",
     "set kind 'interval' needs key 'b'"),
    # a constructor that refuses its values
    ("dynamical_fs", "name = x\nfamily = power_maps\nset = { kind = interval, a = 1, b = 0 }\n",
     "need b > a"),
    # a bilu_rumely target must be conjugation-symmetric of capacity 1
    ("bilu_rumely", "name = x\nfamily = cyclotomic\n"
                    "set = { kind = disk, center = 0, radius = 2 }\n",
     "equidistribution target must have capacity 1, not 2"),
    ("bilu_rumely", "name = x\nfamily = cyclotomic\n"
                    "set = { kind = circle, center = [0, 1], radius = 1 }\n",
     "equidistribution target must be conjugation-symmetric"),
    ("dynamical_fs", "name = x\nfamily = power_maps\n"
                     "set = { kind = interval, a = -1, b = 1 }\n", "below 1"),
    ("runaway", "name = x\nfamily = runaway\ndegree_range = [2, 6]\n", "[4, 14]"),
    # a value of the wrong type
    ("runaway", "name = x\nfamily = runaway\ndegree_range = 6\n", "experiment config: "),
    ("dynamical_fs", "name = x\nfamily = power_maps\nset = hexagon\n",
     "set config must be a {...} block"),
    # a probe that names no number, refused before the runner writes anything
    ("bilu_rumely", "name = x\nfamily = chebyshev\n"
                    "set = { kind = interval, a = -2, b = 2 }\nprobes = [3, abc]\n",
     "Invalid literal for Fraction: 'abc'"),
    ("bilu_rumely", "name = x\nfamily = chebyshev\n"
                    "set = { kind = interval, a = -2, b = 2 }\nprobes = [1/0]\n",
     "zero denominator"),
    # a misspelt key, which would otherwise run with the default it meant to change
    ("runaway", "name = x\nfamily = runaway\nn_atom = 256\n", "unknown key 'n_atom'"),
    # a set key the kind does not read, which would otherwise be dropped
    ("dynamical_fs", "name = x\nfamily = power_maps\n"
                     "set = { kind = disk, centre = 5, radius = 1 }\n",
     "set kind 'disk': unknown key 'centre'"),
    ("bilu_rumely", "name = x\nfamily = chebyshev\n"
                    "set = { kind = interval, a = -2, b = 2, samples = 100 }\n",
     "set kind 'interval': unknown key 'samples'"),
    # a string where a list belongs, which would otherwise run checkpoints 4, 8
    ("bilu_rumely", 'name = x\nfamily = power_maps\n'
                    'set = { kind = disk, center = 0, radius = 1 }\ncheckpoints = "48"\n',
     "checkpoints must be a [...] list, not '48'"),
    # a non-integral count, which int() would truncate to 300 atoms
    ("dynamical_fs", "name = x\nfamily = power_maps\n"
                     "set = { kind = disk, center = 0, radius = 1 }\nn_atoms = 300.9\n",
     "experiment config: n_atoms takes integers, not 300.9"),
    # a wall-clock budget, which would make the rows depend on machine speed
    ("runaway", "name = x\nfamily = runaway\ndegree_range = [4, 6]\n"
                "budget_seconds = 5\n",
     "unknown key 'budget_seconds'"),
    # a name that is not one file name: ../escaped wrote beside --out, and
    # sub/fs ran the ladder before emit died on the missing directory
    ("dynamical_fs", "name = ../escaped\nfamily = power_maps\n"
                     "set = { kind = disk, center = 0, radius = 1 }\ncheckpoints = [4]\n",
     "name must be one plain file name, not '../escaped'"),
    ("dynamical_fs", "name = sub/fs\nfamily = power_maps\n"
                     "set = { kind = disk, center = 0, radius = 1 }\ncheckpoints = [4]\n",
     "name must be one plain file name, not 'sub/fs'"),
    # an infinite epsilon, which wrote "delta": Infinity
    ("dynamical_fs", "name = x\nfamily = power_maps\n"
                     "set = { kind = disk, center = 0, radius = 1 }\nepsilon = inf\n",
     "epsilon must be positive and finite, not inf"),
    # a ladder with no rung, which died in the runner with a traceback
    ("dynamical_fs", "name = x\nfamily = power_maps\n"
                     "set = { kind = disk, center = 0, radius = 1 }\ndegree_range = [5, 7]\n",
     "no default checkpoints inside degree_range"),
    # coefficients past the float range: user_polys wrote MANIFEST.json before
    # the OverflowError, and probes passed the spec to die in the runner
    ("dynamical_fs", "name = x\nfamily = user\nset = { kind = disk, center = 0, radius = 1 }\n"
                     f'user_polys = ["0 0 1 {HUGE}"]\n', "a float can hold"),
    ("bilu_rumely", "name = x\nfamily = chebyshev\n"
                    f'set = {{ kind = interval, a = -2, b = 2 }}\nprobes = ["1 0 {HUGE}"]\n',
     "a float can hold"),
    ("bilu_rumely", "name = x\nfamily = chebyshev\n"
                    f"set = {{ kind = interval, a = -2, b = 2 }}\nprobes = [1/{HUGE}]\n",
     "a float can hold"),
    # keys the named runner or family never reads, which were silently dropped
    ("runaway", "name = x\nfamily = runaway\nset = { kind = bogus }\nprobes = [3]\n"
                "epsilon = 5\nn_atoms = 300\n",
     "experiment runaway with family 'runaway': unknown key 'epsilon', 'n_atoms', "
     "'probes', 'set'"),
    ("dynamical_fs", "name = x\nfamily = power_maps\n"
                     "set = { kind = disk, center = 0, radius = 1 }\nprobes = [3, 5/2]\n",
     "unknown key 'probes'"),
    ("bilu_rumely", "name = x\nfamily = chebyshev\n"
                    "set = { kind = interval, a = -2, b = 2 }\nepsilon = 0.5\n",
     "unknown key 'epsilon'"),
    ("dynamical_fs", "name = x\nfamily = user\nset = { kind = disk, center = 0, radius = 1 }\n"
                     'user_polys = ["0 0 1"]\ncheckpoints = [4, 8]\n',
     "with family 'user': unknown key 'checkpoints'"),
    ("dynamical_fs", "name = x\nfamily = user\nset = { kind = disk, center = 0, radius = 1 }\n"
                     'user_polys = ["0 0 1"]\ndegree_range = [2, 8]\n',
     "with family 'user': unknown key 'degree_range'"),
    ("dynamical_fs", "name = x\nfamily = power_maps\n"
                     "set = { kind = disk, center = 0, radius = 1 }\n"
                     'checkpoints = [4]\nuser_polys = ["0 0 1"]\n',
     "with family 'power_maps': unknown key 'user_polys'"),
    ("bilu_rumely", "name = x\nfamily = chebyshev\n"
                    "set = { kind = interval, a = -2, b = 2 }\n"
                    'checkpoints = [4]\nuser_polys = ["0 0 1"]\n',
     "unknown key 'user_polys'"),
    # a ladder map past the float range, which wrote MANIFEST.json before
    # the OverflowError
    ("bilu_rumely", "name = x\nfamily = chebyshev\n"
                    "set = { kind = interval, a = -2, b = 2 }\n"
                    "degree_range = [4, 4096]\ncheckpoints = [2048]\n",
     "chebyshev checkpoint 2048 needs coefficients a float can hold"),
    # booleans are not numbers: epsilon = true ran with epsilon 1.0, and a
    # disk of center true and radius true was the disk D(1, 1)
    ("dynamical_fs", "name = x\nfamily = power_maps\n"
                     "set = { kind = disk, center = 0, radius = 1 }\n"
                     "checkpoints = [4]\nepsilon = true\n",
     "experiment config: epsilon takes numbers, not True"),
    ("dynamical_fs", "name = x\nfamily = power_maps\n"
                     "set = { kind = disk, center = 0, radius = true }\ncheckpoints = [4]\n",
     "set kind 'disk': radius takes numbers, not True"),
    ("dynamical_fs", "name = x\nfamily = power_maps\n"
                     "set = { kind = disk, center = true, radius = 1 }\ncheckpoints = [4]\n",
     "set kind 'disk': center takes numbers, not True"),
    ("dynamical_fs", "name = x\nfamily = power_maps\n"
                     "set = { kind = disk, center = 0, radius = 1 }\n"
                     f"checkpoints = [4]\nepsilon = {10 ** 400}\n",
     "experiment config: epsilon takes numbers a float can hold"),
    # a quote left open: name = "run was the name '"run'
    ("runaway", 'name = "run\nfamily = runaway\ndegree_range = [4, 6]\n',
     "unterminated \" in 'name = \"run'"),
], ids=["unknown-kind", "missing-key", "constructor", "bilu-target",
        "bilu-target-off-axis", "fs-capacity",
        "runaway-range", "degree-range-type", "set-not-block", "probe-literal",
        "probe-zero-denominator", "unknown-key", "set-unknown-key", "set-samples",
        "checkpoints-string", "n-atoms-float", "budget-seconds", "name-parent",
        "name-subdir", "epsilon-inf", "no-checkpoints", "user-polys-huge",
        "probe-huge", "probe-rational-huge", "runaway-set", "fs-probes",
        "bilu-epsilon", "user-checkpoints", "user-degree-range", "ladder-user-polys",
        "bilu-user-polys", "chebyshev-2048", "epsilon-bool", "radius-bool", "center-bool",
        "epsilon-huge", "unterminated-quote"])
def test_experiment_set_config_error_is_usage_error(capsys, tmp_path, runner, config,
                                                    needle):
    assert needle in _usage_error(capsys, tmp_path, runner, config)
    # nothing is written, inside --out or beside it
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


@pytest.mark.parametrize("config, key", [
    ("name = x\nfamily = power_maps\nset = { kind = disk, center = 0, radius = 1 }\n"
     "checkpoints = [4]\nn_atoms = 256\nseed = 1\nseed = 7\n", "seed"),
    ("name = x\nfamily = power_maps\ncheckpoints = [4]\nn_atoms = 256\n"
     "set = { kind = disk, center = 0, radius = 1, radius = 5 }\n", "radius"),
], ids=["top-level", "block"])
def test_experiment_repeated_key_is_usage_error(capsys, tmp_path, config, key):
    # the last value won, and the run went ahead with exit 0
    assert f"repeated key '{key}'" in _usage_error(capsys, tmp_path, "dynamical_fs", config)
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def _every_side(block: str) -> str:
    # one file for every command; each reads only its own keys, and
    # experiment and klimek, which refuse the rest, get only theirs
    return (f"name = x\nfamily = power_maps\n"
            f"set = {block}\nleft = {block}\nright = {block}\n")


@pytest.mark.parametrize("text, needle", [
    (_every_side("{ kind = interval, a = -2 }"), "set kind 'interval' needs key 'b'"),
    (_every_side("{ kind = hexagon }"), "unknown set kind 'hexagon'"),
    ("garbage\n", "expected 'key = value', got 'garbage'"),
    ('{ "set":', "Expecting value"),
    (_every_side("{ kind = union_of_intervals, intervals = 3 }"),
     "set kind 'union_of_intervals': "),
    (_every_side("{ kind = union_of_intervals, intervals = [-2, -1, 1, 2], samples = 1 }"),
     "unknown key 'samples'"),
    # klimek and experiment read n_atoms; the others fail on the radius
    ("name = x\nfamily = power_maps\nset = { kind = disk, center = 0, radius = abc }\n"
     "left_poly = 0 0 1\nright_poly = 0 0 1\nn_atoms = abc\n", "'abc'"),
    # capacity printed nan for a NaN radius, with exit 0
    (_every_side("{ kind = disk, center = 0, radius = nan }"),
     "set kind 'disk': center and radius must be finite"),
    (_every_side("{ kind = interval, a = -2, b = inf }"),
     "set kind 'interval': interval ends must be finite"),
    # booleans and strings are not numbers: capacity printed 0.25 for
    # a = false, b = true, the interval [0, 1]
    (_every_side("{ kind = interval, a = false, b = true }"),
     "set kind 'interval': a takes numbers, not False"),
    (_every_side("{ kind = disk, center = [0, true], radius = 1 }"),
     "set kind 'disk': center takes numbers, not True"),
    (_every_side('{ kind = circle, center = 0, radius = "1" }'),
     "set kind 'circle': radius takes numbers, not '1'"),
    (_every_side("{ kind = union_of_intervals, intervals = [-2, -1, 1, true] }"),
     "set kind 'union_of_intervals': intervals takes numbers, not True"),
    # an integer past the float range ended in an OverflowError traceback
    (_every_side(f"{{ kind = disk, center = 0, radius = {10 ** 400} }}"),
     "set kind 'disk': radius takes numbers a float can hold"),
], ids=["missing-key", "unknown-kind", "not-key-value", "malformed-json",
        "intervals-type", "samples-key", "value-type", "radius-nan", "end-inf",
        "ends-bool", "center-part-bool", "radius-string", "intervals-bool", "radius-huge"])
@pytest.mark.parametrize("argv", [
    ("capacity", "--config", "{cfg}"),
    ("green", "--config", "{cfg}", "--at", "3,0"),
    ("height", "rumely", "--poly", "-3 1", "--set", "{cfg}"),
    ("klimek", "--config", "{cfg}"),
    ("experiment", "dynamical_fs", "--config", "{cfg}", "--out", "{out}"),
], ids=["capacity", "green", "height-rumely", "klimek", "experiment"])
def test_set_config_error_is_usage_error(capsys, tmp_path, argv, text, needle):
    # experiment and klimek refuse the keys they do not read: drop the
    # other one's lines
    if argv[0] == "experiment":
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith(("left", "right")))
    if argv[0] == "klimek":
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith(("name", "family", "set")))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([a.format(cfg=cfg, out=out_dir) for a in argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("fekete-dyn: error: ") and needle in last
    assert not out_dir.exists()


@pytest.mark.parametrize("text, needle", [
    # a bare disk beside a set block: the disk was dropped and capacity
    # printed 1, the interval's
    ("kind = disk\nradius = 3\nset = { kind = interval, a = -2, b = 2 }\n",
     "experiment config: unknown key 'kind', 'radius'"),
    # an experiment config with a misspelt key, which was read for its set
    ("name = x\nfamly = chebyshev\nset = { kind = interval, a = -2, b = 2 }\n",
     "experiment config: unknown key 'famly'"),
], ids=["mixed-set-file", "misspelt-experiment-key"])
@pytest.mark.parametrize("argv", [
    ("capacity", "--config", "{cfg}"),
    ("green", "--config", "{cfg}", "--at", "3,0"),
    ("height", "rumely", "--poly", "-3 1", "--set", "{cfg}"),
], ids=["capacity", "green", "height-rumely"])
def test_set_file_with_a_set_block_takes_experiment_keys_only(capsys, tmp_path,
                                                              argv, text, needle):
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exit_info:
        main([a.format(cfg=cfg) for a in argv])
    assert exit_info.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("fekete-dyn: error: ") and needle in last


def test_no_subcommand_errors(capsys):
    with pytest.raises(SystemExit):
        main([])
