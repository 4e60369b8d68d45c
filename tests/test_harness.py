"""Experiment runners, configuration, and report emission.

Frozen oracle values:
  * the degree-n root cloud of the n-th cyclotomic polynomial (n prime) has
    transfinite diameter exactly n^(1/(n-1)): the pairwise-distance product
    is the square root of the discriminant n^(n-2);
  * the drift family at d=6 is x^6 - 11 x^5 + 1 (11 = floor(e^sqrt(6)));
    five roots sit strictly inside the unit circle, the sixth is within
    1e-4 of 11, and the height is log(11)/6 = 0.399649... up to ~1e-7;
  * an epsilon=0.2 ring around the unit disk has Green minimum log(1.2);
    an epsilon=0.1 ring around [-2, 2] has Green minimum ~0.05 (attained
    above the segment midpoint, where g ~ imag/2).
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from feketedyn.harness import (
    BILU_COLUMNS,
    DEFAULT_LADDER,
    ConfigError,
    ExperimentSpec,
    Report,
    build_set,
    emit,
    parse_config,
    run_bilu_rumely,
    run_dynamical_fs,
    run_runaway,
    spec_from_config,
)
from feketedyn.polyarith import IntPolynomial

UNIT_DISK = {"kind": "disk", "center": 0, "radius": 1}
UNIT_CIRCLE = {"kind": "circle", "center": 0, "radius": 1}
SEGMENT = {"kind": "interval", "a": -2, "b": 2}
# Q^-1([-2, 2]) for Q = z^2 - 3, a capacity-1 target in closed form
MIRROR_PAIR = {"kind": "union_of_intervals",
               "intervals": [[-math.sqrt(5), -1], [1, math.sqrt(5)]]}


def _spec(**kw):
    base = dict(name="t", family="power_maps", set_config=UNIT_DISK,
                degree_range=(2, 64), checkpoints=(4, 8), seed=7,
                n_atoms=512)
    base.update(kw)
    return ExperimentSpec(**base)


def _col(report, name):
    k = report.columns.index(name)
    return [row[k] for row in report.rows]


# --------------------------------------------------------------------------- #
# spec validation and checkpoints
# --------------------------------------------------------------------------- #


def test_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        _spec(family="parabolic")


def test_spec_rejects_empty_degree_range():
    with pytest.raises(ValueError):
        _spec(degree_range=(8, 4), checkpoints=None)


def test_spec_rejects_bad_knobs():
    with pytest.raises(ValueError):
        _spec(epsilon=0.0)
    with pytest.raises(ValueError):
        _spec(n_atoms=100)
    with pytest.raises(ValueError):
        _spec(outputs=("csv", "svg"))
    with pytest.raises(ValueError):
        _spec(family="user")  # user family without polynomials


def test_default_checkpoint_ladder():
    assert DEFAULT_LADDER == (4, 8, 16, 32, 64, 128)
    s = _spec(checkpoints=None, degree_range=(2, 64))
    assert s.effective_checkpoints() == (4, 8, 16, 32, 64)
    # a ladder with no rung is refused when the spec is made, before any run
    with pytest.raises(ConfigError, match="no default checkpoints"):
        _spec(checkpoints=None, degree_range=(5, 6))


def test_explicit_checkpoints_win():
    s = _spec(checkpoints=(5, 17), degree_range=(2, 128))
    assert s.effective_checkpoints() == (5, 17)
    with pytest.raises(ValueError):
        _spec(checkpoints=(4, 200), degree_range=(2, 128))


# --------------------------------------------------------------------------- #
# set builder and config parsing
# --------------------------------------------------------------------------- #


def test_build_set_catalog():
    e = build_set(SEGMENT)
    assert e.kind == "interval"
    assert math.exp(e.log_capacity) == pytest.approx(1.0, abs=1e-12)
    d = build_set({"kind": "disk", "center": [0, 1], "radius": 2})
    assert d.params["center"] == 1j
    assert math.exp(d.log_capacity) == pytest.approx(2.0, abs=1e-12)
    c = build_set({"kind": "circle", "center": "1+1j", "radius": 1})
    assert c.params["center"] == 1 + 1j
    u = build_set({"kind": "union_of_intervals",
                   "intervals": [-2, -1, 1, 2]})
    # cap of [-b,-a] u [a,b] is sqrt(b*b - a*a)/2
    assert math.exp(u.log_capacity) == pytest.approx(math.sqrt(3) / 2,
                                                     abs=5e-3)
    nested = build_set({"kind": "union_of_intervals",
                        "intervals": [[-2, -1], [1, 2]]})
    assert nested.params["intervals"] == [(-2.0, -1.0), (1.0, 2.0)]
    with pytest.raises(ValueError):
        build_set({"kind": "annulus", "radius": 1})
    # a key of another kind is refused, not dropped without a word
    with pytest.raises(ConfigError, match="unknown key 'radius'"):
        build_set({"kind": "interval", "a": -2, "b": 2, "radius": 1})


def test_parse_config_grammar(tmp_path):
    text = """
# sample experiment configuration
name = cheb_demo
family = chebyshev
seed = 11
degree_range = [2, 64]
checkpoints = [4, 8]
probes = [3, 5/2]
outputs = [csv, json]
n_atoms = 512
set = { kind = interval, a = -2, b = 2 }
"""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    cfg = parse_config(path)
    assert cfg["name"] == "cheb_demo"
    assert cfg["seed"] == 11
    assert cfg["degree_range"] == [2, 64]
    assert cfg["probes"] == [3, "5/2"]
    assert cfg["set"] == {"kind": "interval", "a": -2, "b": 2}


def test_parse_config_json_autodetect(tmp_path):
    cfg = {"name": "j", "family": "power_maps", "seed": 3,
           "set": {"kind": "disk", "center": 0, "radius": 1},
           "checkpoints": [4, 8], "outputs": ["csv"]}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert parse_config(path) == cfg


@pytest.mark.parametrize("name, text, key", [
    ("top.cfg", "name = x\nseed = 1\nseed = 7\n", "seed"),
    ("block.cfg", "set = { kind = disk, radius = 1, radius = 5 }\n", "radius"),
    ("top.json", '{"seed": 1, "seed": 7}', "seed"),
    ("block.json", '{"set": {"kind": "disk", "radius": 1, "radius": 5}}', "radius"),
], ids=["text-top", "text-block", "json-top", "json-block"])
def test_parse_config_refuses_repeated_key(tmp_path, name, text, key):
    # the last value silently won: seed 7, or a disk of radius 5
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"repeated key '{key}'"):
        parse_config(path)


def test_parse_config_hash_in_quotes_is_no_comment(tmp_path):
    # name = "run#2" was cut to the name '"run'
    path = tmp_path / "run.cfg"
    path.write_text('name = "run#2"  # a comment\nprobes = [\'a # b\', 3] # more\n')
    assert parse_config(path) == {"name": "run#2", "probes": ["a # b", 3]}


@pytest.mark.parametrize("text, key, value", [
    # split at the quoted comma into ['0 0 1', '"0', '1"']
    ('user_polys = ["0 0 1", "0, 1"]\n', "user_polys", ["0 0 1", "0, 1"]),
    # split into the part '1j"', which has no '='
    ('set = { kind = circle, center = "1, 1j", radius = 1 }\n', "set",
     {"kind": "circle", "center": "1, 1j", "radius": 1}),
    # brackets inside quotes opened or closed a level
    ("""probes = ['[3', "{5,", '}]', 7]\n""", "probes", ["[3", "{5,", "}]", 7]),
], ids=["list", "block", "brackets"])
def test_parse_config_quoted_commas_do_not_split(tmp_path, text, key, value):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert parse_config(path) == {key: value}


@pytest.mark.parametrize("text, read, needle", [
    ('name = q\nfamily = user\nset = { kind = disk, center = 0, radius = 1 }\n'
     'user_polys = ["0 0 1", "-1, 0 1"]\n', spec_from_config, "got '-1, 0 1'"),
    ('set = { kind = circle, center = "1, 1j", radius = 1 }\n',
     lambda cfg: build_set(cfg["set"]), "center '1, 1j'"),
], ids=["user-polys", "center"])
def test_config_error_names_whole_quoted_value(tmp_path, text, read, needle):
    # the errors named the fragments '"-1' and '1j"'
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(needle)):
        read(parse_config(path))


@pytest.mark.parametrize("text", ['name = "run\n', "name = 'run#2\n",
                                  "set = { kind = 'disk }\n"])
def test_parse_config_refuses_unterminated_quote(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match="unterminated"):
        parse_config(path)


def test_parse_config_block_part_needs_key_value(tmp_path):
    # a block part with no '=' is refused as a top-level line is
    path = tmp_path / "run.cfg"
    path.write_text("set = { kind = disk, radius }\n")
    with pytest.raises(ConfigError, match="expected 'key = value', got 'radius'"):
        parse_config(path)


def test_spec_from_config_types(tmp_path):
    cfg = {"name": "u", "family": "user", "seed": 5,
           "set": {"kind": "disk", "center": 0, "radius": 1},
           "checkpoints": [4], "probes": [3, "5/2"], "epsilon": 0.25,
           "user_polys": ["0 1 0 0 1"]}
    s = spec_from_config(cfg)
    assert s.degree_range == (4, 128)
    assert s.checkpoints == (4,)
    assert s.probes == ("3", "5/2")
    assert s.epsilon == 0.25
    assert s.user_polys == (IntPolynomial((0, 1, 0, 0, 1)),)
    assert spec_from_config(cfg, seed_override=99).seed == 99


def test_spec_from_config_refuses_unknown_keys():
    # a misspelt key would otherwise leave its default in force: n_atom = 256
    # ran with 1,024 atoms
    cfg = {"name": "x", "family": "runaway", "n_atom": 256, "sed": 3}
    with pytest.raises(ConfigError, match="unknown key 'n_atom', 'sed'"):
        spec_from_config(cfg)


def _via_spec(cfg):
    kw = dict(cfg)
    if "set" in kw:
        kw["set_config"] = kw.pop("set")
    return ExperimentSpec(**kw)


def _both_entry_points(cases, ids):
    """Each case through spec_from_config under its own id, and through
    ExperimentSpec(**kw) under spec-<id>: the two share one check."""
    return [pytest.param(make, *case, id=prefix + i)
            for prefix, make in (("", spec_from_config), ("spec-", _via_spec))
            for case, i in zip(cases, ids)]


@pytest.mark.parametrize("make, key, value, needle", _both_entry_points([
    ("degree_range", "48", "degree_range must be a [...] list of 2 items"),
    ("degree_range", [4, 16, 128], "degree_range must be a [...] list of 2 items"),
    ("checkpoints", "48", "checkpoints must be a [...] list"),
    ("probes", "35", "probes must be a [...] list"),
    ("outputs", "csv", "outputs must be a [...] list"),
    ("user_polys", "0 1 0 1", "user_polys must be a [...] list"),
], ["degree_range-string", "degree_range-three", "checkpoints", "probes",
    "outputs", "user_polys"]))
def test_spec_from_config_list_keys_must_be_lists(make, key, value, needle):
    # a string was iterated as its characters: probes = "35" ran probes 3
    # and 5, checkpoints = "48" ran (4, 8); a third degree was dropped
    cfg = {"name": "x", "family": "user", "degree_range": [4, 64],
           "user_polys": ["0 1 0 1"], key: value}
    with pytest.raises(ConfigError, match=re.escape(needle)):
        make(cfg)


@pytest.mark.parametrize("make, key, value, bad", _both_entry_points([
    ("degree_range", [4, 8.9], 8.9),
    ("checkpoints", [4.7, 8], 4.7),
    ("seed", 2.5, 2.5),
    ("seed", True, True),
    ("n_atoms", 300.9, 300.9),
    ("n_atoms", "300", "300"),
], ["degree_range", "checkpoints", "seed", "seed-bool", "n_atoms",
    "n_atoms-string"]))
def test_spec_from_config_integer_keys_refuse_non_integers(make, key, value, bad):
    # int() truncated: degree_range [4, 8.9] ran (4, 8), checkpoints
    # [4.7, 8] ran (4, 8), n_atoms = 300.9 ran 300 atoms, seed = 2.5 ran
    # seed 2 and seed = true ran seed 1, all with exit 0; the Python API
    # took them as given and failed later, in brolin_sample
    cfg = {"name": "x", "family": "power_maps", "degree_range": [4, 16],
           "checkpoints": [4, 8], key: value}
    with pytest.raises(ConfigError, match=re.escape(
            f"experiment config: {key} takes integers, not {bad!r}")):
        make(cfg)


@pytest.mark.parametrize("make, key, value, needle", _both_entry_points([
    # a name is the stem of the report's files, which must stay in out_dir
    ("name", "../escaped", "name must be one plain file name, not '../escaped'"),
    ("name", "sub/fs", "name must be one plain file name, not 'sub/fs'"),
    ("name", "..", "name must be one plain file name"),
    ("name", "", "name must be one plain file name"),
    # epsilon = inf wrote "delta": Infinity, which is not JSON
    ("epsilon", math.inf, "epsilon must be positive and finite, not inf"),
    ("epsilon", math.nan, "epsilon must be positive and finite, not nan"),
    # no rung of the default ladder lies in [5, 7]: the runner died at run time
    ("degree_range", [5, 7], "no default checkpoints inside degree_range"),
], ["name-parent", "name-subdir", "name-dots", "name-empty", "epsilon-inf",
    "epsilon-nan", "no-checkpoints"]))
def test_spec_refuses_before_any_work(make, key, value, needle):
    cfg = {"name": "x", "family": "power_maps", "set": UNIT_DISK, key: value}
    with pytest.raises(ConfigError, match=re.escape(
            f"experiment config: {needle}")):
        make(cfg)


def test_ladder_without_rungs_is_refused():
    for family in ("cyclotomic", "chebyshev", "power_maps"):
        with pytest.raises(ConfigError, match="no default checkpoints"):
            _spec(family=family, checkpoints=None, degree_range=(5, 7))
    # runaway and user do not read the ladder
    _spec(family="runaway", checkpoints=None, degree_range=(5, 7))
    _spec(family="user", user_polys=("0 1 0 1",), checkpoints=None,
          degree_range=(5, 7))


def test_spec_normalises_python_values():
    # the Python API gets the fields a config would give, so the runners
    # and the JSON echo see one type per field
    s = ExperimentSpec(name="x", family="user", degree_range=[4.0, 16],
                       checkpoints=(4.0, 8), probes=[3, Fraction(5, 2)],
                       outputs=["csv"], seed=3.0, epsilon=1, n_atoms=1024.0,
                       user_polys=["0 1 0 1", IntPolynomial((0, 1, 0, 0, 1))])
    assert (s.degree_range, s.checkpoints, s.probes, s.outputs) == \
        ((4, 16), (4, 8), ("3", "5/2"), ("csv",))
    assert all(type(v) is int for v in (*s.degree_range, *s.checkpoints,
                                        s.seed, s.n_atoms))
    assert type(s.epsilon) is float and s.epsilon == 1.0
    assert s.user_polys == (IntPolynomial((0, 1, 0, 1)),
                            IntPolynomial((0, 1, 0, 0, 1)))
    cfg = {"name": "x", "family": "user", "degree_range": [4, 16],
           "checkpoints": [4, 8], "probes": [3, "5/2"], "outputs": ["csv"],
           "seed": 3, "epsilon": 1.0,
           "user_polys": ["0 1 0 1", "0 1 0 0 1"]}
    assert s.config_dict() == spec_from_config(cfg).config_dict()


def test_spec_from_config_takes_integral_floats():
    # JSON writers may emit 1024.0 for an integer
    cfg = {"name": "x", "family": "power_maps", "degree_range": [4.0, 16],
           "checkpoints": [4, 8.0], "seed": 3.0, "n_atoms": 1024.0}
    s = spec_from_config(cfg)
    assert (s.degree_range, s.checkpoints, s.seed, s.n_atoms) == \
        ((4, 16), (4, 8), 3, 1024)
    assert all(type(v) is int for v in (*s.degree_range, *s.checkpoints,
                                        s.seed, s.n_atoms))


# --------------------------------------------------------------------------- #
# equidistribution runner
# --------------------------------------------------------------------------- #


def test_bilu_rejects_family_and_set():
    with pytest.raises(ValueError):
        run_bilu_rumely(_spec(family="runaway", degree_range=(4, 8),
                              checkpoints=None))
    with pytest.raises(ValueError):
        run_bilu_rumely(_spec(set_config={"kind": "disk", "center": 0,
                                          "radius": 2}))


def test_bilu_power_maps_rows():
    rep = run_bilu_rumely(_spec(checkpoints=(4, 8, 16), n_atoms=1024))
    assert rep.columns == BILU_COLUMNS == ("n", "d_n", "h_E", "dist",
                                           "gamma", "discrepancy")
    assert _col(rep, "n") == [4, 8, 16]
    # the power map's root cloud is n copies of the origin
    assert all(v == 0.0 for v in _col(rep, "d_n"))
    assert all(v == 0.0 for v in _col(rep, "h_E"))
    assert all(v <= 1e-12 for v in _col(rep, "dist"))
    assert all(v <= 1e-6 for v in _col(rep, "gamma"))
    assert all(v <= 0.1 for v in _col(rep, "discrepancy"))


def test_bilu_cyclotomic_rows():
    rep = run_bilu_rumely(_spec(family="cyclotomic", set_config=UNIT_CIRCLE,
                                checkpoints=(5, 17), degree_range=(3, 128),
                                n_atoms=1024, seed=2))
    d_n = _col(rep, "d_n")
    assert d_n[0] == pytest.approx(5 ** 0.25, abs=1e-9)
    assert d_n[1] == pytest.approx(17 ** (1 / 16), abs=1e-9)
    assert all(v == 0.0 for v in _col(rep, "h_E"))
    assert all(v <= 1e-12 for v in _col(rep, "dist"))
    g5, g17 = _col(rep, "gamma")
    # the sup-difference peaks near z=1 where it is ~ log(n)/(n-1)
    assert 0.30 < g5 < 0.55
    assert 0.12 < g17 < 0.24
    assert g17 < g5
    disc = _col(rep, "discrepancy")
    assert disc[1] < disc[0]
    assert rep.violations == []


def test_bilu_chebyshev_rows():
    rep = run_bilu_rumely(_spec(family="chebyshev", set_config=SEGMENT,
                                checkpoints=(4, 8, 16), seed=1))
    assert all(v <= 1e-3 for v in _col(rep, "gamma"))
    assert all(v == 0.0 for v in _col(rep, "h_E"))
    assert all(v <= 1e-15 for v in _col(rep, "dist"))
    # few-point diameter estimates start high (~1.9 at four points) and
    # sink toward the capacity 1 as the cloud grows
    d_n = _col(rep, "d_n")
    assert all(1.0 < v < 2.1 for v in d_n)
    assert d_n[2] < d_n[0]


def test_bilu_chebyshev_gamma_zero_on_every_rung():
    # K_P = [-2, 2] for P = 2 T_n(z/2), so gamma is 0 on the float rungs
    # (n <= 43) as on the exact ones, and no gamma trend violation is left
    rep = run_bilu_rumely(_spec(family="chebyshev", set_config=SEGMENT,
                                checkpoints=(4, 8, 16, 32, 64), n_atoms=256,
                                seed=0))
    assert _col(rep, "gamma") == [0.0] * 5
    assert [v for v in rep.violations if v["column"] == "gamma"] == []


@pytest.mark.parametrize("family, target, n", [
    ("chebyshev", SEGMENT, 16), ("cyclotomic", UNIT_CIRCLE, 17),
    ("power_maps", UNIT_DISK, 16), ("chebyshev", MIRROR_PAIR, 4),
])
def test_bilu_target_measure_in_closed_form(monkeypatch, family, target, n):
    # the targets' equilibrium measures need no Fekete search
    def refuse(*args, **kwargs):
        raise AssertionError("fekete_points called")
    monkeypatch.setattr("feketedyn.potential.fekete_points", refuse)
    rep = run_bilu_rumely(_spec(family=family, set_config=target,
                                checkpoints=(n,), n_atoms=256))
    assert len(rep.rows) == 1


@pytest.mark.parametrize("target", [
    {"kind": "interval", "a": 0, "b": 4},
    {"kind": "circle", "center": 3, "radius": 1},
    {"kind": "disk", "center": -1.5, "radius": 1},
    MIRROR_PAIR,
], ids=["interval-0-4", "circle-at-3", "disk-at-minus-1.5", "mirror-pair"])
def test_bilu_takes_every_symmetric_target_of_capacity_one(target):
    rep = run_bilu_rumely(_spec(family="chebyshev", set_config=target,
                                checkpoints=(4,), n_atoms=256))
    assert len(rep.rows) == 1
    assert rep.notes["capacity"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("runner", [run_bilu_rumely, run_dynamical_fs],
                         ids=["bilu_rumely", "dynamical_fs"])
def test_runners_take_the_interval_written_as_a_union(runner):
    # it took the Fekete path, read capacity 0.988929 and was refused
    kw = dict(family="chebyshev", checkpoints=(4, 8), n_atoms=256, seed=1)
    want = runner(_spec(set_config=SEGMENT, **kw))
    rep = runner(_spec(set_config={"kind": "union_of_intervals", "intervals": [-2, 2]}, **kw))
    assert rep.rows == want.rows
    assert rep.notes == want.notes


@pytest.mark.parametrize("target, needle", [
    ({"kind": "disk", "center": 0, "radius": 2}, "must have capacity 1, not 2"),
    ({"kind": "circle", "center": [0, 1], "radius": 1}, "must be conjugation-symmetric"),
], ids=["disk-radius-2", "circle-at-i"])
def test_bilu_refuses_targets_outside_the_theorem(target, needle):
    with pytest.raises(ConfigError, match=needle):
        run_bilu_rumely(_spec(set_config=target))


def test_bilu_chebyshev_ladder_without_violations():
    # the benchmark's ladder: rungs 16, 32 and 64 are whole fibers, so their
    # discrepancy is rounding, and the column falls on every rung
    rep = run_bilu_rumely(_spec(family="chebyshev", set_config=SEGMENT,
                                checkpoints=(4, 8, 16, 32, 64), n_atoms=256,
                                probes=("3", "5/2"), seed=1))
    assert rep.violations == []
    disc = _col(rep, "discrepancy")
    assert all(v <= 1e-12 for v in disc[2:])
    assert disc[0] > disc[1] > max(disc[2:])


def test_bilu_probe_notes():
    rep = run_bilu_rumely(_spec(family="chebyshev", set_config=SEGMENT,
                                checkpoints=(4, 8), probes=("3", "5/2"),
                                seed=1))
    rows = rep.notes["height_gap"]
    assert len(rows) == 4
    for row in rows:
        # the filled set IS the target segment, so the gap is numerical dust
        assert row["gap"] <= 1e-6
        assert row["ok"]
    assert {r["probe"] for r in rows} == {"3", "5/2"}


def test_bilu_trend_failures_are_data(monkeypatch):
    fake = iter([0.1, 0.2])
    monkeypatch.setattr("feketedyn.harness.measure_discrepancy",
                        lambda *a, **k: next(fake))
    rep = run_bilu_rumely(_spec(checkpoints=(4, 8)))
    kinds = [(v["kind"], v["column"]) for v in rep.violations]
    assert ("trend", "discrepancy") in kinds


# each runner with a three-item ladder, the harness global its worker calls
# once per row, and its CSV header
LADDERS = {
    "bilu_rumely": (run_bilu_rumely, {"checkpoints": (4, 8, 16)},
                    "klimek_distance", "n,d_n,h_E,dist,gamma,discrepancy"),
    "dynamical_fs": (run_dynamical_fs, {"checkpoints": (4, 8, 16)},
                     "klimek_distance", "n,gamma,max_dist,contained"),
    "runaway": (run_runaway, {"family": "runaway", "degree_range": (4, 6),
                              "checkpoints": None},
                "weil_height", "d,N_d,inside,max_modulus,h,target"),
}


@pytest.mark.parametrize("runner", sorted(LADDERS))
def test_runner_partial_flush(runner, tmp_path, monkeypatch):
    import feketedyn.harness as hmod
    run, kw, name, header = LADDERS[runner]
    real = getattr(hmod, name)
    calls = {"n": 0}

    def flaky(*args):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise RuntimeError("probe failure")
        return real(*args)

    monkeypatch.setattr(hmod, name, flaky)
    with pytest.raises(RuntimeError):
        run(_spec(name="part", **kw), out_dir=tmp_path)
    lines = (tmp_path / "part.csv").read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 2  # header plus the one completed row


# --------------------------------------------------------------------------- #
# containment runner
# --------------------------------------------------------------------------- #


def test_fs_refuses_small_capacity():
    with pytest.raises(ValueError, match="capacity"):
        run_dynamical_fs(_spec(set_config={"kind": "disk", "center": 0,
                                           "radius": 0.5}))


def test_fs_rejects_runaway_family():
    with pytest.raises(ValueError):
        run_dynamical_fs(_spec(family="runaway", degree_range=(4, 8),
                               checkpoints=None))


def test_fs_chebyshev_contained():
    rep = run_dynamical_fs(_spec(family="chebyshev", set_config=SEGMENT,
                                 checkpoints=(4, 8), epsilon=0.1, seed=1))
    assert rep.columns == ("n", "gamma", "max_dist", "contained")
    assert all(bool(v) for v in _col(rep, "contained"))
    assert all(v <= 1e-6 for v in _col(rep, "max_dist"))
    assert 0.045 < rep.notes["delta"] < 0.055
    assert rep.notes["threshold_degree"] == 4
    check = rep.notes["capacity_check"]
    assert check["capacity"] == pytest.approx(1.0, abs=1e-12)
    assert check["refused"] is False
    assert rep.violations == []


def test_fs_squaring_map_is_the_unit_circle():
    # J(z^2) is the unit circle: gamma is rounding and every atom is in the disk
    rep = run_dynamical_fs(ExperimentSpec(name="sq", family="user", set_config=UNIT_DISK,
                                          user_polys=["0 0 1"]))
    assert _col(rep, "gamma")[0] <= 1e-15
    assert _col(rep, "max_dist") == [0.0]


def test_fs_user_family_ring_and_threshold():
    polys = tuple(IntPolynomial((0, 1) + (0,) * (n - 2) + (1,))
                  for n in (4, 8, 16))
    rep = run_dynamical_fs(_spec(family="user", user_polys=polys,
                                 set_config=UNIT_DISK, epsilon=0.2,
                                 checkpoints=None, seed=3))
    assert _col(rep, "n") == [4, 8, 16]
    assert rep.notes["delta"] == pytest.approx(math.log(1.2), abs=1e-9)
    gam = _col(rep, "gamma")
    assert gam[2] < gam[0]
    # the criterion must be self-consistent: past the reported threshold
    # every member is contained
    thr = rep.notes["threshold_degree"]
    if thr is not None:
        for n, cont in zip(_col(rep, "n"), _col(rep, "contained")):
            if n >= thr:
                assert bool(cont)
    assert bool(_col(rep, "contained")[2])
    assert rep.violations == []


# --------------------------------------------------------------------------- #
# drift family runner
# --------------------------------------------------------------------------- #


def test_runaway_rejects_range():
    with pytest.raises(ValueError):
        run_runaway(_spec(family="runaway", degree_range=(2, 6),
                          checkpoints=None))
    with pytest.raises(ValueError):
        run_runaway(_spec(family="runaway", degree_range=(10, 15),
                          checkpoints=None))
    with pytest.raises(ValueError):
        run_runaway(_spec(family="chebyshev", degree_range=(4, 8),
                          checkpoints=None))


def test_runaway_d6_oracle():
    rep = run_runaway(_spec(family="runaway", degree_range=(4, 8),
                            checkpoints=None))
    assert rep.columns == ("d", "N_d", "inside", "max_modulus", "h",
                           "target")
    assert _col(rep, "d") == [4, 5, 6, 7, 8]
    i = _col(rep, "d").index(6)
    row = dict(zip(rep.columns, rep.rows[i]))
    assert row["N_d"] == 11
    assert row["inside"] == 5
    assert 10.9 < row["max_modulus"] < 11.0
    assert row["target"] == pytest.approx(math.log(11) / 6, abs=1e-12)
    assert row["h"] == pytest.approx(math.log(11) / 6, abs=1e-5)
    first = dict(zip(rep.columns, rep.rows[0]))
    assert first["N_d"] == 7 and first["inside"] == 3


def test_runaway_trends():
    rep = run_runaway(_spec(family="runaway", degree_range=(4, 12),
                            checkpoints=None))
    h = _col(rep, "h")
    mods = _col(rep, "max_modulus")
    assert all(b < a for a, b in zip(h, h[1:]))
    assert all(b > a for a, b in zip(mods, mods[1:]))
    for row in rep.rows:
        d = dict(zip(rep.columns, row))
        assert abs(d["h"] - d["target"]) <= 0.1 * d["target"]
    assert rep.violations == []


# --------------------------------------------------------------------------- #
# emission
# --------------------------------------------------------------------------- #


def test_emit_csv_json_manifest(tmp_path):
    rep = run_bilu_rumely(_spec(name="pow", checkpoints=(4, 8)))
    files = emit(rep, ("csv", "json"), tmp_path)
    names = {p.rsplit("/", 1)[-1] for p in files}
    assert names == {"pow.csv", "pow.json", "MANIFEST.json"}
    lines = (tmp_path / "pow.csv").read_text().splitlines()
    assert lines[0] == "n,d_n,h_E,dist,gamma,discrepancy"
    assert len(lines) == 3
    # 12-significant-digit float cells must parse back to the row values
    got = [float(x) for x in lines[1].split(",")]
    for a, b in zip(got, rep.rows[0]):
        assert a == pytest.approx(float(b), rel=1e-10, abs=1e-15)
    payload = json.loads((tmp_path / "pow.json").read_text())
    assert payload["columns"] == list(BILU_COLUMNS)
    assert payload["seed"] == 7
    man = json.loads((tmp_path / "MANIFEST.json").read_text())
    assert man["seed"] == 7
    assert len(man["config_hash"]) == 64
    assert man["files"] == ["pow.csv", "pow.json"]
    import feketedyn
    assert man["version"] == feketedyn.__version__


def test_emit_rerun_byte_identical(tmp_path):
    spec = _spec(name="det", checkpoints=(4, 8))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit(run_bilu_rumely(spec), ("csv", "json"), d1)
    emit(run_bilu_rumely(spec), ("csv", "json"), d2)
    for fn in ("det.csv", "det.json", "MANIFEST.json"):
        assert (d1 / fn).read_bytes() == (d2 / fn).read_bytes()


def test_emit_empty_report_manifest_only(tmp_path):
    rep = Report(name="void", columns=(), rows=[], seed=0, config={},
                 violations=[], notes={}, rasters=[])
    files = emit(rep, ("csv", "json"), tmp_path)
    assert [p.rsplit("/", 1)[-1] for p in files] == ["MANIFEST.json"]
    assert {p.name for p in tmp_path.iterdir()} == {"MANIFEST.json"}


def test_emit_pgm_raster(tmp_path):
    rep = run_bilu_rumely(_spec(name="img", checkpoints=(4,),
                                outputs=("csv", "pgm")))
    assert rep.rasters
    files = emit(rep, ("csv", "pgm"), tmp_path)
    names = {p.rsplit("/", 1)[-1] for p in files}
    assert "img_julia.pgm" in names
    with open(tmp_path / "img_julia.pgm", "rb") as fh:
        assert fh.read(2) == b"P5"
    sidecar = json.loads((tmp_path / "img_julia.pgm.json").read_text())
    assert sidecar["resolution"] == [256, 256]


def test_emit_bool_cells_as_bits(tmp_path):
    rep = run_dynamical_fs(_spec(name="fsrun", family="chebyshev",
                                 set_config=SEGMENT, checkpoints=(4,),
                                 epsilon=0.1, seed=1))
    emit(rep, ("csv",), tmp_path)
    lines = (tmp_path / "fsrun.csv").read_text().splitlines()
    assert lines[1].endswith(",1")
