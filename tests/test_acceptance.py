"""Acceptance gate: the package's pinned numerical contracts.

Each test prints one pass/fail line; tolerances and runtime caps are fixed.
"""

import contextlib
import math
import pathlib
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from feketedyn.dynamics import DynGreenEvaluator, brolin_sample, julia_capacity
from feketedyn.harness import (
    ExperimentSpec,
    run_bilu_rumely,
    run_dynamical_fs,
    run_runaway,
)
from feketedyn.heights import (
    AlgebraicNumber,
    canonical_height,
    rumely_height,
    weil_height,
)
from feketedyn.metric import (
    MOMENT_ORDER,
    GreenPair,
    contraction_check,
    klimek_distance,
    side_from_map,
    side_from_set,
)
from feketedyn.polyarith import IntPolynomial, cyclotomic, power_map
from feketedyn.potential import (
    CompactSetModel,
    green_eval_many,
    transfinite_diameter_of_points,
)

# the exact-orbit limit oracle sits beside this file, under any import mode
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from test_heights import exact_orbit_heights  # noqa: E402

UNIT_CIRCLE = {"kind": "circle", "center": 0, "radius": 1}
UNIT_DISK = {"kind": "disk", "center": 0, "radius": 1}
SEGMENT = {"kind": "interval", "a": -2, "b": 2}


@contextlib.contextmanager
def criterion(k: int, label: str):
    t0 = time.monotonic()
    try:
        yield t0
    except BaseException:
        print(f"criterion {k:2d} FAIL  {label}")
        raise
    print(f"criterion {k:2d} PASS  {label} ({time.monotonic() - t0:.1f}s)")


@pytest.fixture(scope="module")
def family_runs():
    """The three equidistribution ladders, shared across criteria."""
    out = {}
    t0 = time.monotonic()
    out["cyclotomic"] = run_bilu_rumely(ExperimentSpec(
        name="cyc", family="cyclotomic", set_config=UNIT_CIRCLE,
        degree_range=(3, 128), checkpoints=(5, 17, 53, 101),
        n_atoms=2048, seed=0))
    out["power_maps"] = run_bilu_rumely(ExperimentSpec(
        name="pow", family="power_maps", set_config=UNIT_DISK,
        degree_range=(2, 128), n_atoms=1024, seed=0))
    out["chebyshev"] = run_bilu_rumely(ExperimentSpec(
        name="cheb", family="chebyshev", set_config=SEGMENT,
        degree_range=(2, 128), n_atoms=1024, seed=0,
        probes=("3", "5/2")))
    out["elapsed"] = time.monotonic() - t0
    return out


def _col(report, name):
    i = report.columns.index(name)
    return [row[i] for row in report.rows]


def test_criterion_01_exact_capacity():
    with criterion(1, "exact Julia capacities + sampled re-estimate") as t0:
        cases = [("-2 0 1", 1.0), ("0 1 0 2", 2 ** -0.5), ("0 0 3", 1 / 3)]
        for text, cap in cases:
            poly = IntPolynomial.from_text(text)
            assert julia_capacity(poly) == cap
            atoms = brolin_sample(poly, 1024, seed=11).points
            est = transfinite_diameter_of_points(atoms)
            assert abs(est - cap) <= 0.05 * cap
        assert time.monotonic() - t0 < 10.0


def test_criterion_02_green_oracles():
    with criterion(2, "dynamical Green matches closed forms") as t0:
        rng = np.random.default_rng(42)
        z = rng.uniform(-3, 3, 64) + 1j * rng.uniform(-2, 2, 64)
        dyn = DynGreenEvaluator(IntPolynomial.from_text("-2 0 1")).green_many(z)[0]
        ref = green_eval_many(CompactSetModel.interval(-2, 2), z)
        assert float(np.max(np.abs(dyn - ref))) <= 1e-6

        z2 = rng.uniform(-2, 2, 64) + 1j * rng.uniform(-2, 2, 64)
        dyn2 = DynGreenEvaluator(power_map(2)).green_many(z2)[0]
        ref2 = np.log(np.maximum(np.abs(z2), 1.0))
        assert float(np.max(np.abs(dyn2 - ref2))) <= 1e-9
        assert time.monotonic() - t0 < 5.0


def test_criterion_03_functional_equation():
    with criterion(3, "g(P(z)) = d g(z), 200 points x 5 maps"):
        rng = np.random.default_rng(7)
        texts = ["-2 0 1", "1 0 1", "0 1 0 2", "1 -1 0 1", "0 0 0 0 1"]
        for text in texts:
            poly = IntPolynomial.from_text(text)
            ev = DynGreenEvaluator(poly)
            d = poly.degree
            radius = ev.escape_radius + 0.5 + 1.5 * rng.uniform(size=200)
            z = radius * np.exp(2j * np.pi * rng.uniform(size=200))
            g = ev.green_many(z)[0]
            coeffs = np.array([complex(c) for c in poly.coeffs])
            pz = np.polyval(coeffs[::-1], z)
            gp = ev.green_many(pz)[0]
            rel = np.max(np.abs(gp - d * g) / np.abs(d * g))
            assert float(rel) <= 1e-7


def test_criterion_04_metric_closed_forms_and_axioms():
    with criterion(4, "sup-norm distance closed forms, axioms, contraction") as t0:
        d1 = CompactSetModel.disk(0, 1)
        d2 = CompactSetModel.disk(0, 2)
        iv = CompactSetModel.interval(-2, 2)
        z2m2 = IntPolynomial.from_text("-2 0 1")
        z2m1 = IntPolynomial.from_text("-1 0 1")

        gam = klimek_distance(GreenPair(side_from_set(d1), side_from_set(d2)))
        assert gam == pytest.approx(math.log(2.0), abs=1e-3)
        julia2 = side_from_map(z2m2, brolin_sample(z2m2, 1024, seed=0).points)
        gam2 = klimek_distance(GreenPair(julia2, side_from_set(iv)))
        assert gam2 <= 1e-3

        sides = [side_from_set(d1), side_from_set(d2), side_from_set(iv),
                 side_from_map(z2m1, brolin_sample(z2m1, 1024, seed=0).points)]
        m = len(sides)
        dist = [[klimek_distance(GreenPair(sides[i], sides[j]))
                 for j in range(m)] for i in range(m)]
        for i in range(m):
            # set sides are exact; the sampled Julia side carries atom rounding
            assert dist[i][i] <= (1e-9 if i < 3 else 1e-5)
            for j in range(m):
                assert abs(dist[i][j] - dist[j][i]) <= 1e-9
                if i != j:
                    assert dist[i][j] > 0.05
                for k in range(m):
                    assert dist[i][k] <= dist[i][j] + dist[j][k] + 1e-6

        lhs, rhs, ok = contraction_check(power_map(2), d1, d2)
        assert ok and lhs == pytest.approx(math.log(2.0) / 2, abs=1e-6)
        lhs, rhs, ok = contraction_check(power_map(2), d2, d2)
        assert ok and lhs <= 1e-9
        lhs, rhs, ok = contraction_check(z2m2, iv, d1)
        assert ok
        assert time.monotonic() - t0 < 60.0


def test_criterion_05_canonical_heights():
    with criterion(5, "canonical heights: exact cycles, closed form, limit") as t0:
        sq = power_map(2)
        rng = np.random.default_rng(5)
        for _ in range(50):
            fr = Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 51)))
            hhat = canonical_height(sq, fr).total
            weil = weil_height(AlgebraicNumber.from_rational(fr)).total
            assert abs(hhat - weil) <= 1e-8

        basilica = IntPolynomial.from_text("-1 0 1")
        assert canonical_height(basilica, Fraction(0)).total <= 1e-9
        assert canonical_height(basilica, Fraction(-1)).total <= 1e-9

        z2m2 = IntPolynomial.from_text("-2 0 1")
        target = math.log((3 + math.sqrt(5)) / 2)
        assert canonical_height(z2m2, Fraction(3)).total == pytest.approx(
            target, abs=1e-6)

        terms = exact_orbit_heights(z2m2, Fraction(3), 5)
        assert len(terms) == 6
        assert abs(terms[-1] - canonical_height(z2m2, Fraction(3)).total) \
            <= 2.0 * 2.0 ** -5
        assert time.monotonic() - t0 < 30.0


def test_criterion_06_rumely_collapse():
    with criterion(6, "set height over the unit disk equals Weil height"):
        disk = CompactSetModel.disk(0, 1)
        catalog = [
            cyclotomic(5),
            cyclotomic(7),
            IntPolynomial.from_text("-1 -1 1"),
            IntPolynomial.from_text("-2 1"),
            IntPolynomial.from_text("-3 2"),
            IntPolynomial.from_text("1 0 1"),
            IntPolynomial.from_text("-2 0 1"),
            IntPolynomial.from_text("-2 0 0 1"),
            IntPolynomial.from_text("1 1 1"),
            IntPolynomial.from_text("1 0 -1 0 1"),
        ]
        assert len(catalog) == 10
        for minpoly in catalog:
            alpha = AlgebraicNumber.from_minpoly(minpoly)
            r = rumely_height(alpha, disk).total
            w = weil_height(alpha).total
            assert abs(r - w) <= 1e-6

        sqrt3 = AlgebraicNumber.from_minpoly(IntPolynomial.from_text("-3 0 1"))
        assert rumely_height(sqrt3, CompactSetModel.interval(-2, 2)).total <= 1e-6


def test_criterion_07_equidistribution_ladders(family_runs):
    with criterion(7, "family ladders: zero heights, shrinking distances"):
        cyc = family_runs["cyclotomic"]
        assert all(v == 0.0 for v in _col(cyc, "h_E"))
        assert all(v == 0.0 for v in _col(cyc, "dist"))
        gammas = _col(cyc, "gamma")
        assert all(b < a for a, b in zip(gammas, gammas[1:]))
        assert cyc.violations == []

        for fam in ("power_maps", "chebyshev"):
            rep = family_runs[fam]
            assert len(rep.rows) == 6
            assert all(g <= 1e-3 for g in _col(rep, "gamma"))
            # whole fibers: above degree MOMENT_ORDER every moment the
            # column compares is exact on both sides, so it reads rounding
            for n, disc in zip(_col(rep, "n"), _col(rep, "discrepancy")):
                if n > MOMENT_ORDER:
                    assert disc <= 1e-12, (fam, n, disc)
        assert family_runs["elapsed"] < 600.0


def test_criterion_08_runaway_family():
    with criterion(8, "drift family: root split, height band, trends") as t0:
        rep = run_runaway(ExperimentSpec(name="drift", family="runaway",
                                         degree_range=(4, 12)))
        assert [r[0] for r in rep.rows] == list(range(4, 13))
        for d, _, inside, _, h, target in rep.rows:
            assert inside == d - 1
            assert abs(h - target) <= 0.1 * target
        heights = _col(rep, "h")
        mods = _col(rep, "max_modulus")
        assert all(b < a for a, b in zip(heights, heights[1:]))
        assert all(b > a for a, b in zip(mods, mods[1:]))
        assert rep.violations == []
        assert time.monotonic() - t0 < 30.0


def test_criterion_09_height_gap_inequality(family_runs):
    with criterion(9, "canonical vs set height bounded by the distance"):
        gaps = family_runs["chebyshev"].notes["height_gap"]
        assert {g["probe"] for g in gaps} == {"3", "5/2"}
        assert len(gaps) == 12
        for g in gaps:
            assert g["gap"] <= g["gamma"] + 1e-3
            assert g["ok"]


def test_criterion_10_capacity_obstruction():
    with criterion(10, "capacity never exceeds 1; small targets refused"):
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            d = int(rng.integers(2, 9))
            coeffs = [int(c) for c in rng.integers(-9, 10, d + 1)]
            while coeffs[-1] == 0:
                coeffs[-1] = int(rng.integers(-9, 10))
            poly = IntPolynomial(tuple(coeffs))
            cap = julia_capacity(poly)
            assert cap <= 1.0
            assert (cap == 1.0) == (abs(coeffs[-1]) == 1)

        small = ExperimentSpec(name="small", family="power_maps",
                               set_config={"kind": "disk", "center": 0,
                                           "radius": 0.5},
                               degree_range=(2, 64), checkpoints=(4,))
        with pytest.raises(ValueError, match="capacity"):
            run_dynamical_fs(small)
