"""Uniform-norm distance between Green functions, polynomial pullbacks of
compact sets, and moment-based comparison of discrete measures.

Frozen oracle values:
  * two concentric disks: the Green functions are log+|z| and log+(|z|/2),
    whose difference is log 2 everywhere outside the larger disk, so the
    distance is exactly log 2;
  * the filled Julia set of z^2 - 2 is the segment [-2, 2], so its distance
    to the interval model must vanish up to sampling error;
  * pullback of disk(0, r) under z^2 is disk(0, sqrt(r)) with capacity
    sqrt(r), and the Green function composes as g(P(z)) / deg(P).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feketedyn.dynamics import brolin_sample
from feketedyn.metric import (
    MAX_PULLBACK_SOURCES,
    GreenPair,
    GreenSide,
    contraction_check,
    grid_audit,
    klimek_distance,
    klimek_report,
    measure_discrepancy,
    pullback,
    side_from_map,
    side_from_set,
)
from feketedyn.polyarith import IntPolynomial
from feketedyn.potential import (
    CompactSetModel,
    DiscreteMeasure,
    equilibrium_measure,
    green_eval_many,
)

LOG2 = math.log(2.0)

Z2 = IntPolynomial((0, 0, 1))
Z2M1 = IntPolynomial((-1, 0, 1))
Z2M2 = IntPolynomial((-2, 0, 1))


def set_pair(a: CompactSetModel, b: CompactSetModel) -> GreenPair:
    return GreenPair(side_from_set(a), side_from_set(b))


# --------------------------------------------------------------------------- #
# distance values
# --------------------------------------------------------------------------- #


def test_distance_two_disks_is_log_two():
    d1 = CompactSetModel.disk(0.0, 1.0)
    d2 = CompactSetModel.disk(0.0, 2.0)
    gamma = klimek_distance(set_pair(d1, d2))
    assert gamma == pytest.approx(LOG2, abs=1e-9)


def test_distance_identity_is_zero():
    for e in (CompactSetModel.disk(0.5, 1.5), CompactSetModel.interval(-2.0, 2.0)):
        assert klimek_distance(set_pair(e, e)) <= 1e-9


def test_distance_julia_z2m2_vs_interval():
    # the filled Julia set of z^2 - 2 equals [-2, 2]
    left = side_from_map(Z2M2, brolin_sample(Z2M2, 2048, seed=1).points)
    right = side_from_set(CompactSetModel.interval(-2.0, 2.0))
    assert klimek_distance(GreenPair(left, right)) <= 1e-3


def test_distance_requires_samples_and_capacity():
    d1 = side_from_set(CompactSetModel.disk(0.0, 1.0))
    few = GreenSide(
        samples=np.exp(2j * np.pi * np.arange(32) / 32),
        green_many=d1.green_many,
        log_cap=0.0,
    )
    with pytest.raises(ValueError):
        klimek_distance(GreenPair(d1, few))
    nocap = GreenSide(
        samples=d1.samples,
        green_many=d1.green_many,
        log_cap=None,
    )
    with pytest.raises(ValueError):
        klimek_distance(GreenPair(d1, nocap))


def test_metric_axioms_on_catalog():
    sides = [
        side_from_set(CompactSetModel.disk(0.0, 1.0)),
        side_from_set(CompactSetModel.disk(0.0, 2.0)),
        side_from_set(CompactSetModel.interval(-2.0, 2.0)),
        side_from_map(Z2M1, brolin_sample(Z2M1, 2048, seed=2).points),
    ]
    n = len(sides)
    gam = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            gam[i, j] = klimek_distance(GreenPair(sides[i], sides[j]))
    # symmetry: the formula is symmetric in the two sides
    assert np.max(np.abs(gam - gam.T)) <= 1e-9
    # identity of indiscernibles, up to atom rounding on the Julia side
    for i in range(3):
        assert gam[i, i] <= 1e-9
    assert gam[3, 3] <= 1e-5
    # distinct catalog members are well separated
    for i in range(n):
        for j in range(n):
            if i != j:
                assert gam[i, j] > 0.05
    # triangle inequality
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert gam[i, k] <= gam[i, j] + gam[j, k] + 1e-6


closed_form_sets = st.one_of(
    st.builds(lambda a, w: CompactSetModel.interval(a, a + w, samples=256),
              st.floats(-4, 4), st.floats(0.01, 6)),
    *(st.builds(lambda c, r, ctor=ctor: ctor(c, r, samples=256),
                st.complex_numbers(max_magnitude=4), st.floats(0.01, 4))
      for ctor in (CompactSetModel.disk, CompactSetModel.circle)),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(closed_form_sets, closed_form_sets)
def test_klimek_symmetric_and_zero_on_the_diagonal(e, f):
    # gamma(E, F) = gamma(F, E) and gamma(E, E) = 0 for the closed-form kinds
    assert klimek_distance(set_pair(e, f)) == klimek_distance(set_pair(f, e))
    assert klimek_distance(set_pair(e, e)) == 0.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(closed_form_sets, closed_form_sets, closed_form_sets)
def test_klimek_triangle_inequality(e, f, g):
    # gamma(E, G) <= gamma(E, F) + gamma(F, G) for the closed-form kinds
    assert klimek_distance(set_pair(e, g)) \
        <= klimek_distance(set_pair(e, f)) + klimek_distance(set_pair(f, g)) + 1e-12


monic_quadratics = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
    lambda c: IntPolynomial((c[0], c[1], 1)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(monic_quadratics, closed_form_sets, closed_form_sets)
def test_pullback_contracts_exactly(p, e, f):
    # gamma(P^-1 E, P^-1 F) = gamma(E, F) / d: g_{P^-1 E} = g_E(P z) / d, P is
    # onto, and P maps each pulled-back sample onto a source sample. 256
    # samples per side stay below MAX_PULLBACK_SOURCES, whose subsampling
    # could drop the argmax
    assert max(len(e.boundary_samples), len(f.boundary_samples)) <= MAX_PULLBACK_SOURCES
    lhs = klimek_distance(set_pair(pullback(p, e), pullback(p, f)))
    assert lhs == pytest.approx(klimek_distance(set_pair(e, f)) / 2, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------------------- #
# report and grid audit
# --------------------------------------------------------------------------- #


def test_report_fields_two_disks():
    d1 = CompactSetModel.disk(0.0, 1.0)
    d2 = CompactSetModel.disk(0.0, 2.0)
    rep = klimek_report(set_pair(d1, d2))
    assert rep["gamma"] == pytest.approx(LOG2, abs=1e-9)
    assert rep["cap_gap"] == pytest.approx(LOG2, abs=1e-12)
    assert rep["side"] in ("left", "right", "capacity")
    if rep["side"] == "capacity":
        assert rep["argmax_point"] is None
    else:
        x, y = rep["argmax_point"]
        assert math.isfinite(x) and math.isfinite(y)
    assert set(rep) == {"gamma", "argmax_point", "side", "cap_gap"}


def test_grid_audit_two_disks():
    d1 = CompactSetModel.disk(0.0, 1.0)
    d2 = CompactSetModel.disk(0.0, 2.0)
    audit = grid_audit(set_pair(d1, d2))
    assert audit["ok"]
    assert audit["grid_max"] <= audit["gamma"] + 1e-3
    # the difference of the two disk Green functions equals log 2 far out,
    # so the grid should actually reach the formula value
    assert audit["grid_max"] == pytest.approx(LOG2, abs=1e-6)


def test_grid_audit_julia_vs_interval():
    left = side_from_map(Z2M2, brolin_sample(Z2M2, 2048, seed=4).points)
    right = side_from_set(CompactSetModel.interval(-2.0, 2.0))
    pair = GreenPair(left, right)
    audit = grid_audit(pair)
    assert audit["ok"]
    assert audit["grid_max"] <= audit["gamma"] + 1e-3


# --------------------------------------------------------------------------- #
# pullback
# --------------------------------------------------------------------------- #


def test_pullback_disk_square_root():
    big = CompactSetModel.disk(0.0, 4.0)
    pulled = pullback(Z2, big)
    r = np.abs(pulled.boundary_samples)
    assert np.max(np.abs(r - 2.0)) <= 1e-6
    # angular coverage of the circle of radius 2
    ang = np.sort(np.angle(pulled.boundary_samples))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    assert np.max(gaps) < 0.02
    assert pulled.log_capacity == pytest.approx(LOG2, abs=1e-12)
    small = CompactSetModel.disk(0.0, 2.0)
    assert klimek_distance(GreenPair(side_from_set(pulled), side_from_set(small))) <= 1e-9


def test_pullback_unit_disk_is_fixed():
    d1 = CompactSetModel.disk(0.0, 1.0)
    pulled = pullback(Z2, d1)
    assert np.max(np.abs(np.abs(pulled.boundary_samples) - 1.0)) <= 1e-9
    assert pulled.log_capacity == pytest.approx(0.0, abs=1e-12)
    assert klimek_distance(GreenPair(side_from_set(pulled), side_from_set(d1))) <= 1e-9


def test_pullback_rejects_degree_one():
    with pytest.raises(ValueError):
        pullback(IntPolynomial((1, 2)), CompactSetModel.disk(0.0, 1.0))


real_maps = st.integers(2, 4).flatmap(
    lambda d: st.lists(st.integers(-6, 6), min_size=d + 1, max_size=d + 1)
).filter(lambda c: c[-1] != 0).map(lambda c: IntPolynomial(tuple(c)))
real_sets = st.one_of(
    st.builds(lambda a, w: CompactSetModel.interval(a, a + w),
              st.integers(-8, 8).map(lambda k: k / 4), st.integers(1, 16).map(lambda k: k / 4)),
    st.builds(CompactSetModel.disk,
              st.integers(-8, 8).map(lambda k: k / 4), st.integers(1, 12).map(lambda k: k / 4)),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(real_maps, real_sets)
def test_pullback_of_real_set_under_real_map_is_symmetric(p, e):
    # conj(P^{-1}E) = P^{-1}(conj E) = P^{-1}E for real P and E
    assert pullback(p, e).symmetric


def test_iterated_pullback_contracts_to_julia():
    p = IntPolynomial((-1, 0, 1))
    julia = side_from_map(Z2M1, brolin_sample(Z2M1, 2048, seed=3).points)
    e = CompactSetModel.disk(0.0, 4.0)
    gammas = []
    for _ in range(10):
        e = pullback(p, e)
        gammas.append(klimek_distance(GreenPair(side_from_set(e), julia)))
    for a, b in zip(gammas, gammas[1:]):
        assert b < a
    assert gammas[-1] < 0.01


def test_pullback_green_functoriality():
    big = CompactSetModel.disk(0.0, 4.0)
    pulled = pullback(Z2, big)
    rng = np.random.default_rng(9)
    z = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100)
    lhs = green_eval_many(pulled, z)
    rhs = green_eval_many(big, Z2(z)) / 2.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-6
    # independent route: re-estimate the capacity from the pulled samples
    from feketedyn.potential import capacity_estimate

    est = capacity_estimate(pulled.boundary_samples, 128)
    assert est == pytest.approx(math.exp(pulled.log_capacity), rel=0.05)


@pytest.mark.parametrize("x", [1e155, 1e200, 1e300])
def test_pullback_green_where_the_map_overflows(x):
    # P(z) = z^2 overflows past 1.3e154: the value was clamped to
    # g_E(1e300) / 2 = 345.5316 for every real z > 1e155
    pulled = pullback(IntPolynomial((0, 0, 1)), CompactSetModel.interval(1.0, 4.0))
    # cap [1, 4] = 3/4, so g(z) = (2 log|z| - log 3/4) / 2 + O(|z|^-2)
    want = (2 * math.log(x) - math.log(0.75)) / 2
    for z in (x, -x, 1j * x, x * np.exp(0.3j)):
        assert green_eval_many(pulled, [z])[0] == pytest.approx(want, rel=1e-15), z


# --------------------------------------------------------------------------- #
# contraction
# --------------------------------------------------------------------------- #


def test_contraction_two_disks_exact():
    d1 = CompactSetModel.disk(0.0, 1.0)
    d2 = CompactSetModel.disk(0.0, 2.0)
    lhs, rhs, ok = contraction_check(Z2, d1, d2)
    assert ok
    assert rhs == pytest.approx(LOG2 / 2, abs=1e-9)
    assert lhs == pytest.approx(LOG2 / 2, abs=1e-6)


def test_contraction_identical_sets():
    d2 = CompactSetModel.disk(0.0, 2.0)
    lhs, rhs, ok = contraction_check(Z2, d2, d2)
    assert ok
    assert lhs <= 1e-9


def test_contraction_mixed_pair():
    p = IntPolynomial((-2, 0, 1))
    iv = CompactSetModel.interval(-2.0, 2.0)
    d1 = CompactSetModel.disk(0.0, 1.0)
    lhs, rhs, ok = contraction_check(p, iv, d1)
    assert ok
    # the pullback identity makes both sides equal up to sampling error
    assert lhs == pytest.approx(rhs, abs=1e-6)


# --------------------------------------------------------------------------- #
# measure discrepancy
# --------------------------------------------------------------------------- #


def test_discrepancy_identical_measure_is_zero():
    m = equilibrium_measure(CompactSetModel.circle(0.0, 1.0))
    assert measure_discrepancy(m, m) == 0.0


def test_discrepancy_haar_vs_circle_equilibrium():
    rng = np.random.default_rng(11)
    haar = DiscreteMeasure(np.exp(2j * np.pi * rng.uniform(size=4096)))
    eq = equilibrium_measure(CompactSetModel.circle(0.0, 1.0))
    assert measure_discrepancy(haar, eq) <= 0.05


def test_discrepancy_brolin_vs_arcsine():
    atoms = brolin_sample(Z2M2, 4096, seed=7)
    eq = equilibrium_measure(CompactSetModel.interval(-2.0, 2.0))
    assert measure_discrepancy(atoms, eq) <= 0.05


def test_discrepancy_affine_equivariance():
    rng = np.random.default_rng(13)
    m1 = DiscreteMeasure(rng.normal(size=256) + 1j * rng.normal(size=256))
    m2 = DiscreteMeasure(rng.normal(size=256) + 1j * rng.normal(size=256))
    base = measure_discrepancy(m1, m2)
    a, b = 3.0 + 4.0j, 5.0 - 1.0j
    moved = measure_discrepancy(DiscreteMeasure(a * m1.points + b),
                                DiscreteMeasure(a * m2.points + b))
    assert moved == pytest.approx(base, abs=1e-12)
