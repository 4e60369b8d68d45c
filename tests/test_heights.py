"""Arithmetic height functions over the rationals.

Frozen oracle values:
  * h(2) = log 2 and h(1/2) = log 2 (numerator and denominator enter
    symmetrically through log max(|p|, q));
  * h(golden ratio) = (1/2) log((1+sqrt 5)/2) = 0.24060591252980173, from
    the Mahler measure of z^2 - z - 1;
  * the interval Green function of [-2, 2] at 3 is
    log((3 + sqrt 5)/2) = 0.9624236501192069;
  * the squaring map's canonical height equals the ordinary height, so
    h_hat(3/2) = log max(3, 2) + log 2 = log 3.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feketedyn.dynamics import brolin_sample
from feketedyn.harness import HEIGHT_GAP_TOL
from feketedyn.heights import (
    AlgebraicNumber,
    GoodReductionError,
    HeightReport,
    canonical_height,
    rumely_height,
    weil_height,
)
from feketedyn.metric import GreenPair, klimek_distance, side_from_map, side_from_set
from feketedyn.polyarith import (
    IntPolynomial,
    chebyshev_monic,
    cyclotomic,
)
from feketedyn.potential import CompactSetModel

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
HALF_LOG_PHI = 0.24060591252980173
G_INTERVAL_AT_3 = 0.9624236501192069

Z2 = IntPolynomial((0, 0, 1))
Z2M1 = IntPolynomial((-1, 0, 1))
Z2M2 = IntPolynomial((-2, 0, 1))


# --------------------------------------------------------------------------- #
# algebraic numbers
# --------------------------------------------------------------------------- #


def test_algebraic_number_normalization():
    a = AlgebraicNumber.from_minpoly(IntPolynomial((2, 2, -4)))
    # content divided out, leading made positive
    assert a.minpoly.coeffs == (-1, -1, 2)
    assert a.degree == 2
    assert len(a.conjugates.roots) == 2


def test_algebraic_number_rejects_constant():
    with pytest.raises(ValueError):
        AlgebraicNumber.from_minpoly(IntPolynomial((7,)))


def test_algebraic_number_from_rational():
    a = AlgebraicNumber.from_rational(Fraction(-3, 6))
    assert a.minpoly.coeffs == (1, 2)
    assert a.degree == 1
    assert a.conjugates.roots[0] == pytest.approx(-0.5)


# --------------------------------------------------------------------------- #
# Weil height
# --------------------------------------------------------------------------- #


def test_weil_integer_two():
    rep = weil_height(AlgebraicNumber.from_rational(Fraction(2)))
    assert rep.total == pytest.approx(LOG2, abs=1e-12)
    assert rep.archimedean == pytest.approx(LOG2, abs=1e-12)
    assert rep.nonarchimedean == 0.0


def test_weil_one_half():
    rep = weil_height(AlgebraicNumber.from_rational(Fraction(1, 2)))
    assert rep.total == pytest.approx(LOG2, abs=1e-12)
    assert rep.archimedean == 0.0
    assert rep.nonarchimedean == pytest.approx(LOG2, abs=1e-12)
    assert dict(rep.per_place)["2"] == pytest.approx(LOG2, abs=1e-12)


def test_weil_golden_ratio():
    rep = weil_height(AlgebraicNumber.from_minpoly(IntPolynomial((-1, -1, 1))))
    assert rep.total == pytest.approx(HALF_LOG_PHI, abs=1e-9)
    assert rep.nonarchimedean == 0.0


def test_weil_cyclotomic_is_zero():
    rep = weil_height(AlgebraicNumber.from_minpoly(cyclotomic(7)))
    assert rep.total <= 1e-9


def test_report_parts_sum():
    for frac in (Fraction(5, 12), Fraction(-7, 10), Fraction(9)):
        rep = weil_height(AlgebraicNumber.from_rational(frac))
        assert rep.total == pytest.approx(rep.archimedean + rep.nonarchimedean,
                                          abs=1e-12)
        assert all(v >= 0.0 for _, v in rep.per_place)
        finite = sum(v for t, v in rep.per_place if t != "inf")
        assert finite == pytest.approx(rep.nonarchimedean, abs=1e-12)


def test_per_prime_breakdown_with_residual():
    # a leftover below the square of the trial bound is a certified prime;
    # a larger composite leftover is reported as one residual place
    p1, p2 = 1000003, 1000033
    rep = weil_height(AlgebraicNumber.from_rational(Fraction(1, 2 * p1)))
    tags = dict(rep.per_place)
    assert tags["2"] == pytest.approx(LOG2, abs=1e-12)
    assert tags[str(p1)] == pytest.approx(math.log(p1), abs=1e-12)
    rep = weil_height(AlgebraicNumber.from_rational(Fraction(1, 2 * p1 * p2)))
    tags = dict(rep.per_place)
    assert tags["residual"] == pytest.approx(math.log(p1) + math.log(p2), abs=1e-9)


random_numbers = st.one_of(
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
    .map(AlgebraicNumber.from_rational),
    st.integers(2, 6).flatmap(
        lambda d: st.lists(st.integers(-20, 20), min_size=d + 1, max_size=d + 1))
    .filter(lambda c: c[-1] != 0)
    .map(lambda c: AlgebraicNumber.from_minpoly(IntPolynomial(tuple(c)))),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_numbers)
def test_height_split_sums_to_total(a):
    # the per-place parts of every height add up to its total
    reports = [weil_height(a), rumely_height(a, CompactSetModel.disk(0.0, 1.0)),
               rumely_height(a, CompactSetModel.interval(-2.0, 2.0)),
               canonical_height(Z2M1, a)]
    for rep in reports:
        parts = math.fsum(v for _, v in rep.per_place)
        assert parts == pytest.approx(rep.total, rel=1e-15, abs=1e-300), rep


# --------------------------------------------------------------------------- #
# Rumely height
# --------------------------------------------------------------------------- #

CATALOG = (
    IntPolynomial((-2, 1)),
    IntPolynomial((-1, 2)),
    IntPolynomial((-1, -1, 1)),
    cyclotomic(7),
    IntPolynomial((1, -7, 3)),
)


def test_rumely_unit_disk_collapses_to_weil():
    disk = CompactSetModel.disk(0.0, 1.0)
    for mp in CATALOG:
        a = AlgebraicNumber.from_minpoly(mp)
        assert rumely_height(a, disk).total == pytest.approx(
            weil_height(a).total, abs=1e-6)


def test_rumely_interval_root_inside():
    iv = CompactSetModel.interval(-2.0, 2.0)
    a = AlgebraicNumber.from_minpoly(IntPolynomial((-3, 0, 1)))
    assert rumely_height(a, iv).total <= 1e-6


def test_rumely_interval_point_outside():
    iv = CompactSetModel.interval(-2.0, 2.0)
    a = AlgebraicNumber.from_rational(Fraction(3))
    assert rumely_height(a, iv).total == pytest.approx(G_INTERVAL_AT_3, abs=1e-6)


def test_rumely_warns_off_unit_capacity():
    a = AlgebraicNumber.from_rational(Fraction(3))
    with pytest.warns(UserWarning):
        rumely_height(a, CompactSetModel.disk(0.0, 2.0))
    with pytest.warns(UserWarning):
        rumely_height(a, CompactSetModel.disk(1.0j, 1.0))


# --------------------------------------------------------------------------- #
# canonical height
# --------------------------------------------------------------------------- #


def test_canonical_squaring_three_halves():
    rep = canonical_height(Z2, Fraction(3, 2))
    assert rep.total == pytest.approx(LOG3, abs=1e-9)
    assert rep.archimedean == pytest.approx(math.log(1.5), abs=1e-9)
    assert rep.nonarchimedean == pytest.approx(LOG2, abs=1e-12)


def test_canonical_vanishes_on_exact_cycles():
    assert canonical_height(Z2M1, Fraction(0)).total <= 1e-9
    assert canonical_height(Z2M1, Fraction(-1)).total <= 1e-9
    assert canonical_height(Z2, Fraction(0)).total <= 1e-9
    assert canonical_height(Z2M2, Fraction(2)).total <= 1e-9
    assert canonical_height(Z2M2, Fraction(-1)).total <= 1e-9


def test_canonical_z2m2_at_three():
    rep = canonical_height(Z2M2, Fraction(3))
    assert rep.total == pytest.approx(G_INTERVAL_AT_3, abs=1e-6)
    assert rep.nonarchimedean == 0.0


def test_canonical_accepts_algebraic_argument():
    sqrt2 = AlgebraicNumber.from_minpoly(IntPolynomial((-2, 0, 1)))
    rep = canonical_height(Z2, sqrt2)
    assert rep.total == pytest.approx(0.5 * LOG2, abs=1e-9)
    assert rep.total == pytest.approx(weil_height(sqrt2).total, abs=1e-9)


def test_canonical_rejects_non_monic():
    with pytest.raises(GoodReductionError) as err:
        canonical_height(IntPolynomial((1, 0, 2)), Fraction(1))
    assert "reduction" in str(err.value)


def test_canonical_rejects_low_degree():
    with pytest.raises(ValueError):
        canonical_height(IntPolynomial((1, 2)), Fraction(1))


def test_canonical_functional_equation():
    rng = np.random.default_rng(21)
    for p in (Z2, Z2M1, Z2M2):
        for _ in range(20):
            num = int(rng.integers(-9, 10))
            den = int(rng.integers(1, 10))
            a = Fraction(num, den)
            image = Fraction(p(a))
            lhs = canonical_height(p, image).total
            rhs = 2 * canonical_height(p, a).total
            assert abs(lhs - rhs) <= 1e-6


def test_canonical_squaring_matches_weil():
    rng = np.random.default_rng(33)
    for _ in range(50):
        num = int(rng.integers(-10_000, 10_001))
        den = int(rng.integers(1, 10_001))
        a = Fraction(num, den)
        got = canonical_height(Z2, a).total
        want = math.log(max(abs(a.numerator), a.denominator))
        assert abs(got - want) <= 1e-8


# --------------------------------------------------------------------------- #
# limit sequence
# --------------------------------------------------------------------------- #


def exact_orbit_heights(p: IntPolynomial, x, k: int) -> list:
    """The terms (1/d^j) h(P^j x), j = 0..k, of the limit that defines the
    canonical height, along the exact orbit of the rational x."""
    orbit = [Fraction(x)]
    for _ in range(k):
        orbit.append(Fraction(p(orbit[-1])))
    return [math.log(max(abs(y.numerator), y.denominator)) / p.degree ** j
            for j, y in enumerate(orbit)]


def test_limit_sequence_squaring():
    terms = exact_orbit_heights(Z2, Fraction(3, 2), 4)
    assert len(terms) == 5
    for term in terms:
        assert term == pytest.approx(LOG3, abs=1e-9)


def test_limit_sequence_preperiodic_zero():
    terms = exact_orbit_heights(Z2M1, Fraction(0), 6)
    assert len(terms) == 7
    assert all(t == 0.0 for t in terms)


def test_limit_sequence_z2m2():
    terms = exact_orbit_heights(Z2M2, Fraction(3), 5)
    # exact orbit 3, 7, 47, 2207, ...
    assert terms[0] == pytest.approx(LOG3, abs=1e-12)
    assert terms[1] == pytest.approx(math.log(7) / 2, abs=1e-12)
    assert terms[2] == pytest.approx(math.log(47) / 4, abs=1e-12)
    assert abs(terms[5] - G_INTERVAL_AT_3) <= 1e-3
    errs = [abs(t - G_INTERVAL_AT_3) for t in terms]
    assert errs[-1] < errs[0]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3).flatmap(
           lambda d: st.lists(st.integers(-3, 3), min_size=d, max_size=d)),
       st.integers(-50, 50), st.integers(1, 50))
def test_canonical_height_matches_exact_orbit_limit(lower, num, den):
    # for monic integer P the denominator of P(p/q) is exactly q^d, so
    # |h(P x) - d h(x)| <= d log(1 + s) with s the sum of |c_i|, i < d;
    # telescoping bounds the k-th term's distance to the limit
    p = IntPolynomial((*lower, 1))
    d = p.degree
    k = 6 if d == 2 else 4
    bound = d * math.log1p(sum(map(abs, lower))) / ((d - 1) * d ** k) + 1e-9
    x = Fraction(num, den)
    assert abs(canonical_height(p, x).total
               - exact_orbit_heights(p, x, k)[-1]) <= bound


# --------------------------------------------------------------------------- #
# height gap against the set height
# --------------------------------------------------------------------------- #


def _gap_and_gamma(p, e, probe):
    # |h_hat_P - h_E| at one probe, and the Klimek distance of K_P's Green
    # function (on 1024 Brolin atoms) to the set's, which bounds it
    a = AlgebraicNumber.of(probe)
    gap = abs(canonical_height(p, a).total - rumely_height(a, e).total)
    pair = GreenPair(side_from_map(p, brolin_sample(p, 1024).points), side_from_set(e))
    return gap, klimek_distance(pair)


def test_height_gap_squaring_disk():
    gap, gamma = _gap_and_gamma(Z2, CompactSetModel.disk(0.0, 1.0), 2)
    assert gap <= 1e-9
    assert gamma <= 1e-6


def test_height_gap_chebyshev_interval():
    seg = CompactSetModel.interval(-2.0, 2.0)
    for n in (2, 3, 4, 6):
        gap, gamma = _gap_and_gamma(chebyshev_monic(n), seg, 3)
        assert gap <= 1e-6
        assert gap <= gamma + HEIGHT_GAP_TOL


def test_height_gap_surrogates_towards_disk():
    # z^n + z
    disk = CompactSetModel.disk(0.0, 1.0)
    rows = [_gap_and_gamma(IntPolynomial((0, 1) + (0,) * (n - 2) + (1,)), disk, 2)
            for n in (2, 4, 8)]
    assert all(gap <= gamma + HEIGHT_GAP_TOL for gap, gamma in rows)
    gammas = [gamma for _, gamma in rows]
    assert gammas[0] > gammas[1] > gammas[2]


# --------------------------------------------------------------------------- #
# roots of unity have Rumely height zero on the unit circle
# --------------------------------------------------------------------------- #


def test_cyclotomic_minimality_on_circle():
    circle = CompactSetModel.circle(0.0, 1.0)
    for n in (8, 16, 64, 256):
        zeta = AlgebraicNumber.from_minpoly(cyclotomic(n))
        assert rumely_height(zeta, circle).total <= 1e-12
