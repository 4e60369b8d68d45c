"""Compact set models: Fekete search, capacity, equilibrium, Green values."""

import cmath
import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from feketedyn import potential
from feketedyn.harness import build_set
from feketedyn.heights import AlgebraicNumber, rumely_height
from feketedyn.metric import pullback
from feketedyn.polyarith import IntPolynomial
from feketedyn.potential import (
    CompactSetModel,
    DiscreteMeasure,
    UnsupportedSetError,
    capacity_estimate,
    equilibrium_measure,
    fekete_points,
    green_eval_many,
    log_abs,
    transfinite_diameter_of_points,
)


def _interval_green(z):
    # independent oracle: exterior Joukowski map of [-2, 2]
    z = complex(z)
    w = (z + np.sqrt(z - 2) * np.sqrt(z + 2)) / 2
    return max(0.0, math.log(abs(w)))


# ------------------------------------------------------------------ closed forms

def test_capacity_closed_forms():
    assert CompactSetModel.interval(-2, 2).log_capacity == pytest.approx(0.0, abs=1e-12)
    assert CompactSetModel.interval(0, 1).log_capacity == pytest.approx(math.log(0.25), abs=1e-12)
    assert CompactSetModel.disk(0, 2).log_capacity == pytest.approx(math.log(2), abs=1e-12)
    assert CompactSetModel.circle(1 + 1j, 0.5).log_capacity == pytest.approx(math.log(0.5), abs=1e-12)


def test_boundary_sample_counts():
    assert len(CompactSetModel.interval(-2, 2).boundary_samples) == 4096
    two = CompactSetModel.union_of_intervals([(-2, -1), (1, 2)])
    assert len(two.boundary_samples) == 8192  # 4096 per connected component


def test_symmetry_flag():
    assert CompactSetModel.interval(-2, 2).symmetric
    assert CompactSetModel.disk(0, 1).symmetric
    assert not CompactSetModel.disk(1j, 1).symmetric


SQUARE = (-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j)
A, B, C = 1 + 1j, -1 + 2j, -2 + 0.5j


@pytest.mark.parametrize("build, symmetric", [
    (lambda: CompactSetModel.polyline_boundary(SQUARE), True),
    # the same square from another start vertex, and clockwise
    (lambda: CompactSetModel.polyline_boundary(SQUARE[2:] + SQUARE[:2]), True),
    (lambda: CompactSetModel.polyline_boundary(SQUARE[::-1]), True),
    (lambda: CompactSetModel.polyline_boundary([2, 1 + 1j, -1 + 1.5j, -1 - 1.5j, 1 - 1j]),
     True),
    (lambda: CompactSetModel.polyline_boundary([0, 1, 1j]), False),
    # imaginary parts that mirror, but not the points
    (lambda: CompactSetModel.polyline_boundary([-1j, 2 - 1j, 3 + 1j, 1 + 1j]), False),
    # a conjugation-closed vertex set whose edges a -> conj(a) -> b ... are not
    (lambda: CompactSetModel.polyline_boundary(
        [A, A.conjugate(), B, B.conjugate(), C, C.conjugate()]), False),
    # the square with a redundant vertex on its right edge: the conservative
    # answer, since the loop and its mirror no longer match vertex for vertex
    (lambda: CompactSetModel.polyline_boundary([*SQUARE[:2], 1 + 0.5j, *SQUARE[2:]]),
     False),
    # a pullback under a real P is symmetric exactly when its source is
    (lambda: pullback(IntPolynomial((0, 0, 1)), CompactSetModel.disk(0, 1)), True),
    (lambda: pullback(IntPolynomial((0, 0, 1)), CompactSetModel.disk(0.5j, 0.25)), False),
    (lambda: pullback(IntPolynomial((0, 0, 0, 1)), CompactSetModel.disk(0, 1)), True),
    (lambda: pullback(IntPolynomial((0, 0, 0, 1)), CompactSetModel.disk(0.5j, 0.25)),
     False),
], ids=["square", "square-other-start", "square-clockwise", "axis-pentagon",
        "triangle", "parallelogram", "conjugate-pairs-loop", "collinear-vertex",
        "pullback-z2-disk",
        "pullback-z2-off-axis-disk", "pullback-z3-disk", "pullback-z3-off-axis-disk"])
def test_symmetry_derived_from_samples(build, symmetric):
    assert build().symmetric is symmetric


def test_rumely_height_on_real_pullback_does_not_warn():
    # P^{-1}(unit disk) for P = z^3 is the unit disk: symmetric, capacity one
    e = pullback(IntPolynomial((0, 0, 0, 1)), CompactSetModel.disk(0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        rumely_height(AlgebraicNumber.from_rational(3), e)


def test_real_unions_are_symmetric():
    # a union of real segments is its own conjugate, whatever its position
    # on the real line
    one = CompactSetModel.union_of_intervals([(0, 4)])
    assert one.symmetric
    assert CompactSetModel.union_of_intervals([(1, 2), (3, 4)]).symmetric
    a = AlgebraicNumber.from_rational(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        rumely_height(a, one)


# ------------------------------------------------------------------ Fekete points

def test_fekete_interval_two_points_are_endpoints():
    e = CompactSetModel.interval(-2, 2)
    pts = fekete_points(e.boundary_samples, 2)
    assert np.allclose(np.sort(pts.real), [-2, 2], atol=1e-9)


def test_fekete_circle_four_points_form_square():
    e = CompactSetModel.circle(0, 1)
    pts = fekete_points(e.boundary_samples, 4)
    # pairwise distance product for a square inscribed in the unit circle is
    # n^(n/2) = 16, the roots-of-unity discriminant value
    prod = 1.0
    for i in range(4):
        for j in range(i + 1, 4):
            prod *= abs(pts[i] - pts[j])
    assert prod == pytest.approx(16.0, rel=1e-6)
    # square up to rotation: angles equally spaced
    ang = np.sort(np.mod(np.angle(pts), 2 * np.pi))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    assert np.allclose(gaps, np.pi / 2, atol=1e-2)


def test_fekete_disk_three_points_equilateral_on_boundary():
    e = CompactSetModel.disk(0, 1)
    pts = fekete_points(e.boundary_samples, 3)
    assert np.allclose(np.abs(pts), 1.0, atol=1e-9)
    prod = abs(pts[0] - pts[1]) * abs(pts[0] - pts[2]) * abs(pts[1] - pts[2])
    assert prod == pytest.approx(3 ** 1.5, rel=1e-4)


def _fekete_reference(cand, n):
    """The Fekete search written as a plain loop, with no cache: every
    log-distance row is computed where it is used, twice per position."""
    m = len(cand)
    with np.errstate(divide="ignore", invalid="ignore"):
        i0 = int(np.argmax(np.abs(cand - np.mean(cand))))
        chosen = [i0]
        running = np.log(np.abs(cand - cand[i0]))
        for _ in range(n - 1):
            i = int(np.argmax(running))
            chosen.append(i)
            running = running + np.log(np.abs(cand - cand[i]))
        idx = np.array(chosen)
        total = np.zeros(m)
        for i in idx:
            total += np.log(np.abs(cand - cand[i]))
        for _ in range(16):
            swapped = False
            for pos in range(n):
                zi = cand[idx[pos]]
                others = np.delete(idx, pos)
                own = float(np.sum(np.log(np.abs(cand[others] - zi))))
                t_wo = total - np.log(np.abs(cand - zi))
                best = int(np.nanargmax(t_wo))
                if t_wo[best] > own + 1e-12 and best not in idx:
                    total = t_wo + np.log(np.abs(cand - cand[best]))
                    idx[pos] = best
                    swapped = True
            if not swapped:
                break
    return cand[np.sort(idx)]


def _assert_same_fekete(samples, n):
    got = fekete_points(samples, n)
    want = _fekete_reference(samples, n)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def _segment_samples(intervals, samples):
    # samples points on each segment, in the order given: segments that
    # overlap share points, which union_of_intervals would merge away
    return np.concatenate([np.linspace(a, b, samples) for a, b in intervals]).astype(complex)


def _repeated_cloud():
    # 600 points rounded to a 0.05 grid, so many coincide
    rng = np.random.default_rng(7)
    pts = rng.normal(size=600) + 1j * rng.normal(size=600)
    return np.round(pts / 0.05) * 0.05


def _bench_square():
    # the square of perfbench's sampled_sets at seed 1, rotated by its
    # seeded angle, at the default 4096 samples
    theta = float(np.random.default_rng(1).uniform(0.0, math.pi / 2))
    return CompactSetModel.polyline_boundary([v * cmath.exp(1j * theta) for v in SQUARE])


def _bench_union():
    # a union with no closed form, at its default 2 x 4096 samples
    return CompactSetModel.union_of_intervals([(-2.5, -1), (1, 3)])


FEKETE_SETS = {
    "union": lambda: CompactSetModel.union_of_intervals(
        [(-2, -1), (1, 2)], samples=1024).boundary_samples,
    # the two sample grids share points where the intervals overlap
    "overlapping-union": lambda: _segment_samples([(-1, 1), (0.5, 2)], 4096),
    "interval": lambda: CompactSetModel.interval(-1.5, 2.5, samples=1024).boundary_samples,
    "disk": lambda: CompactSetModel.disk(0.3 + 0.2j, 1.7, samples=1024).boundary_samples,
    "rotated-polyline": lambda: CompactSetModel.polyline_boundary(
        [v * np.exp(0.7j) for v in (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)],
        samples=1024).boundary_samples,
    "repeated-cloud": _repeated_cloud,
    # the searches log_capacity makes at the benchmark's geometry
    "bench-square": lambda: _bench_square().boundary_samples,
    "bench-union": lambda: _bench_union().boundary_samples,
}
# the rungs each set is searched at, where not the default four
FEKETE_RUNGS = {"bench-square": (128, 256), "bench-union": (256,)}


@pytest.mark.parametrize("name, n", [
    (name, n) for name in sorted(FEKETE_SETS) for n in FEKETE_RUNGS.get(name, (2, 3, 64, 256))
])
def test_fekete_matches_reference_loop(name, n):
    s = FEKETE_SETS[name]()
    if name in ("overlapping-union", "repeated-cloud"):
        assert len(np.unique(s)) < len(s)
    _assert_same_fekete(s, n)


def _reference_log_capacity(samples):
    """log_capacity's two-rung extrapolation, from d_128 and d_256 of the
    reference loop."""
    l1, l2 = (math.log(transfinite_diameter_of_points(_fekete_reference(samples, n)))
              for n in (128, 256))
    t1, t2 = math.log(128) / 128, math.log(256) / 256
    return (t1 * l2 - t2 * l1) / (t1 - t2)


def test_log_capacity_is_reference_two_rung_value():
    e = _bench_square()
    assert e.log_capacity == _reference_log_capacity(e.boundary_samples)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_fekete_refuses_non_finite_samples(bad):
    # a NaN sample gave the points [0, 0, nan] and capacity nan, an inf one
    # [inf, inf, inf]
    samples = np.array([0, 1, bad, 2, 3], dtype=complex)
    with pytest.raises(ValueError, match="must be finite"):
        fekete_points(samples, 3)
    with pytest.raises(ValueError, match="must be finite"):
        capacity_estimate(samples, 3)


# aligned grids: every interval has the same length and a dyadic sample step,
# and starts on that step, so overlapping intervals share sample points
aligned_unions = st.tuples(
    st.integers(2, 4), st.integers(2, 64),
    st.lists(st.integers(-40, 40), min_size=1, max_size=3),
).map(lambda t: _segment_samples(
    [(k * 2.0 ** -t[0], (k + t[1]) * 2.0 ** -t[0]) for k in t[2]], t[1] + 1))
free_unions = st.lists(
    st.tuples(st.floats(-4, 4), st.floats(0.05, 3)), min_size=1, max_size=3,
).flatmap(lambda ivs: st.integers(2, 600 // len(ivs)).map(
    lambda k: _segment_samples([(a, a + w) for a, w in ivs], k)))
# points of a coarse grid drawn with repetition; at least two distinct
grid_clouds = st.integers(2, 600).flatmap(lambda k: st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=k, max_size=k),
).filter(lambda ps: len(set(ps)) >= 2).map(
    lambda ps: np.array([complex(x, y) / 4 for x, y in ps]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(aligned_unions, free_unions, grid_clouds), st.integers(2, 48))
def test_fekete_matches_reference_loop_on_random_sets(samples, n):
    _assert_same_fekete(samples, min(n, len(samples)))


# ------------------------------------------------------------ capacity estimates

def test_capacity_estimate_circle_closed_form():
    e = CompactSetModel.circle(0, 1)
    # d_16 = 16^(1/15) for the unit circle
    assert capacity_estimate(e.boundary_samples, 16) == pytest.approx(16 ** (1 / 15), rel=1e-4)


def _lobatto_dn_interval(n: int) -> float:
    # exact Fekete points of an interval: endpoints + zeros of P'_{n-1}
    from numpy.polynomial import legendre

    c = np.zeros(n)
    c[-1] = 1.0
    r = legendre.legroots(legendre.legder(c))
    pts = np.concatenate([[-1.0], r, [1.0]]) * 2.0
    diff = np.abs(pts[:, None] - pts[None, :])
    iu = np.triu_indices(n, 1)
    return float(np.exp(2 * np.sum(np.log(diff[iu])) / (n * (n - 1))))


def test_capacity_estimate_interval_matches_lobatto_oracle():
    e = CompactSetModel.interval(-2, 2)
    assert capacity_estimate(e.boundary_samples, 64) == pytest.approx(_lobatto_dn_interval(64), rel=1e-4)
    # slow convergence toward cap = 1 from above
    assert 1.0 < capacity_estimate(e.boundary_samples, 128) < 1.05


def test_capacity_estimate_monotone_in_n():
    for e in (CompactSetModel.circle(0, 1), CompactSetModel.interval(-2, 2),
              CompactSetModel.disk(0, 2)):
        ladder = [capacity_estimate(e.boundary_samples, n) for n in (4, 8, 16, 32, 64)]
        for lo, hi in zip(ladder[1:], ladder[:-1]):
            assert lo <= hi + 1e-9, (e.kind, ladder)


def test_capacity_estimate_two_intervals():
    # independent closed form: cap([-b,-a] u [a,b]) = sqrt(b^2 - a^2) / 2
    e = CompactSetModel.union_of_intervals([(-2, -1), (1, 2)])
    target = math.sqrt(3) / 2
    est = capacity_estimate(e.boundary_samples, 128)
    assert target - 0.005 <= est <= target * 1.06


# ------------------------------------------------------------ mirror pairs

def _mirror_probes(e):
    # random points around the set, and points 1e-3 off its samples
    rng = np.random.default_rng(2)
    c = complex(np.mean(e.boundary_samples))
    box = c + rng.uniform(-4, 4, 500) + 1j * rng.uniform(-2, 2, 500)
    return np.concatenate([box, e.boundary_samples[::64] + 1e-3j])


def _no_fekete_search(*args):
    raise AssertionError("fekete_points called")


def test_mirror_union_is_the_square_preimage_of_an_interval(monkeypatch):
    # [0, 1] u [3, 4], given in reverse order, is the preimage of [1, 4]
    # under (z - 2)^2: log cap = log cap [1, 4] / 2 and
    # g(z) = g_[1, 4]((z - 2)^2) / 2, with no Fekete search
    monkeypatch.setattr(potential, "fekete_points", _no_fekete_search)
    e = CompactSetModel.union_of_intervals([(3, 4), (0, 1)])
    image = CompactSetModel.interval(1.0, 4.0)
    assert abs(e.log_capacity - image.log_capacity / 2) <= 1e-15
    z = _mirror_probes(e)
    want = green_eval_many(image, (z - 2) ** 2) / 2
    assert np.max(np.abs(green_eval_many(e, z) - want)) <= 1e-15
    # samples and params are sorted
    assert e.params == {"intervals": [(0.0, 1.0), (3.0, 4.0)]}
    assert e.boundary_samples[0] == 0.0 and e.boundary_samples[-1] == 4.0


def test_touching_mirror_union_is_the_interval(monkeypatch):
    # A = 0: [-2, 0] u [0, 2] is [-2, 2]
    monkeypatch.setattr(potential, "fekete_points", _no_fekete_search)
    e = CompactSetModel.union_of_intervals([(-2, 0), (0, 2)])
    seg = CompactSetModel.interval(-2, 2)
    assert abs(e.log_capacity - seg.log_capacity) <= 1e-15
    z = _mirror_probes(e)
    assert np.max(np.abs(green_eval_many(e, z) - green_eval_many(seg, z))) <= 1e-15


@pytest.mark.parametrize("build", [
    lambda: CompactSetModel.union_of_intervals([(-2, 2)]),
    lambda: CompactSetModel.union_of_intervals([(-2, 1), (0, 2)]),
    lambda: CompactSetModel.union_of_intervals([(-2, 0), (0, 2)]),
    lambda: build_set({"kind": "union_of_intervals", "intervals": [-2, 2]}),
    lambda: build_set({"kind": "union_of_intervals", "intervals": [-2, 1, 0, 2]}),
    lambda: build_set({"kind": "union_of_intervals", "intervals": [[0, 2], [-2, 0]]}),
], ids=["one", "overlapping", "touching", "block-one", "block-overlapping",
        "block-touching"])
def test_a_union_that_is_one_segment_is_the_interval(build):
    # [-2, 2] written as a union took the Fekete path: capacity 0.998
    e, seg = build(), CompactSetModel.interval(-2, 2)
    assert (e.kind, e.params) == (seg.kind, seg.params) == ("interval", {"a": -2.0, "b": 2.0})
    assert e.boundary_samples.tobytes() == seg.boundary_samples.tobytes()
    assert e.log_capacity == seg.log_capacity == 0.0
    z = _mirror_probes(seg)
    assert green_eval_many(e, z).tobytes() == green_eval_many(seg, z).tobytes()
    assert equilibrium_measure(e).points.tobytes() == equilibrium_measure(seg).points.tobytes()


@pytest.mark.parametrize("intervals", [
    [(-3, -2.5), (-1, 0.5), (1, 2)], [(-2, -1), (1, 2)], [(-1, 1), (0.5, 2), (3, 4)],
], ids=["sampled", "mirror-pair", "overlapping"])
def test_a_union_does_not_depend_on_the_order_of_its_intervals(intervals):
    want = CompactSetModel.union_of_intervals(intervals, samples=256)
    z = _mirror_probes(want)
    for order in itertools.permutations(intervals):
        e = CompactSetModel.union_of_intervals(order, samples=256)
        assert (e.kind, e.params) == (want.kind, want.params)
        assert e.boundary_samples.tobytes() == want.boundary_samples.tobytes()
        assert e.log_capacity == want.log_capacity
        assert green_eval_many(e, z).tobytes() == green_eval_many(want, z).tobytes()
        assert (equilibrium_measure(e).points.tobytes()
                == equilibrium_measure(want).points.tobytes())


@pytest.mark.parametrize("intervals", [
    [(-math.sqrt(5), -1), (1, math.sqrt(5))], [(0, 1), (3, 4)], [(-2, 0), (0, 2)],
    [(-1e200, -1e199), (1e199, 1e200)],
], ids=["sqrt5", "shifted", "touching", "past-float-max-squares"])
def test_mirror_pair_atoms_have_the_moments_of_its_equilibrium_measure(monkeypatch, intervals):
    # mu_E is the arcsine law on [A^2, B^2] pulled back under (z - c)^2,
    # half to each square root: the mean of (z - c)^2j is the law's j-th
    # moment, and odd moments vanish. The pair's atoms were a Fekete search,
    # E[z] 1.3e-3 and E[z^2] 6.6e-3 off on [-sqrt 5, -1] u [1, sqrt 5] at
    # 1,024 samples
    monkeypatch.setattr(potential, "fekete_points", _no_fekete_search)
    (a1, b1), (a2, b2) = intervals
    c, half_gap, half_pair = (a1 + b2) / 2, (a2 - b1) / 2, (b2 - a1) / 2
    x = (equilibrium_measure(CompactSetModel.union_of_intervals(intervals)).points - c) / half_pair
    # in units of B the law lives on [alpha, 1], and its j-th moment is the
    # sum over even k of C(j, k) m^(j - k) r^k C(k, k/2) / 2^k, for its
    # centre m and half-width r
    alpha = (half_gap / half_pair) ** 2
    m, r = (1 + alpha) / 2, (1 - alpha) / 2
    eps = np.finfo(float).eps * (1 + abs(c) / half_pair)
    for j in range(1, potential.EQUILIBRIUM_N):
        want = sum(math.comb(j, k) * m ** (j - k) * r ** k * math.comb(k, k // 2) / 2 ** k
                   for k in range(0, j + 1, 2))
        assert abs(np.mean(x ** (2 * j)) - want) <= 8 * j * eps * want, j
        assert abs(np.mean(x ** (2 * j - 1))) <= 8 * j * eps, j


@pytest.mark.parametrize("intervals", [
    [(-2, 0), (0, 2)], [(-2, -1), (1, 2)], [(1, 2.5), (3.5, 5)], [(1, 4)], [(-3, 0.5)],
], ids=["touching", "centred", "shifted", "interval-1-4", "interval-minus-3-0.5"])
def test_mirror_union_green_keeps_its_digits_near_the_centre_and_ends(intervals):
    # against 50 digits: g = |log|t|| / 2 for t + 1/t = 2W, W the image of
    # (z - c)^2 in [A^2, B^2] mapped to [-1, 1] (A = 0 for one interval);
    # with W formed in floats from (z - c)^2, g is 2.2e-11 off at 1e-6 i on
    # [-2, 0] u [0, 2], and with w = (2z - a - b) / (b - a) 6.3e-13 off near
    # the ends of [1, 4] and [-3, 0.5]
    import mpmath
    if len(intervals) == 1:
        (a1, b2), = intervals
        b1 = a2 = (a1 + b2) / 2
    else:
        (a1, b1), (a2, b2) = intervals
    c, half_gap, half_pair = (a1 + b2) / 2, (a2 - b1) / 2, (b2 - a1) / 2
    e = CompactSetModel.union_of_intervals(intervals)
    z = np.array([base + r * cmath.exp(1j * (k * math.pi / 6 + 0.1))
                  for base in (c, a1, b1, a2, b2)
                  for r in (1e-7, 1e-6, 1e-5, 1e-4) for k in range(12)])

    def exact(p):
        lo, hi = mpmath.mpf(half_gap) ** 2, mpmath.mpf(half_pair) ** 2
        w = (2 * (mpmath.mpc(p.real, p.imag) - c) ** 2 - lo - hi) / (hi - lo)
        return float(abs(mpmath.log(abs(w + mpmath.sqrt(w - 1) * mpmath.sqrt(w + 1)))) / 2)

    with mpmath.workdps(50):
        want = np.array([exact(p) for p in z])
    assert np.max(np.abs(green_eval_many(e, z) - want)) <= 1e-15


def test_mirror_union_with_overflowing_squares_takes_its_closed_form(monkeypatch):
    # B^2 = 1e400 is past the float range, where the closed form in B^2 - A^2
    # gave log cap NaN; cap = sqrt(B^2 - A^2) / 2 with A = 1e199, B = 1e200
    monkeypatch.setattr(potential, "fekete_points", _no_fekete_search)
    e = CompactSetModel.union_of_intervals([(-1e200, -1e199), (1e199, 1e200)], samples=256)
    exact = math.log(1e200) + 0.5 * math.log1p(-0.01) - math.log(2)
    assert e.log_capacity == pytest.approx(exact, rel=1e-15, abs=0)


def test_segment_sets_whose_end_sums_overflow(monkeypatch):
    # a + b overflows: the interval keeps its exact capacity, and its atoms
    # are finite (they were inf)
    monkeypatch.setattr(potential, "fekete_points", _no_fekete_search)
    # the mean of the samples, which sets the membership tolerance, overflows
    with np.errstate(over="ignore", invalid="ignore"):
        e = CompactSetModel.interval(1e308, 1.7e308)
        # e0 + e3 and e1 + e2 both overflow, but this is no mirror pair
        pair = CompactSetModel.union_of_intervals(
            [(1e308, 1.1e308), (1.5e308, 1.7e308)], samples=64)
    assert e.log_capacity == pytest.approx(math.log(0.7e308 / 4), rel=1e-15, abs=0)
    assert np.isfinite(equilibrium_measure(e).points).all()
    with pytest.raises(AssertionError, match="fekete_points called"):
        pair.log_capacity


def _reference_polyline_samples(vertices, samples):
    # the arc-length walk, one sample at a time
    verts = np.asarray([complex(v) for v in vertices], dtype=np.complex128)
    loop = np.concatenate([verts, verts[:1]])
    cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(loop)))])
    out = []
    for s in cum[-1] * np.arange(samples) / samples:
        k = min(int(np.searchsorted(cum, s, side="right")) - 1, len(loop) - 2)
        seg_len = cum[k + 1] - cum[k]
        frac = 0.0 if seg_len == 0 else (s - cum[k]) / seg_len
        out.append(complex(loop[k] + frac * (loop[k + 1] - loop[k])))
    return np.array(out)


@pytest.mark.parametrize("samples", [3, 17, 4096])
@pytest.mark.parametrize("vertices", [
    SQUARE,
    [v * np.exp(0.7j) for v in SQUARE],
    list(np.random.default_rng(4).normal(size=7) + 1j * np.random.default_rng(5).normal(size=7)),
    [0, 1, 1, 1j],
], ids=["square", "rotated-square", "random-7-gon", "repeated-vertex"])
def test_polyline_samples_match_reference_walk(vertices, samples):
    got = CompactSetModel.polyline_boundary(vertices, samples).boundary_samples
    assert got.tobytes() == _reference_polyline_samples(vertices, samples).tobytes()


# --------------------------------------------------------------- equilibrium

def test_a_measure_is_its_atoms():
    assert [f.name for f in dataclasses.fields(DiscreteMeasure)] == ["points"]
    m = DiscreteMeasure([1, 2j, 2j])
    assert m.weights.tobytes() == np.full(3, 1.0 / 3).tobytes()
    with pytest.raises(ValueError, match="at least one atom"):
        DiscreteMeasure([])


@pytest.mark.parametrize("build", [
    lambda: CompactSetModel.interval(0, 4),
    lambda: CompactSetModel.disk(3, 1),
    lambda: CompactSetModel.circle(1 + 1j, 2),
], ids=["interval", "disk", "circle"])
def test_closed_form_kinds_carry_their_equilibrium_measure(monkeypatch, build):
    monkeypatch.setattr(potential, "fekete_points", _no_fekete_search)
    assert len(equilibrium_measure(build()).points) == potential.EQUILIBRIUM_N


@settings(max_examples=40, deadline=None)
@given(st.floats(-10, 10), st.floats(-2, 1.3))
def test_interval_atoms_have_the_arcsine_moments(a, log_width):
    # Gauss-Chebyshev: the mean of T_m over the atoms, moved onto [-1, 1],
    # is 0 for 1 <= m < 128, up to the rounding of the move
    b = a + 10 ** log_width
    mid, half = (a + b) / 2, (b - a) / 2
    x = (equilibrium_measure(CompactSetModel.interval(a, b)).points.real - mid) / half
    m = np.arange(1, 128)
    moments = np.polynomial.chebyshev.chebvander(x, 127).mean(axis=0)[1:]
    assert np.all(np.abs(moments) <= 4 * np.finfo(float).eps * m ** 2 * (1 + abs(mid) / half))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["disk", "circle"]), st.floats(-10, 10), st.floats(-10, 10),
       st.floats(-2, 1), st.integers(256, 4096))
def test_round_atoms_have_the_uniform_moments(kind, re, im, log_r, samples):
    # equal atoms on the circle, however it is sampled: the mean of
    # (z - c)^m is 0 for 1 <= m < 64
    c, r = complex(re, im), 10 ** log_r
    e = getattr(CompactSetModel, kind)(c, r, samples=samples)
    u = (equilibrium_measure(e).points - c) / r
    m = np.arange(1, 64)
    moments = np.array([np.mean(u ** k) for k in m])
    assert np.all(np.abs(moments) <= 4 * np.finfo(float).eps * m * (1 + abs(c) / r))


def test_equilibrium_measure_uniform_weights():
    e = CompactSetModel.circle(0, 1)
    m = equilibrium_measure(e)
    assert np.allclose(m.weights, 1 / 64, atol=1e-15)
    assert abs(np.sum(m.weights) - 1.0) <= 1e-12
    assert abs(np.sum(m.weights * m.points)) < 0.05  # first moment near zero


def test_equilibrium_measure_interval_arcsine_histogram():
    e = CompactSetModel.interval(-2, 2)
    m = equilibrium_measure(e)
    edges = np.linspace(-2, 2, 9)
    hist, _ = np.histogram(m.points.real, bins=edges)
    frac = hist / 64
    arcsine = np.diff(np.arcsin(edges / 2)) / np.pi
    assert np.max(np.abs(frac - arcsine)) <= 0.08


# ------------------------------------------------------------------- Green values

def test_green_interval_against_joukowski_oracle():
    e = CompactSetModel.interval(-2, 2)
    for z in (3.0, -2.5, 1j, 2 + 1j, 0.5 + 0.25j, -1 - 3j, 5.0):
        assert green_eval_many(e, [z])[0] == pytest.approx(_interval_green(z), abs=1e-6), z


def test_green_value_at_three():
    e = CompactSetModel.interval(-2, 2)
    assert green_eval_many(e, [3.0])[0] == pytest.approx(0.9624236501192069, abs=1e-6)


def test_green_clamps_to_zero_inside():
    e = CompactSetModel.interval(-2, 2)
    assert green_eval_many(e, [0.7])[0] == 0.0
    assert green_eval_many(e, [-2.0])[0] == 0.0
    d = CompactSetModel.disk(0, 1)
    assert green_eval_many(d, [0.3 + 0.4j])[0] == 0.0
    c = CompactSetModel.circle(0, 1)
    assert green_eval_many(c, [0.0])[0] == 0.0  # hull of the circle is the disk


def test_green_disk_matches_log_plus():
    d = CompactSetModel.disk(0, 1)
    for r in (1.2, 1.5, 2.0, 3.0):
        assert green_eval_many(d, [r])[0] == pytest.approx(math.log(r), abs=1e-5)
    big = CompactSetModel.disk(0, 2)
    assert green_eval_many(big, [4.0])[0] == pytest.approx(math.log(2.0), abs=1e-6)


def test_green_far_field_asymptotics():
    rng = np.random.default_rng(3)
    for e in (CompactSetModel.interval(-2, 2), CompactSetModel.disk(0, 1),
              CompactSetModel.circle(0, 1), CompactSetModel.union_of_intervals([(-2, -1), (1, 2)])):
        diam = 4.0
        z = (2 * diam + 1) * np.exp(2j * np.pi * rng.random(20)) * (1 + rng.random(20))
        g = green_eval_many(e, z)
        expected = np.log(np.abs(z)) - e.log_capacity
        assert np.max(np.abs(g - expected)) <= 0.02, e.kind


def test_green_nonnegative_everywhere():
    e = CompactSetModel.interval(-2, 2)
    rng = np.random.default_rng(11)
    z = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)
    assert np.min(green_eval_many(e, z)) >= 0.0


def test_green_interval_is_finite_near_float_max():
    # 2 z overflowed: 72 of these 512 points gave NaN, and dynamical_fs with
    # epsilon = 1e308 wrote "delta": NaN
    e = CompactSetModel.interval(-2, 2)
    ring = e.probe_ring(1e308)
    g = green_eval_many(e, ring)
    assert np.isfinite(g).all()
    # capacity 1: g(z) = log|z| + O(|z|^-2)
    assert g == pytest.approx(np.log(np.abs(ring)), rel=1e-14)


def _far_field_kinds():
    # one model of each of the six kinds, with its far-field centre c (the
    # mean of its boundary samples, as green_eval_many takes it) and a radius
    # R with E inside D(c, R)
    square = [0, 2, 2 + 1j, 1j]
    kinds = {
        "interval": CompactSetModel.interval(-1.0, 3.0),
        "disk": CompactSetModel.disk(0.5 + 0.5j, 2.0),
        "circle": CompactSetModel.circle(-1j, 0.5),
        "union-of-intervals": CompactSetModel.union_of_intervals(
            [(-2.0, -1.0), (0.5, 2.0)], samples=256),
        "polyline-boundary": CompactSetModel.polyline_boundary(square, samples=512),
        "pullback": pullback(IntPolynomial((-1, 0, 1)), CompactSetModel.interval(-2.0, 2.0)),
    }
    out = {}
    for name, e in kinds.items():
        c = complex(np.mean(e.boundary_samples))
        hull = np.concatenate([e.boundary_samples, square]) if name == "polyline-boundary" \
            else e.boundary_samples
        # the pullback's samples come from 2,048 source points: pad R for the gaps
        out[name] = (e, c, 1.01 * float(np.max(np.abs(hull - c))))
    return out


FAR_FIELD_KINDS = _far_field_kinds()
# points whose parts are both near the float maximum
FLOAT_MAX_CORNERS = [1.7e308 + 1.7e308j, -1.7e308 + 1.7e308j, -1.7e308 - 1e308j,
                     1.79e308 - 1.79e308j, 1.7e308 + 0j, -1.7e308j]


def _far_field_point(c, theta, log_r):
    # c + r e^(i theta) with log r = log_r, its parts formed in log space so
    # that |z - c| may pass the float maximum; None when a part overflows
    with np.errstate(over="ignore"):
        parts = [math.copysign(float(np.exp(log_r + math.log(abs(t)))), t)
                 if t else 0.0 for t in (math.cos(theta), math.sin(theta))]
    z = c + complex(*parts)
    return z if cmath.isfinite(z) else None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(FAR_FIELD_KINDS)),
       st.one_of(
           st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 1)).map(lambda t: ("polar", t)),
           st.sampled_from(FLOAT_MAX_CORNERS).map(lambda z: ("corner", z))))
def test_green_far_field_bound_past_float_max(name, point):
    # g_E(z) = log|z - c| - log cap E + err, |err| <= -log(1 - R/|z - c|) for E
    # in D(c, R): for every kind, from |z - c| = 2R to past the float maximum.
    # Disk, circle and the sampled kinds gave inf once |z - c| overflowed, and
    # a pullback a clamped value once P(z) did
    e, c, big_r = FAR_FIELD_KINDS[name]
    how, arg = point
    if how == "corner":
        z = arg
    else:
        theta, s = arg
        lo, hi = math.log(2 * big_r), 710.5
        z = _far_field_point(c, theta, lo + s * (hi - lo))
        assume(z is not None)
    zc = np.array([z - c])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = green_eval_many(e, [z])[0]
        far = float(log_abs(zc)[0]) - e.log_capacity
    assert math.isfinite(g), (name, z)
    bound = -math.log1p(-math.exp(math.log(big_r) - float(log_abs(zc)[0])))
    assert abs(g - far) <= bound + 4 * np.spacing(abs(far)), (name, z, g, far)


@pytest.mark.parametrize("name", sorted(FAR_FIELD_KINDS) + ["mirror-pair"])
def test_green_is_infinite_at_infinity(name):
    # g_E = inf at every infinite point, for every kind: the interval, the
    # mirror pair and the pullback gave NaN there, where their closed forms
    # meet inf - inf. A point with a NaN part still reads NaN
    e = (CompactSetModel.union_of_intervals([(-2.5, -1.0), (1.0, 2.5)])
         if name == "mirror-pair" else FAR_FIELD_KINDS[name][0])
    infs = [math.inf, -math.inf, complex(0.0, math.inf), complex(math.inf, math.inf)]
    nans = [math.nan, complex(math.nan, 1.0), complex(0.5, math.nan)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = green_eval_many(e, infs + nans)
    assert np.all(g[:4] == math.inf), (name, g)
    assert np.isnan(g[4:]).all(), (name, g)


def test_sample_mean_past_the_float_maximum():
    # the mean of these samples overflowed, so the membership tolerance was
    # inf: contains_many put 0 and -1e308 in the hull, and g read 0 at 0,
    # where it is arccosh((a + b) / (b - a)) = arccosh(27/7) = 2.026
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = CompactSetModel.interval(1e308, 1.7e308)
        assert not e.contains_many(np.array([0.0, -1e308])).any()
        assert e.contains_many(np.array([1e308, 1.35e308, 1.7e308])).all()
        g = green_eval_many(e, [0.0])[0]
    assert g == e._green_fn(np.array([0j]))[0] == pytest.approx(math.acosh(27 / 7), rel=1e-14)
    assert potential._mean(e.boundary_samples) == pytest.approx(1.35e308, rel=1e-15)
    # a sum that fits keeps np.mean's bits, down to a disk of radius 1e-306
    for f in (FAR_FIELD_KINDS[k][0] for k in sorted(FAR_FIELD_KINDS)):
        assert potential._mean(f.boundary_samples) == np.mean(f.boundary_samples)
    tiny = CompactSetModel.disk(3e-306, 1e-306).boundary_samples
    assert potential._mean(tiny) == np.mean(tiny)


def test_log_abs():
    z = np.array([3 + 4j, 0.5, -1e-300j, 1.7e308 + 1.7e308j, -1.7e308 + 1e308j,
                  complex(math.inf, 1), complex(math.nan, 1)])
    with np.errstate(over="ignore"):
        mag, hyp = np.abs(z), np.hypot(z.real, z.imag)
    got = log_abs(z)
    # np.log(|z|) bit for bit wherever |z| is finite, and for a non-finite part
    keep = [0, 1, 2, 5, 6]
    assert got[keep].tobytes() == np.log(mag[keep]).tobytes()
    log_s = math.log(1.7e308)
    assert got[3] == pytest.approx(log_s + 0.5 * math.log(2), rel=1e-16)
    assert got[4] == pytest.approx(log_s + 0.5 * math.log1p((1 / 1.7) ** 2), rel=1e-16)
    # a given modulus, such as np.hypot's, is taken as it is, and still
    # replaced where it overflowed
    assert log_abs(z, hyp)[keep].tobytes() == np.log(hyp[keep]).tobytes()
    assert log_abs(z, hyp)[3:5].tobytes() == got[3:5].tobytes()


# kinds with a closed-form Green function, and a pullback of one
EXACT_HULL_KINDS = {
    "interval": CompactSetModel.interval(-2.0, 2.0),
    "disk": CompactSetModel.disk(0, 1),
    "circle": CompactSetModel.circle(0, 1),
    "pullback": pullback(IntPolynomial((-1, 0, 1)), CompactSetModel.interval(-2.0, 2.0)),
    "mirror-union": CompactSetModel.union_of_intervals(
        [(-2.5, -1.0), (1.0, 2.5)], samples=256),
}
# kinds whose Green function is a Fekete potential minus a sampled log cap;
# the union is no mirror pair, which would take the closed form
SAMPLED_HULL_KINDS = {
    "union-of-intervals": CompactSetModel.union_of_intervals(
        [(-2.5, -1.0), (1.0, 3.0)], samples=256),
    "polyline-boundary": CompactSetModel.polyline_boundary(
        [0, 2, 2 + 1j, 1j], samples=512),
}
HULL_KINDS = {**EXACT_HULL_KINDS, **SAMPLED_HULL_KINDS}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(HULL_KINDS)), st.floats(0, 1), st.floats(0, 2 * math.pi),
       st.one_of(st.floats(0, 4).map(lambda k: ("near", k)),
                 st.floats(0, 1).map(lambda s: ("far", s))))
def test_green_zero_exactly_on_the_hull(name, at, theta, offset):
    # g_E(z) = 0 wherever contains_many puts z in the hull, and for the exact
    # kinds only there: at points up to four membership tolerances from a
    # boundary sample, and at random points of a box three times the set's
    # size. The interval's and the round kinds' own bands once gave about
    # 1.5e-9 inside the tolerance. The sampled kinds' converse fails (see
    # test_sampled_green_positive_off_the_hull)
    e = HULL_KINDS[name]
    s = e.boundary_samples
    how, k = offset
    if how == "near":
        z = s[int(at * (len(s) - 1))] + k * _reference_tol(e) * cmath.exp(1j * theta)
    else:
        c = complex(np.mean(s))
        z = c + 3 * k * float(np.max(np.abs(s - c))) * cmath.exp(1j * theta)
    zero = green_eval_many(e, [z])[0] == 0.0
    inside = e.contains_many(np.array([z]))[0]
    assert zero if inside else not (zero and name in EXACT_HULL_KINDS), (name, z)


@pytest.mark.xfail(strict=True, reason="a sampled Green function reads 0 up to "
                   "about 0.1 off the hull, where its Fekete potential falls "
                   "below the sampled log capacity (ROADMAP item 2)")
@pytest.mark.parametrize("name", sorted(SAMPLED_HULL_KINDS))
def test_sampled_green_positive_off_the_hull(name):
    # points 1e-3 outside the hull, off each boundary sample: the union's
    # straight up, the convex polyline's away from its centre
    e = HULL_KINDS[name]
    s = e.boundary_samples
    c = complex(np.mean(s))
    z = s + 1e-3j if name == "union-of-intervals" else s + 1e-3 * (s - c) / np.abs(s - c)
    assert not e.contains_many(z).any()
    assert (green_eval_many(e, z) > 0).all()


SQUARE_SOURCE = CompactSetModel.interval(1.0, 4.0)
SQUARE_PULLBACK = pullback(IntPolynomial((0, 0, 1)), SQUARE_SOURCE)


def test_pullback_hull_at_points_that_are_no_samples():
    # the nearest-sample rule put 1.5, which is no boundary sample, outside
    z = np.array([1.5, -1.5, 1.0, 2.0, 0.5, 1.5 + 1e-3j])
    assert SQUARE_PULLBACK.contains_many(z).tolist() == [True] * 4 + [False] * 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_pullback_hull_is_the_preimage_of_the_source_hull(x, y):
    # P^{-1}E contains z exactly when E contains P(z)
    z = np.array([complex(x, y)])
    assert np.array_equal(SQUARE_PULLBACK.contains_many(z), SQUARE_SOURCE.contains_many(z ** 2))


# ------------------------------------------------------------------ geometry

def test_distance_to_set():
    e = CompactSetModel.interval(-2, 2)
    d = e.distance_to_many(np.array([3 + 4j, 1.0]))
    assert d[0] == pytest.approx(math.sqrt(17), abs=1e-12) and d[1] == 0.0
    c = CompactSetModel.circle(0, 1)
    assert c.distance_to_many(np.array([2.0, 0.0])) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert c.hull_distance_to_many(np.array([0.0]))[0] == 0.0


def _reference_tol(e):
    # 1e-9 * max(1, 2 max|s - mean(s)|) over the complex boundary samples s
    s = e.boundary_samples
    return 1e-9 * max(1.0, float(np.max(np.abs(s - np.mean(s)))) * 2)


def _reference_geometry(e, z):
    """Membership and distance by kind, written out independently of the
    model; polylines test a ray crossing plus a vertex band, and their
    distance is the nearest boundary sample."""
    s = e.boundary_samples
    tol = _reference_tol(e)
    nearest = np.min(np.abs(z[..., None] - s[None, :]), axis=-1)
    if e.kind == "interval":
        ivs = [(e.params["a"], e.params["b"])]
    elif e.kind == "union-of-intervals":
        ivs = e.params["intervals"]
    if e.kind in ("interval", "union-of-intervals"):
        inside = np.zeros(z.shape, dtype=bool)
        dists = []
        for a, b in ivs:
            inside |= (np.abs(z.imag) <= tol) & (z.real >= a - tol) & (z.real <= b + tol)
            dx = np.maximum(np.maximum(a - z.real, z.real - b), 0.0)
            dists.append(np.hypot(dx, z.imag))
        return inside, np.min(np.stack(dists), axis=0)
    if e.kind in ("disk", "circle"):
        c, r = e.params["center"], e.params["radius"]
        if e.kind == "disk":
            return np.abs(z - c) <= r + tol, np.maximum(np.abs(z - c) - r, 0.0)
        return np.abs(z - c) <= r + tol, np.abs(np.abs(z - c) - r)
    if e.kind == "polyline-boundary":
        verts = e.params["vertices"]
        loop = np.concatenate([verts, verts[:1]])
        inside = np.zeros(z.shape, dtype=bool)
        for k in range(len(verts)):
            x1, y1 = loop[k].real, loop[k].imag
            x2, y2 = loop[k + 1].real, loop[k + 1].imag
            crosses = (y1 > z.imag) != (y2 > z.imag)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (z.imag - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (z.real < xint)
        near = np.min(np.abs(z[..., None] - loop[None, :-1]), axis=-1) <= tol
        return inside | near, nearest
    return nearest <= tol, nearest


GEOMETRY_SETS = {
    "interval": lambda: CompactSetModel.interval(-1.5, 2.5, samples=512),
    "disk": lambda: CompactSetModel.disk(0.3 + 0.2j, 1.7, samples=512),
    "circle": lambda: CompactSetModel.circle(-1 + 0.5j, 0.8, samples=512),
    "union": lambda: CompactSetModel.union_of_intervals(
        [(-3.0, -1.2), (0.5, 2.0)], samples=256),
    "polyline": lambda: CompactSetModel.polyline_boundary(
        [2 + 0j, 0.5 + 0.5j, 1j * 2, -1.5 + 0.25j, -0.5 - 1.5j], samples=512),
}


@pytest.mark.parametrize("name", sorted(GEOMETRY_SETS))
def test_geometry_matches_reference_formulas(name):
    e = GEOMETRY_SETS[name]()
    s = e.boundary_samples
    lo = complex(np.min(s.real) - 1, np.min(s.imag) - 1)
    hi = complex(np.max(s.real) + 1, np.max(s.imag) + 1)
    xs = np.linspace(lo.real, hi.real, 37)
    ys = np.linspace(lo.imag, hi.imag, 29)
    grid = (xs[None, :] + 1j * ys[:, None]).ravel()
    # boundary points nudged in eight directions by 1e-10 and by just under
    # and just over the membership tolerance, plus the samples and vertices
    pins = s[::8]
    if e.kind == "polyline-boundary":
        pins = np.concatenate([pins, e.params["vertices"]])
    steps = np.array([1e-10, 0.9 * _reference_tol(e), 1.1 * _reference_tol(e)])
    nudges = (steps[:, None] * np.exp(2j * np.pi * np.arange(8) / 8)).ravel()
    near = np.concatenate([pins, (pins[:, None] + nudges[None, :]).ravel()])
    z = np.concatenate([grid, near])
    inside, dist = _reference_geometry(e, z)
    assert np.array_equal(e.contains_many(z), inside)
    assert np.array_equal(e.distance_to_many(z), dist)
    assert np.array_equal(e.hull_distance_to_many(z), np.where(inside, 0.0, dist))
    # the point set and its near copies must exercise both answers
    assert inside[len(grid):].any()


def test_point_cloud_kind():
    # a point cloud is a plain sample array to the Fekete search
    pts = np.exp(2j * np.pi * np.arange(512) / 512)
    assert abs(capacity_estimate(pts, 64) - 1.0) < 0.08


def test_polyline_square():
    verts = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]
    e = CompactSetModel.polyline_boundary(verts)
    assert e.contains_many(np.array([0.0, 2.0])).tolist() == [True, False]
    # cap(square of side a) = a * Gamma(1/4)^2 / (4 pi^(3/2))
    target = 2 * math.gamma(0.25) ** 2 / (4 * math.pi ** 1.5)
    assert capacity_estimate(e.boundary_samples, 128) == pytest.approx(target, rel=0.05)


def _reference_ring(e, eps, m=512):
    # the containment ring as the experiment harness built it from kind and
    # params before sets carried their own
    if e.kind in ("disk", "circle"):
        c, r = e.params["center"], e.params["radius"]
        th = 2 * np.pi * np.arange(m) / m
        return c + (r + eps) * np.exp(1j * th)
    if e.kind == "interval":
        pairs = [(e.params["a"], e.params["b"])]
    else:
        pairs = e.params["intervals"]
    per = max(8, m // (4 * len(pairs)))
    chunks = []
    for a, b in pairs:
        xs = np.linspace(a, b, per)
        left = a + eps * np.exp(1j * np.linspace(np.pi / 2, 3 * np.pi / 2, per))
        right = b + eps * np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, per))
        chunks.extend([xs + 1j * eps, xs - 1j * eps, left, right])
    ring = np.concatenate(chunks)
    dist = e.hull_distance_to_many(ring)
    keep = np.abs(dist - eps) <= 1e-9 * max(1.0, eps)
    return ring[keep] if np.any(keep) else ring


@pytest.mark.parametrize("e", [
    CompactSetModel.disk(0, 1),
    CompactSetModel.circle(0.5 - 0.25j, 1.5),
    CompactSetModel.interval(-2, 2),
    # stadia of radius 0.3 around segments 0.2 apart overlap
    CompactSetModel.union_of_intervals([(-2, -0.1), (0.1, 2)]),
], ids=["disk", "circle", "interval", "union"])
def test_probe_ring_matches_reference(e):
    for eps in (0.1, 0.3):
        ring = e.probe_ring(eps)
        assert np.array_equal(ring, _reference_ring(e, eps))
        assert np.allclose(e.hull_distance_to_many(ring), eps, atol=1e-9)


def test_probe_ring_needs_a_ring_kind():
    square = CompactSetModel.polyline_boundary([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    with pytest.raises(UnsupportedSetError):
        square.probe_ring(0.1)


@pytest.mark.parametrize("build", [
    lambda: CompactSetModel.interval(0.0, math.inf),
    lambda: CompactSetModel.disk(0, math.nan),
    lambda: CompactSetModel.circle(complex(math.inf, 0), 1.0),
    lambda: CompactSetModel.union_of_intervals([(-2, -1), (1, math.inf)]),
    lambda: CompactSetModel.polyline_boundary([0, 1, complex(math.nan, 0)]),
    lambda: CompactSetModel.polyline_boundary([0, 1, complex(0, math.inf)]),
], ids=["interval-inf", "disk-radius", "circle-center", "union", "polyline-nan",
        "polyline-inf"])
def test_catalog_sets_refuse_non_finite_parameters(build):
    # a NaN radius gave capacity nan and an infinite end capacity inf
    with pytest.raises(ValueError, match="must be finite"):
        build()
