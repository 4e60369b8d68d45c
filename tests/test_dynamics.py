"""Dynamical Green functions, Julia rasters, backward-orbit measure sampling.

Oracles: g for the squaring map is log+|z|; the degree-2 Chebyshev-type map
z^2 - 2 has the segment [-2,2] as filled set, with Green function
log|(z + sqrt(z-2)sqrt(z+2))/2| via the exterior conformal map.
"""

import cmath
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from feketedyn import dynamics
from feketedyn.polyarith import (
    IntPolynomial,
    RootFindingError,
    chebyshev_monic,
    cyclotomic,
    eval_intpoly,
    power_map,
    roots,
)
from feketedyn.dynamics import (
    DynGreenEvaluator,
    brolin_sample,
    julia_capacity,
    raster,
    write_pgm,
)
from feketedyn.heights import canonical_height
from feketedyn.metric import contraction_check, pullback, side_from_map
from feketedyn.potential import CompactSetModel, green_eval_many


def _interval_green(z):
    z = complex(z)
    w = (z + np.sqrt(complex(z - 2)) * np.sqrt(complex(z + 2))) / 2
    return max(0.0, math.log(abs(w)))


Z2 = IntPolynomial((0, 0, 1))
Z2M1 = IntPolynomial((-1, 0, 1))
Z2M2 = IntPolynomial((-2, 0, 1))
# 2T_64(z/2) + 1: coefficient mass above 2^30 and no closed form, so the
# exact plan steps it
NEAR = IntPolynomial((chebyshev_monic(64).coeffs[0] + 1,) + chebyshev_monic(64).coeffs[1:])


def _green_at(poly, z):
    # the Green value at one point, through the array form
    return DynGreenEvaluator(poly).green_many([z])[0][0]


def _plan(ev) -> str:
    # how the evaluator reads g: the Green function of [-2, 2] for
    # 2T_d(z/2) ("chebyshev"), else the escape loop stepped by numpy Horner
    # ("float") or by exact eval_intpoly ("exact")
    if ev.closed_form == "chebyshev":
        return "chebyshev"
    return "exact" if ev._exact else "float"


# ----------------------------------------------------------- green evaluator

@pytest.mark.parametrize("use", [
    DynGreenEvaluator,
    lambda p: brolin_sample(p, 64),
    lambda p: raster(p, (-2, 2, -2, 2), (16, 16)),
    lambda p: side_from_map(p, np.zeros(256, dtype=np.complex128)),
    lambda p: canonical_height(p, 2),
    lambda p: pullback(p, CompactSetModel.disk(0, 1)),
    lambda p: contraction_check(p, CompactSetModel.interval(-2, 2), CompactSetModel.disk(0, 1)),
    julia_capacity,
], ids=["evaluator", "brolin_sample", "raster", "side_from_map", "canonical_height",
        "pullback", "contraction_check", "julia_capacity"])
@pytest.mark.parametrize("poly", [[-1, 0, 1], np.array([-1, 0, 1], dtype=np.complex128)],
                         ids=["list", "complex-array"])
def test_map_of_another_type_is_refused(use, poly):
    # a map is an IntPolynomial: no second type evaluates it another way
    with pytest.raises(TypeError):
        use(poly)


def test_evaluator_fields():
    ev = DynGreenEvaluator(IntPolynomial((1, 0, 0, 2)))  # 2z^3 + 1
    assert ev.degree == 3
    assert ev.leading_abs == 2.0
    assert ev.escape_radius == 2.0  # max(2, (1+1)/2)
    assert -math.log(julia_capacity(ev.poly)) == pytest.approx(0.5 * math.log(2))
    ev2 = DynGreenEvaluator(Z2M2)
    assert ev2.escape_radius == pytest.approx(3.0)  # (1 + 2)/1
    with pytest.raises(ValueError):
        DynGreenEvaluator(IntPolynomial((1, 2)))  # degree 1
    with pytest.raises(ValueError, match="max_iter"):
        DynGreenEvaluator(Z2, max_iter=-1)
    # max_iter 0 still tests the escape radius at step 0
    vals, und = DynGreenEvaluator(Z2, max_iter=0).green_many([3.0, 0.5])
    assert vals[0] == pytest.approx(math.log(3), abs=1e-12) and not und[0]
    assert vals[1] == 0.0 and und[1]


def test_green_squaring_map_is_log_plus():
    assert _green_at(Z2, 3.0) == pytest.approx(math.log(3), abs=1e-12)
    assert _green_at(Z2, 0.5) == 0.0
    assert _green_at(Z2, 1e6) == pytest.approx(math.log(1e6), abs=1e-9)
    # complex probe
    assert _green_at(Z2, 1 + 1j) == pytest.approx(0.5 * math.log(2), abs=1e-12)


def test_green_z2m2_matches_interval_oracle():
    assert _green_at(Z2M2, 3.0) == pytest.approx(0.9624236501192069, abs=1e-9)
    assert _green_at(Z2M2, 1.5) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(64):
        z = complex(rng.uniform(-4, 4), rng.uniform(-3, 3))
        if abs(z.imag) < 0.05:
            z += 0.1j
        assert _green_at(Z2M2, z) == pytest.approx(_interval_green(z), abs=1e-6), z


def test_green_undecided_flag():
    ev = DynGreenEvaluator(Z2M1)
    vals, undecided = ev.green_many(np.array([0.0 + 0j, 3.0 + 0j]))
    assert vals[0] == 0.0 and undecided[0]
    assert vals[1] > 0.0 and not undecided[1]


def test_functional_equation_five_polys():
    polys = [Z2, Z2M1, Z2M2,
             IntPolynomial((0, -1, 0, 1)),   # z^3 - z
             IntPolynomial((1, 0, 0, 2))]    # 2z^3 + 1
    rng = np.random.default_rng(11)
    for p in polys:
        ev = DynGreenEvaluator(p)
        d = ev.degree
        zs = rng.uniform(-2, 2, 200) + 1j * rng.uniform(-2, 2, 200)
        gz, _ = ev.green_many(zs)
        gpz, _ = ev.green_many(p(zs))
        err = np.abs(gpz - d * gz)
        assert np.all(err <= 1e-7 * (1 + np.abs(gpz))), p.coeffs


random_int_maps = st.integers(2, 6).flatmap(
    lambda d: st.lists(st.integers(-5, 5), min_size=d, max_size=d).flatmap(
        lambda low: st.sampled_from([-3, -2, -1, 1, 2, 3]).map(
            lambda lead: IntPolynomial((*low, lead)))))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(random_int_maps, st.sampled_from(["float", "exact"]),
       st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-3, 1)),
                min_size=1, max_size=16))
def test_functional_equation_random_maps(p, plan, points):
    # g_P(P z) = d g_P(z) for random integer P, on both plans, at points
    # inside, near and up to ten times past the escape radius; the exact
    # plan is forced by a zero coefficient-mass threshold. Points flagged
    # undecided at z or at P z carry no value and are skipped
    with pytest.MonkeyPatch.context() as mp:
        if plan == "exact":
            mp.setattr(dynamics, "EXACT_EVAL_COEFF_SUM", 0)
        ev = DynGreenEvaluator(p)
    assert ev._exact == (plan == "exact")
    zs = np.array([ev.escape_radius * 10.0 ** s * complex(x, y) for x, y, s in points])
    pz = ev._step(zs)
    assume(np.isfinite(pz).all())
    gz, und_z = ev.green_many(zs)
    gpz, und_pz = ev.green_many(pz)
    ok = ~(und_z | und_pz)
    assert gpz[ok] == pytest.approx(ev.degree * gz[ok], rel=1e-12, abs=1e-12)


def test_far_field_asymptotics():
    # g(z) = log|z| + log|a_d|/(d-1) + o(1)
    for coeffs in ([0, 0, 1], [-1, 0, 1], [1, 0, 0, 2], [0, -1, 0, 1], [5, 1, 3]):
        p = IntPolynomial(tuple(coeffs))
        ev = DynGreenEvaluator(p)
        z = 1e6 * np.exp(0.3j)
        g = ev.green_many([z])[0][0]
        assert abs(g - math.log(1e6) + math.log(julia_capacity(p))) <= 1e-5, coeffs


def test_green_exact_eval_big_chebyshev():
    # coefficient sums beyond the float-safe window switch to exact evaluation;
    # points of [-2,2] then have exactly bounded orbits
    p = chebyshev_monic(64)
    ev = DynGreenEvaluator(p, max_iter=64)
    xs = np.linspace(-2, 2, 41)
    vals, _ = ev.green_many(xs.astype(np.complex128))
    assert np.max(vals) == 0.0
    # and an escaping probe still matches the interval oracle
    assert ev.green_many([3.0])[0][0] == pytest.approx(_interval_green(3.0), abs=1e-8)
    assert ev.green_many([2.5])[0][0] == pytest.approx(_interval_green(2.5), abs=1e-8)


def _escape_reference(poly, z) -> float:
    # g_P(z) = d^-k log|P^k(z)| for a monic P, up to O(|P^k(z)|^-2) once
    # |P^k(z)| > 10^60: the orbit in 60-digit arithmetic
    import mpmath
    with mpmath.workdps(60):
        w, k, coeffs = mpmath.mpc(z), 0, [mpmath.mpf(c) for c in poly.coeffs[::-1]]
        while abs(w) <= mpmath.mpf(10) ** 60:
            w, k = mpmath.polyval(coeffs, w), k + 1
        return float(mpmath.log(abs(w)) / mpmath.mpf(poly.degree) ** k)


@pytest.mark.parametrize("d", [2, 3, 64, 1024])
def test_chebyshev_green_is_the_segment_green(d):
    # K = [-2, 2] for 2T_d(z/2), so green_many returns the bits of that
    # segment's Green function: 0 on [-2, 2], the closed form near +-2 and
    # elsewhere, the far field at |z| >= 1e154, inf at infinity. Only a NaN
    # part sets the flag: no point of the plane is undecided
    seg = CompactSetModel.interval(-2.0, 2.0)
    samples = seg.boundary_samples
    ends = np.array([[2.0], [-2.0]])
    steps = np.array([1e-12, 4e-9, 1e-8, 1e-6, 1e-3])
    near = np.concatenate([(ends + np.sign(ends) * steps).ravel(),
                           (ends + 1j * steps).ravel(), ends.ravel() + 1e-300j,
                           [math.nextafter(2.0, 3.0), math.nextafter(-2.0, -3.0)]])
    far = np.array([1e154, -1e154j, 3e200 + 1e200j, 1.7e308 + 1.7e308j, -1.7e308 + 1e308j,
                    math.inf, -math.inf, complex(0.0, math.inf), complex(math.inf, math.inf)])
    nans = np.array([math.nan, complex(math.nan, 1.0), complex(0.5, math.nan),
                     complex(math.inf, math.nan)])
    rng = np.random.default_rng(d)
    grid = rng.uniform(-4, 4, 256) + 1j * rng.uniform(-3, 3, 256)
    zs = np.concatenate([samples, near, far, nans, grid])
    ev = DynGreenEvaluator(chebyshev_monic(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, und = ev.green_many(zs)
    assert vals.tobytes() == green_eval_many(seg, zs).tobytes()
    assert np.array_equal(und, np.isnan(zs))
    assert not vals[:len(samples)].any()
    assert np.all(ev.green_many(far[-4:])[0] == math.inf)


@pytest.mark.parametrize("n", [2, 64, 128])
def test_chebyshev_green_takes_no_step(monkeypatch, n):
    # 2T_n(z/2) never enters the escape loop, on either plan: with both
    # steps raising, green_many still gives log 2 at 5/2 and g(3), 0 with
    # the flag clear on [-2, 2] and just off it, and NaN flagged at NaN
    def refuse(*args):
        raise AssertionError("a Chebyshev map was stepped")

    monkeypatch.setattr(dynamics, "eval_intpoly", refuse)
    monkeypatch.setattr(dynamics, "horner", refuse)
    ev = DynGreenEvaluator(chebyshev_monic(n), max_iter=48)
    zs = np.array([2.5, 3, -2.01, 1e6, 2.0, -2.0, 0.5, math.nextafter(2.0, 3.0),
                   1.5 + 1e-300j, math.nan])
    vals, und = ev.green_many(zs)
    assert vals[:2] == pytest.approx([math.log(2), 0.9624236501192069], rel=1e-15)
    assert np.all(vals[2:4] > 0) and not vals[4:9].any() and math.isnan(vals[9])
    assert np.array_equal(und, np.isnan(zs))


def test_green_exact_plan_escape_overflow_undecided():
    # the exact plan through each exit of the escape loop, on a heavy map
    # with no closed form: the radius test at step 0 and after steps,
    # overflow of the first step, and max_iter with the orbit still
    # bounded. -1 -> 0 -> 3 is an integer orbit (P(-1) = 2 cos(128 pi/3) + 1
    # = 0, P(0) = 2 cos(32 pi) + 1 = 3), so 0 escapes at step 2 and -1 is
    # still bounded there
    ev = DynGreenEvaluator(NEAR, max_iter=2)
    assert _plan(ev) == "exact"
    by_radius = np.array([3e13, 3, 2.5, 0])
    by_overflow = np.array([1e6, 1e6 + 3e5j, 5e12, -2e9j])
    bounded = np.array([-1, 0.5 + 1e-3j])
    assert abs(by_radius[0]) > ev.escape_radius
    assert np.all(np.abs(by_overflow) <= ev.escape_radius)
    zs = np.concatenate([by_radius, by_overflow, bounded])
    vals, und = ev.green_many(zs)
    want = [_escape_reference(NEAR, z) for z in zs[:8]]
    assert vals[:8] == pytest.approx(want, rel=1e-14)
    assert not und[:8].any() and und[8:].all()
    assert np.all(vals[:8] > 0) and np.all(vals[8:] == 0.0)


@pytest.mark.parametrize("c0", [10 ** 8, 2 ** 31], ids=["float", "exact"])
def test_green_step_overflowing_in_modulus_only(c0):
    # z^40 + c0 maps z to a point whose parts are finite (about 1.5e308 each)
    # but whose modulus is not; the overflow branch takes it in log space
    p = IntPolynomial((c0,) + (0,) * 39 + (1,))
    z = np.exp((709.9 + 1j * math.pi / 4) / 40)
    step = complex(p(complex(z)))
    assert math.isfinite(step.real) and math.isfinite(step.imag)
    with pytest.raises(OverflowError):
        abs(step)
    ev = DynGreenEvaluator(p)
    assert ev._exact == (c0 > 2 ** 30) and abs(z) < ev.escape_radius
    vals, und = ev.green_many(np.array([z]))
    assert not und[0]
    assert vals[0] == pytest.approx(math.log(abs(z)), rel=1e-12)


@pytest.mark.parametrize("poly", [IntPolynomial((0, 0, 1)), NEAR], ids=["float", "exact"])
def test_green_input_overflowing_in_modulus(poly):
    # inputs with finite parts whose modulus is past the largest float escape
    # at step 0 with log|z| = log s + log|z/s|, s = max(|Re z|, |Im z|)
    ev = DynGreenEvaluator(poly)
    assert ev._exact == (poly.degree == 64)
    huge = np.array([1.7e308 + 1.7e308j, -1.7e308 + 1e308j])
    with pytest.raises(OverflowError):
        abs(complex(huge[1]))
    zs = np.concatenate([huge, [3.0, 0.5 + 1e-3j]])
    vals, und = ev.green_many(zs)
    log_s = math.log(1.7e308)
    want = [log_s + 0.5 * math.log(2), log_s + 0.5 * math.log(1 + (1 / 1.7) ** 2)]
    assert vals[:2] == pytest.approx(want, rel=1e-15)
    assert not und[:2].any()
    # the other points of the batch keep the values they have on their own
    alone, alone_und = ev.green_many(zs[2:])
    assert vals[2:].tobytes() == alone.tobytes()
    assert np.array_equal(und[2:], alone_und)


@pytest.mark.parametrize("poly, plan", [
    (Z2M1, "float"),
    (IntPolynomial((2 ** 31, 0, 1)), "exact"),
    (NEAR, "exact"),
    (chebyshev_monic(64), "chebyshev"),
], ids=["float", "horner", "near", "chebyshev"])
def test_green_nan_input_is_undecided(poly, plan):
    # a NaN part gives no Green value: NaN with the never-escaped flag, not
    # an escape (flag False) and not a plausible zero (value 0)
    ev = DynGreenEvaluator(poly, max_iter=48)
    assert _plan(ev) == plan
    nans = [math.nan, complex(math.nan, 1.0), complex(0.5, math.nan),
            complex(math.inf, math.nan)]
    zs = np.array(nans + [3.0, 0.5 + 1e-3j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, und = ev.green_many(zs)
    assert np.isnan(vals[:4]).all() and und[:4].all()
    # the other points of the batch keep the values they have on their own
    alone, alone_und = ev.green_many(zs[4:])
    assert vals[4:].tobytes() == alone.tobytes()
    assert np.array_equal(und[4:], alone_und)
    assert cmath.isnan(eval_intpoly(poly, complex(math.nan, 1.0)))


# inputs at the ends of the loop: NaN parts, an infinite part, moduli past
# the float maximum with finite parts, and huge finite points
_edge_points = [math.nan, complex(math.nan, 1.0), complex(math.inf, math.nan), math.inf,
                1.7e308 + 1.7e308j, -1.7e308 + 1e308j, 1e300, 1e154 + 1e154j]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.tuples(random_int_maps, st.sampled_from(["float", "exact"])),
                 st.sampled_from([(NEAR, "exact"), (chebyshev_monic(64), "chebyshev")])),
       st.lists(st.one_of(
           st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-3, 1)),
           st.floats(-2, 2).map(complex),
           st.sampled_from(_edge_points).map(complex)), min_size=1, max_size=12),
       st.data())
def test_green_many_point_ignores_its_batch(map_plan, points, data):
    # a point's value and flag do not depend on the other points of its
    # batch: any permutation or subset of a batch that mixes escaping,
    # bounded, NaN, overflowing and huge inputs reads the same bits. Tuples
    # are points inside, near and up to ten times past the escape radius;
    # the exact plan is forced by a zero coefficient-mass threshold, and a
    # random map that is 2T_d(z/2) takes the Green function of [-2, 2]
    p, plan = map_plan
    with pytest.MonkeyPatch.context() as mp:
        if plan == "exact":
            mp.setattr(dynamics, "EXACT_EVAL_COEFF_SUM", 0)
        ev = DynGreenEvaluator(p)
    assert _plan(ev) == ("chebyshev" if ev.closed_form == "chebyshev" else plan)
    zs = np.array([ev.escape_radius * 10.0 ** z[2] * complex(z[0], z[1])
                   if isinstance(z, tuple) else z for z in points])
    vals, und = ev.green_many(zs)
    perm = data.draw(st.permutations(range(len(zs))))
    subset = sorted(data.draw(st.sets(st.integers(0, len(zs) - 1), min_size=1)))
    for pick in (perm, subset):
        v, u = ev.green_many(zs[pick])
        assert v.tobytes() == vals[pick].tobytes(), (p.coeffs, zs, pick)
        assert np.array_equal(u, und[pick])


# ----------------------------------------------------------------- capacity

def test_julia_capacity_closed_forms():
    assert julia_capacity(Z2M2) == 1.0
    assert julia_capacity(IntPolynomial((0, 1, 0, 2))) == pytest.approx(2 ** -0.5, rel=1e-15)
    assert julia_capacity(IntPolynomial((0, 0, -3))) == pytest.approx(1 / 3, rel=1e-15)
    assert julia_capacity(IntPolynomial((0, 0, 3))) == pytest.approx(1 / 3, rel=1e-15)


def test_julia_capacity_obstruction_exact():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        coeffs = [int(c) for c in rng.integers(-9, 10, d + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = int(rng.integers(1, 10))
        p = IntPolynomial(tuple(coeffs))
        c = julia_capacity(p)
        assert c <= 1.0
        assert (c == 1.0) == (abs(p.leading) == 1)


# ------------------------------------------------------------------- raster

def test_raster_squaring_disk_area():
    ras = raster(Z2, (-2, 2, -2, 2), (256, 256))
    area = np.count_nonzero(ras.values == 0.0) * (4 / 256) * (4 / 256)
    assert area == pytest.approx(math.pi, rel=0.02)
    assert ras.values.shape == (256, 256)
    assert np.all(ras.values >= 0)


def test_raster_segment_thin():
    ras = raster(Z2M2, (-2.5, 2.5, -0.25, 0.25), (512, 64))
    member_rows = np.unique(np.nonzero(ras.values == 0.0)[0])
    assert len(member_rows) <= 2


def test_raster_conjugation_symmetry():
    ras = raster(Z2M1, (-2, 2, -1.5, 1.5), (128, 128))
    assert np.array_equal(ras.values, ras.values[::-1, :])
    assert 0 < np.count_nonzero(ras.values == 0.0) < 128 * 128


def test_pgm_output(tmp_path):
    ras = raster(Z2, (-2, 2, -2, 2), (64, 32))
    out = tmp_path / "julia.pgm"
    write_pgm(ras, out)
    data = out.read_bytes()
    assert data.startswith(b"P5\n64 32\n255\n")
    assert len(data) == len(b"P5\n64 32\n255\n") + 64 * 32
    side = json.loads((tmp_path / "julia.pgm.json").read_text())
    assert side["g_max"] == pytest.approx(float(np.max(ras.values)))
    assert side["resolution"] == [64, 32]


# ----------------------------------------------------------- Brolin sampling

def test_brolin_squaring_circle():
    m = brolin_sample(Z2, 4096, seed=123)
    assert len(m.points) == 4096
    r = np.abs(m.points)
    assert np.mean((r >= 0.99) & (r <= 1.01)) >= 0.99
    ang = np.angle(m.points)
    hist, _ = np.histogram(ang, bins=16, range=(-math.pi, math.pi))
    assert np.max(np.abs(hist / 4096 - 1 / 16)) <= 0.02


def test_brolin_z2m2_arcsine():
    m = brolin_sample(Z2M2, 4096, seed=5)
    assert np.all(m.points.imag == 0)
    x = m.points.real
    assert np.min(x) >= -2 - 1e-9 and np.max(x) <= 2 + 1e-9
    lo = np.mean((x >= -2) & (x <= -1.8))
    mid = np.mean((x >= -0.1) & (x <= 0.1))
    assert lo > 2 * mid


def test_brolin_potential_identity():
    # (1/N) sum log|z0 - atom| = g(z0) + log cap
    m = brolin_sample(Z2, 4096, seed=9)
    pot = float(np.mean(np.log(np.abs(2.5 - m.points))))
    assert pot == pytest.approx(_green_at(Z2, 2.5) + math.log(julia_capacity(Z2)), abs=0.01)


def test_brolin_deterministic_and_seed_sensitive():
    a = brolin_sample(Z2M1, 512, seed=42)
    b = brolin_sample(Z2M1, 512, seed=42)
    c = brolin_sample(Z2M1, 512, seed=43)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def _fail_roots_at(monkeypatch, call):
    """Make the call-th roots call of dynamics fail; returns the calls made."""
    calls = []
    solve = dynamics.roots

    def failing(p, tol):
        calls.append(p)
        if len(calls) == call:
            p = np.array([math.nan, 0, 1])
        return solve(p, tol=tol)

    monkeypatch.setattr(dynamics, "roots", failing)
    return calls


def test_brolin_error_names_step(monkeypatch):
    # calls 1 and 2 are the start solves; call 2 + k is backward step k - 1
    _fail_roots_at(monkeypatch, 2 + 7)
    with pytest.raises(RootFindingError, match="backward step 6: "):
        brolin_sample(Z2M1, 2048, seed=1)


@pytest.mark.parametrize("call", [1, 2], ids=["fixed-points", "start-preimages"])
def test_brolin_start_solve_error_is_no_backward_step(monkeypatch, call):
    # the fixed-point solve of P - z, then the preimages of z*
    calls = _fail_roots_at(monkeypatch, call)
    with pytest.raises(RootFindingError, match="^start solve failed: ") as info:
        brolin_sample(Z2M1, 2048, seed=1)
    assert "backward step" not in str(info.value)
    assert len(calls) == call


@pytest.mark.parametrize("poly", [
    cyclotomic(17), power_map(8), chebyshev_monic(64), IntPolynomial((1, -1, 1)),
], ids=["cyclotomic-17", "power-8", "chebyshev-64", "user-quadratic"])
def test_brolin_atoms_are_fibers(poly):
    # the atoms are whole fibers of d consecutive atoms, then 1,100 mod d
    # more: P sends each fiber to one image, through exact evaluation, which
    # 2T_64(z/2) needs, and that image is an atom of the fiber before
    d = poly.degree
    atoms = brolin_sample(poly, 1100, seed=4).points
    assert len(atoms) == 1100
    fibers = [atoms[lo:lo + d] for lo in range(0, 1100, d)]
    assert len(fibers[-1]) == (1100 % d or d)
    parent = None
    for k, fiber in enumerate(fibers):
        image = np.array([eval_intpoly(poly, complex(w)) for w in fiber])
        c = image[0]
        assert np.max(np.abs(image - c)) <= 1e-11 * (1.0 + abs(c)), k
        if parent is not None:
            assert np.min(np.abs(parent - c)) <= 1e-11 * (1.0 + abs(c)), k
        parent = fiber


@pytest.mark.parametrize("p", [17, 53, 101])
def test_brolin_whole_fibers_exact_moments(p):
    # the power sums of the roots of Phi_p - c are -1 below degree d = p - 1,
    # whatever c: on whole fibers, mean(w^m) = -1/d to rounding
    d = p - 1
    atoms = brolin_sample(cyclotomic(p), d * (1024 // d), seed=3).points
    for m in range(1, 9):
        assert abs(np.mean(atoms ** m) + 1.0 / d) <= 1e-14, m


def test_brolin_seeds_do_not_share_atoms():
    # one RNG stream per seed: the second half of seed 0 is not seed 1
    a = brolin_sample(Z2M1, 2048, seed=0).points
    b = brolin_sample(Z2M1, 2048, seed=1).points
    assert not np.array_equal(a[1024:], b[:1024])


def test_brolin_partial_last_fiber():
    # exactly n_points atoms when d does not divide it, the same on a rerun;
    # the last r atoms are preimages of an atom of the fiber before, picked
    # at random among all d, not the first r that the solver returns
    poly = cyclotomic(17)
    d, r = poly.degree, 1000 % poly.degree
    a = brolin_sample(poly, 1000, seed=6).points
    assert len(a) == 1000 and r != 0
    assert np.array_equal(a, brolin_sample(poly, 1000, seed=6).points)
    last, before = a[-r:], a[-r - d:-r]
    c = before[np.argmin(np.abs(before - eval_intpoly(poly, complex(last[0]))))]
    pre = dynamics._preimage_solver(DynGreenEvaluator(poly))(c)
    assert set(last.tolist()) <= set(pre.tolist())
    assert not np.array_equal(last, pre[:r])


@pytest.mark.parametrize("poly", [chebyshev_monic(5), power_map(5)],
                         ids=["chebyshev-5", "power-5"])
def test_closed_form_preimages_match_generic_roots(poly):
    # all d preimages, not only some: the same set as the Aberth roots of P - c
    closed = dynamics._preimage_solver(DynGreenEvaluator(poly))
    for c in (0.7 + 0.3j, -1.2, 2.5j):
        shifted = poly.complex_coeffs
        shifted[0] -= c
        mine = np.sort_complex(np.asarray(closed(c)))
        other = np.sort_complex(roots(shifted, tol=1e-9).roots)
        assert np.max(np.abs(mine - other)) <= 1e-8, c


def test_brolin_closed_forms_skip_root_finding(monkeypatch):
    # z^d and 2T_d(z/2) take closed-form preimages, z^2 - 1 Aberth roots
    def no_roots(*args, **kwargs):
        raise AssertionError("roots called")

    monkeypatch.setattr(dynamics, "roots", no_roots)
    for poly in (power_map(128), chebyshev_monic(2), chebyshev_monic(64)):
        assert len(brolin_sample(poly, 64, seed=2).points) == 64
    with pytest.raises(AssertionError, match="roots called"):
        brolin_sample(Z2M1, 64, seed=2)


def test_brolin_chebyshev_64_stays_on_segment():
    m = brolin_sample(chebyshev_monic(64), 1024, seed=17)
    assert np.all(m.points.imag == 0)
    assert np.max(np.abs(m.points.real)) <= 2


# a chain that starts on J keeps every atom on J: the largest Green value over
# 1,024 atoms is rounding (the 1e-9 maps take Aberth preimages)
@pytest.mark.parametrize("poly, bound", [
    (Z2, 1e-15), (Z2M2, 1e-15), (power_map(3), 1e-15), (power_map(4), 1e-15),
    (Z2M1, 1e-9), (IntPolynomial((-1, 0, 0, 1)), 1e-9), (IntPolynomial((0, 1, 0, 2)), 1e-9),
    (cyclotomic(5), 1e-9), (cyclotomic(17), 1e-9), (cyclotomic(53), 1e-9),
], ids=["z2", "z2-2", "z3", "z4", "z2-1", "z3-1", "2z3+z", "phi-5", "phi-17", "phi-53"])
def test_brolin_atoms_lie_on_julia_set(poly, bound):
    ev = DynGreenEvaluator(poly)
    for seed in range(4):
        g, _ = ev.green_many(brolin_sample(poly, 1024, seed=seed).points)
        assert np.max(g) <= bound, seed


@pytest.mark.parametrize("poly", [Z2M2, cyclotomic(17)], ids=["chebyshev-2", "cyclotomic-17"])
def test_brolin_atoms_are_distinct(poly):
    # the start is no fixed point, whose own fiber would bring the chain back
    # to it; 2T_2(z/2) from 2 reaches the fiber {0, 0}
    atoms = brolin_sample(poly, 1024, seed=0).points
    assert len(set(atoms.tolist())) == 1024


# ----------------------------------------- capacity consistency (atoms vs formula)

def test_capacity_from_brolin_atoms():
    from feketedyn.potential import capacity_estimate

    for coeffs in ([0, 0, 1], [-1, 0, 1], [-2, 0, 1], [0, -1, 0, 1], [1, 0, 0, 2]):
        p = IntPolynomial(tuple(coeffs))
        m = brolin_sample(p, 2048, seed=31)
        est = capacity_estimate(m.points, 256)
        assert est == pytest.approx(julia_capacity(p), rel=0.05), coeffs
