"""Integer/rational polynomial layer: exact structures, root finding, generators."""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feketedyn import polyarith
from feketedyn.dynamics import DynGreenEvaluator
from feketedyn.polyarith import (
    IntPolynomial,
    RootFindingError,
    chebyshev_monic,
    cyclotomic,
    eval_intpoly,
    power_map,
    roots,
    runaway_drift,
    runaway_family,
)

# the frozen reference pipeline sits beside this file, under any import mode
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from aberth_reference import roots as reference_roots  # noqa: E402


def _sorted_roots(rs):
    z = np.asarray(rs.roots)
    return z[np.lexsort((z.imag, z.real))]


# ---------------------------------------------------------------- IntPolynomial

def test_int_polynomial_basic_algebra():
    p = IntPolynomial((-2, 0, 1))  # z^2 - 2, ascending coefficients
    assert p.degree == 2
    assert p.leading == 1
    assert p(2) == 2
    assert p(Fraction(5, 2)) == Fraction(17, 4)
    q = IntPolynomial((1, 1))  # z + 1
    assert (p * q).coeffs == (-2, -2, 1, 1)
    assert (p + q).coeffs == (-1, 1, 1)


def test_int_polynomial_trims_trailing_zeros():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1


def test_complex_coeffs_is_a_fresh_copy():
    # callers write into their copy (P - c): a write must not reach the next
    p = IntPolynomial((-2, 0, 1))
    first = p.complex_coeffs
    assert first.dtype == np.complex128 and first.tolist() == [-2, 0, 1]
    first[0] -= 5
    assert p.complex_coeffs.tolist() == [-2, 0, 1]
    assert p.complex_coeffs is not p.complex_coeffs


def test_int_polynomial_content_and_sign():
    p = IntPolynomial((-4, 0, -6))
    assert p.content == 2
    prim = p.primitive_normalized()
    # content removed, leading coefficient made positive
    assert prim.coeffs == (2, 0, 3)


def test_text_format_round_trip():
    # ascending whitespace-separated integers: "c0 c1 ... cd"
    p = IntPolynomial.from_text("-2 0 1")
    assert p.coeffs == (-2, 0, 1)
    assert p.to_text() == "-2 0 1"
    assert IntPolynomial.from_text(p.to_text()) == p
    assert IntPolynomial.from_text("1\n0\t-2  0 1").coeffs == (1, 0, -2, 0, 1)


def test_big_rational_is_exact():
    x = Fraction(10**40, 2 * 10**40)
    assert x == Fraction(1, 2)
    assert x + Fraction(1, 3) == Fraction(5, 6)


# ---------------------------------------------------------------------- roots

def test_roots_quadratic_against_formula():
    # independent oracle: quadratic formula for z^2 - z - 1
    golden = (1 + math.sqrt(5)) / 2
    rs = roots(IntPolynomial((-1, -1, 1)))
    got = sorted(r.real for r in rs.roots)
    assert abs(got[0] - (1 - math.sqrt(5)) / 2) < 1e-12
    assert abs(got[1] - golden) < 1e-12
    assert max(abs(r.imag) for r in rs.roots) < 1e-12
    assert rs.residual_bound <= 1e-10


def test_roots_of_unity():
    # z^8 - 1: the 8th roots of unity, all modulus 1
    p = IntPolynomial((-1,) + (0,) * 7 + (1,))
    rs = roots(p)
    assert len(rs.roots) == 8
    mods = np.abs(np.asarray(rs.roots))
    assert np.max(np.abs(mods - 1.0)) < 1e-12
    angles = np.sort(np.mod(np.angle(np.asarray(rs.roots)), 2 * np.pi))
    assert np.allclose(angles, np.arange(8) * np.pi / 4, atol=1e-10)


def test_roots_zero_factor_and_multiplicity():
    rs = roots(IntPolynomial((0, -1, 0, 1)))  # z^3 - z = z(z-1)(z+1)
    got = _sorted_roots(rs)
    assert np.allclose(got, [-1.0, 0.0, 1.0], atol=1e-12)
    # an array's trailing zero coefficients are trimmed, not a leading zero
    assert np.array_equal(roots([0, -1, 0, 1, 0, 0]).roots, rs.roots)

    rs2 = roots(IntPolynomial((0, 0, 3)))  # 3z^2: double root at 0
    assert len(rs2.roots) == 2
    assert np.max(np.abs(np.asarray(rs2.roots))) < 1e-6
    assert rs2.max_modulus < 1e-6


def test_roots_reports_max_modulus():
    rs = roots(runaway_family(6))
    assert 10.9 < rs.max_modulus < 11.0


def test_roots_expand_round_trip_random():
    # rebuild coefficients from computed roots; degree <= 12, roots in |z| <= 2
    rng = np.random.default_rng(7)
    for _ in range(20):
        deg = int(rng.integers(2, 13))
        true = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
        true = true[np.abs(true) <= 2.0]
        if len(true) < 2:
            continue
        coeffs = np.array([1.0 + 0j])
        for r in true:
            coeffs = np.convolve(coeffs, [-r, 1.0])
        rs = roots(coeffs)  # convolution built them ascending already
        rebuilt = np.array([1.0 + 0j])
        for r in rs.roots:
            rebuilt = np.convolve(rebuilt, [-r, 1.0])
        scale = np.max(np.abs(coeffs))
        assert np.max(np.abs(rebuilt - coeffs)) <= 1e-8 * scale


def test_roots_high_degree_cyclotomic():
    rs = roots(cyclotomic(101))
    assert len(rs.roots) == 100
    assert np.max(np.abs(np.abs(np.asarray(rs.roots)) - 1.0)) < 1e-9
    assert rs.residual_bound <= 1e-10


def test_roots_rejects_constant():
    with pytest.raises((ValueError, RootFindingError)):
        roots(IntPolynomial((5,)))
    with pytest.raises(ValueError, match="nonzero leading"):
        roots(np.array([[1, 1], [1, 0]]))


def test_roots_rejects_nonfinite_certificate():
    # NaN or inf input gives a NaN certificate, which must fail: a
    # "bound > tol" test would pass it
    for coeffs in ([math.nan, 1, 0, 1], [math.inf, 1, 0, 1]):
        with pytest.raises(RootFindingError, match="scaled residual nan"):
            roots(coeffs)


def test_roots_huge_constant_converges():
    # z^4 + 1e300 has |z| = 1e75, beyond the 10^(250/4) start clip; the row
    # is solved in a scaled variable and certified on its own coefficients
    rs = roots([1e300, 0, 0, 0, 1])
    assert rs.residual_bound <= 1e-10
    assert np.allclose(np.abs(rs.roots), 1e75, rtol=1e-9)
    want = 1e75 * np.exp(1j * np.pi * np.array([-3, -1, 1, 3]) / 4)
    gap = np.abs(np.asarray(rs.roots)[:, None] - want[None, :])
    assert np.all(np.min(gap, axis=0) <= 1e-9 * 1e75)


def test_roots_tiny_constant_is_not_a_plausible_zero():
    # z^4 + 1e-300 has four roots of modulus 1e-75, far closer together
    # than sqrt(tol); an absolute merge radius collapsed them to 0
    rs = roots([1e-300, 0, 0, 0, 1])
    assert rs.residual_bound <= 1e-10
    assert np.allclose(np.abs(rs.roots), 1e-75, rtol=1e-9)
    want = 1e-75 * np.exp(1j * np.pi * np.array([-3, -1, 1, 3]) / 4)
    gap = np.abs(np.asarray(rs.roots)[:, None] - want[None, :])
    assert np.all(np.min(gap, axis=0) <= 1e-9 * 1e-75)


def test_roots_small_pair_beside_double_zero():
    # z^4 + 1e-12 z^2 = z^2 (z - 1e-6 i)(z + 1e-6 i)
    got = np.asarray(roots([0, 0, 1e-12, 0, 1]).roots)
    assert np.array_equal(got[1:3], [0, 0])
    assert np.allclose(got[[0, 3]], [-1e-6j, 1e-6j], rtol=0, atol=1e-18)


def test_roots_stack_with_one_clipped_row():
    # the clipped row takes the scaled solve; the other rows keep the
    # unscaled path and give the same bits as a stack without it
    ordinary = np.array([[-1, 0, 0, 0, 1], [2, -3, 0, 0, 1], [0, 5, 1, 0, 1]],
                        dtype=np.complex128)
    stack = np.insert(ordinary, 1, [1e300, 0, 0, 0, 1], axis=0)
    rs = roots(stack)
    assert rs.residual_bound <= 1e-10
    assert np.allclose(np.abs(rs.roots[1]), 1e75, rtol=1e-9)
    assert np.array_equal(np.delete(rs.roots, 1, axis=0), roots(ordinary).roots)


def test_residual_certificate_at_a_large_root():
    # (z - R)^2 - e^2: the pair R +- e merges into R at tol 1e-4, so the
    # certificate is exactly |P(R)| / (1 + |c0| + |c1| R + R^2), with no
    # |z|^(d+1) term in the denominator
    big, e = 2.0**10, 2.0**-8
    rs = roots([big * big - e * e, -2 * big, 1], tol=1e-4)
    assert np.array_equal(rs.roots, [big, big])
    assert rs.residual_bound == pytest.approx(e * e / (1 + 4 * big * big - e * e), rel=1e-12)


def test_roots_stack_error_names_row():
    good = [-1, 0, 0, 1]
    with pytest.raises(RootFindingError, match="row 1 of a stack of 3"):
        roots(np.array([good, [math.nan, 0, 0, 1], good]))


def test_roots_stack_shape_and_sweeps():
    # Phi_53(w) - c for 64 values of c on the unit circle, solved in one
    # stack; starts on the Cauchy circle take about 30 sweeps per row
    base = cyclotomic(53).complex_coeffs
    stack = np.repeat(base[None, :], 64, axis=0)
    stack[:, 0] -= np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    rs = roots(stack, tol=1e-9)
    assert rs.roots.shape == (64, 52)
    assert isinstance(rs.residual_bound, float)
    assert rs.residual_bound <= 1e-9
    assert 0 < rs.iterations <= 20


def test_roots_stack_slices_match_one_slice(monkeypatch):
    # a budget of two rows per slice splits the stack into three solves
    stack = np.array([[-1, 0, 0, 0, 1], [2, -3, 0, 0, 1], [0, 5, 1, 0, 1],
                      [1j, 0, 2, 0, 1], [-7, 1, 1, 1, 1]], dtype=np.complex128)
    whole = roots(stack)
    monkeypatch.setattr(polyarith, "_STACK_BYTES", 2 * 16 * 4 * 5)
    sliced = roots(stack)
    assert np.array_equal(sliced.roots, whole.roots)
    assert sliced.residual_bound == whole.residual_bound
    assert sliced.iterations == whole.iterations


def test_roots_does_not_import_numpy_ma():
    # numpy.unique imports numpy.ma on first use, a cost every command-line
    # run that solves roots would pay; a fresh interpreter shows the import
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys\nfrom feketedyn.polyarith import roots\n"
            "roots([1, 0, 1])\nprint('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


# fixed examples keep the suite deterministic
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
int_coeffs = st.integers(3, 20).flatmap(
    lambda d: st.lists(st.integers(-20, 20), min_size=d + 1, max_size=d + 1)
).filter(lambda c: c[-1] != 0)
shifts = st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                     allow_infinity=False), min_size=1, max_size=6)


@PROPERTY
@given(int_coeffs, shifts)
def test_stacked_roots_match_row_by_row(coeffs, cs):
    stack = np.repeat(np.array(coeffs, dtype=np.complex128)[None, :], len(cs) + 1, axis=0)
    stack[:-1, 0] -= cs
    stack[-1, 0] = 0.0  # an exact zero constant term
    rs = roots(stack)
    assert rs.roots.shape == (len(cs) + 1, len(coeffs) - 1)
    assert rs.residual_bound <= 1e-10
    for row, got in zip(stack, rs.roots):
        one = roots(row)
        assert one.residual_bound <= 1e-10
        # a row's solve does not depend on the rows stacked with it
        assert np.array_equal(one.roots, got)
    assert np.any(rs.roots[-1] == 0)


def _assert_same_solve(p, tol=1e-10):
    # roots and the frozen reference agree bit for bit, or raise alike
    try:
        want = reference_roots(p, tol)
    except RootFindingError as err:
        with pytest.raises(RootFindingError) as got:
            roots(p, tol)
        assert str(got.value) == str(err)
        return
    got = roots(p, tol)
    assert np.array_equal(got.roots, want.roots)
    assert got.roots.tobytes() == want.roots.tobytes()  # and the signs of zeros
    assert got.residual_bound == want.residual_bound
    assert got.iterations == want.iterations


@st.composite
def coefficient_stacks(draw):
    # (K, d+1) rows of mixed magnitudes, some with exact zero constants
    d = draw(st.integers(1, 20))
    scale = st.sampled_from([1e-8, 1e-3, 1.0, 1.0, 1.0, 1e3, 1e8])
    part = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = [draw(part) * draw(scale) for _ in range(d + 1)]
        n_zero = min(d, draw(st.sampled_from([0, 0, 0, 1, 2, d])))
        row[:n_zero] = [0j] * n_zero
        if row[-1] == 0:
            row[-1] = 1.0
        rows.append(row)
    return np.array(rows, dtype=np.complex128)


@PROPERTY
@given(coefficient_stacks())
def test_roots_match_frozen_reference(stack):
    _assert_same_solve(stack)
    for row in stack:
        _assert_same_solve(row)


@PROPERTY
@given(st.sampled_from([5, 12, 17, 53]),
       st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=4))
def test_roots_match_frozen_reference_on_shifted_cyclotomics(n, cs):
    # Phi_n - c, the backward step of the cyclotomic Brolin chains
    stack = np.repeat(cyclotomic(n).complex_coeffs[None, :], len(cs), axis=0)
    stack[:, 0] -= cs
    _assert_same_solve(stack, tol=1e-9)
    for row in stack:
        _assert_same_solve(row, tol=1e-9)


@pytest.mark.parametrize("p", [
    pytest.param([2, 3], id="degree-1"),
    pytest.param([1, 0, 1], id="degree-2"),
    pytest.param([0, 0, 3], id="degree-2-double-zero"),
    pytest.param([1j, 2, -1], id="degree-2-complex"),
    pytest.param([0, 0, 1e-12, 0, 1], id="zeros-beside-small-pair"),
    # past the start clip: the rescaled solve
    pytest.param([1e300, 0, 0, 0, 1], id="wide-huge"),
    pytest.param([1e-300, 0, 0, 0, 1], id="wide-tiny"),
    # radii spanning more than twice the clip: raises
    pytest.param([1e-200, 1, 0, 0, 0, 1e-100], id="unscalable"),
    pytest.param([math.nan, 0, 0, 1], id="nan"),
    # double roots merge into one value
    pytest.param([2, -3, 0, 1], id="double-real-root"),
    pytest.param(np.poly([1 + 1j, 1 + 1j, -2, 0.5j])[::-1], id="double-complex-root"),
    pytest.param(IntPolynomial((-1,) + (0,) * 6 + (1,)), id="z7-minus-1"),
    pytest.param(runaway_family(14), id="runaway-14"),
    pytest.param(np.array([[-1, 0, 0, 0, 1], [1e300, 0, 0, 0, 1], [0, 5, 1, 0, 1],
                           [2, -3, 0, 0, 1], [0, 0, 0, 0, 1]], dtype=np.complex128),
                 id="stack-wide-and-zeros"),
    pytest.param(np.zeros((0, 4), dtype=np.complex128), id="empty-stack"),
])
def test_roots_match_frozen_reference_on_edge_rows(p):
    _assert_same_solve(p)


def test_sliced_stack_matches_frozen_reference(monkeypatch):
    # slices of two rows each against the reference's single slice
    stack = np.array([[-1, 0, 0, 0, 1], [2, -3, 0, 0, 1], [0, 5, 1, 0, 1],
                      [1j, 0, 2, 0, 1], [-7, 1, 1, 1, 1]], dtype=np.complex128)
    want = reference_roots(stack)
    monkeypatch.setattr(polyarith, "_STACK_BYTES", 2 * 16 * 4 * 5)
    got = roots(stack)
    assert got.roots.tobytes() == want.roots.tobytes()
    assert got.residual_bound == want.residual_bound
    assert got.iterations == want.iterations


# ---------------------------------------------------------- exact evaluation

def _dyadic(num, k):
    return math.ldexp(num, -k)  # exact: |num| <= 2^53


def _oracle_real(coeffs, x):
    # 2^(kd) P(num / 2^k) as one integer, then the same rounding as eval_intpoly
    num, den = x.as_integer_ratio()
    k, d = den.bit_length() - 1, len(coeffs) - 1
    return polyarith._big_to_float(
        sum(c * num**i << k * (d - i) for i, c in enumerate(coeffs)), -k * d)


def _oracle_complex(coeffs, z):
    (nr, dr), (ni, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    k, d = max(dr, di).bit_length() - 1, len(coeffs) - 1
    a, b = nr * (2**k // dr), ni * (2**k // di)  # z = (a + ib) / 2^k
    re = im = 0
    pr, pi = 1, 0  # (a + ib)^i
    for i, c in enumerate(coeffs):
        re, im = re + (c * pr << k * (d - i)), im + (c * pi << k * (d - i))
        pr, pi = pr * a - pi * b, pr * b + pi * a
    return complex(polyarith._big_to_float(re, -k * d), polyarith._big_to_float(im, -k * d))


def _bits(z):
    return np.complex128(z).tobytes()


dyadics = st.builds(_dyadic, st.integers(-(2**53), 2**53), st.integers(0, 120))
heavy_coeffs = st.integers(2, 40).flatmap(
    lambda d: st.lists(st.integers(-(2**40), 2**40), min_size=d + 1, max_size=d + 1)
).filter(lambda c: c[-1] != 0 and sum(map(abs, c)) > polyarith.EXACT_EVAL_COEFF_SUM)


@PROPERTY
@given(heavy_coeffs, dyadics, dyadics)
def test_exact_eval_matches_big_integer_oracle(coeffs, x, y):
    p = IntPolynomial(tuple(coeffs))
    assert DynGreenEvaluator(p)._exact
    assert _bits(eval_intpoly(p, x)) == _bits(_oracle_real(p.coeffs, x))
    if y != 0.0:
        z = complex(x, y)
        assert _bits(eval_intpoly(p, z)) == _bits(_oracle_complex(p.coeffs, z))


def test_exact_plan_by_mass_and_chebyshev_coefficients():
    def plan(p):
        # how DynGreenEvaluator reads g for p: the Green function of
        # [-2, 2] for 2T_d(z/2) ("chebyshev"), else the escape loop stepped
        # by numpy Horner ("float") or by exact eval_intpoly ("exact")
        ev = DynGreenEvaluator(p)
        if ev.closed_form == "chebyshev":
            return "chebyshev"
        return "exact" if ev._exact else "float"

    assert plan(IntPolynomial((1, 2, 3))) == "float"
    # 2T_d(z/2) whatever its mass: 15127 at d = 20, past 2^30 at d = 64
    assert plan(chebyshev_monic(20)) == "chebyshev"
    assert plan(chebyshev_monic(64)) == "chebyshev"
    # a property of the coefficients, not of where they came from
    typed = IntPolynomial(tuple(int(c) for c in chebyshev_monic(64).to_text().split()))
    assert plan(typed) == "chebyshev"
    # one coefficient off, it has no closed form, and its mass picks the plan
    for n, want in ((20, "float"), (64, "exact")):
        near = list(chebyshev_monic(n).coeffs)
        near[0] += 1
        assert plan(IntPolynomial(tuple(near))) == want, n
    assert chebyshev_monic(64) is chebyshev_monic(64)


def test_chebyshev_ladder_matches_oracle():
    # the Chebyshev family 2T_n(z/2), whatever its plan, at real points of
    # [-2, 2], just off it, and at dyadics of 60 to 120 fractional bits
    rng = np.random.default_rng(5)
    xs = [0.0, 2.0, -2.0, 2.5, -2.5, *rng.uniform(-2, 2, 4),
          *(_dyadic(int(m), int(k)) for m, k in zip(rng.integers(-(2**53), 2**53, 4),
                                                   rng.integers(60, 120, 4)))]
    for n in range(2, 161):
        p = chebyshev_monic(n)
        for x in xs:
            assert _bits(eval_intpoly(p, x)) == _bits(_oracle_real(p.coeffs, x)), (n, x)


# ----------------------------------------------------------------- generators

def test_cyclotomic_frozen_small_cases():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(5).coeffs == (1, 1, 1, 1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_product_identity():
    # prod over d | n of cyclotomic(d) == z^n - 1, exactly, for n <= 60
    for n in range(1, 61):
        prod = IntPolynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        target = IntPolynomial((-1,) + (0,) * (n - 1) + (1,))
        assert prod == target, f"n={n}"


def test_chebyshev_monic_frozen_and_recurrence():
    assert chebyshev_monic(0).coeffs == (2,)
    assert chebyshev_monic(1).coeffs == (0, 1)
    assert chebyshev_monic(2).coeffs == (-2, 0, 1)
    assert chebyshev_monic(5).coeffs == (0, 5, 0, -5, 0, 1)
    # p_{n+1} = z * p_n - p_{n-1}
    z = IntPolynomial((0, 1))
    for n in range(1, 20):
        assert chebyshev_monic(n + 1) == z * chebyshev_monic(n) - chebyshev_monic(n - 1)


def test_chebyshev_value_identity():
    # p_n(2 cos t) == 2 cos(n t), oracle independent of the recurrence
    for n in (1, 2, 3, 5, 8, 13, 21):
        p = chebyshev_monic(n)
        for t in np.linspace(0.1, 3.0, 17):
            x = Fraction(2 * math.cos(t))  # exact dyadic lift of the float
            got = float(p(x))
            assert abs(got - 2 * math.cos(n * float(t))) < 1e-10, (n, t)


def test_runaway_family_frozen_drifts():
    assert runaway_drift(4) == 7
    assert runaway_drift(6) == 11
    assert runaway_drift(9) == 20
    f6 = runaway_family(6)
    assert f6.coeffs == (1, 0, 0, 0, 0, -11, 1)


def test_runaway_root_count_inside_unit_disk():
    # d - 1 roots strictly inside |z| < 1 for every degree in range
    for d in range(4, 15):
        rs = roots(runaway_family(d))
        inside = int(np.sum(np.abs(np.asarray(rs.roots)) < 1.0))
        assert inside == d - 1, d


def test_power_map_generators():
    assert power_map(5).coeffs == (0, 0, 0, 0, 0, 1)
