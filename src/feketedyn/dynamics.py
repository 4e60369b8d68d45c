"""Polynomial dynamics: escape-time Green functions, filled-set rasters,
backward-orbit sampling of the maximal-entropy measure, and the closed-form
capacity of the filled set.

The Green function is computed in log space. Forward iteration runs until the
orbit leaves the escape radius; the remaining contribution is the telescoped
series u + sum_j d^{-(j+1)} (log|a_d| + log|1+eps_j|) over the continued orbit,
accumulated on the reciprocal coordinate v = 1/w so nothing overflows. Integer
polynomials whose coefficient mass defeats float Horner step with exact
big-integer evaluation instead.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .polyarith import (
    EXACT_EVAL_COEFF_SUM,
    IntPolynomial,
    RootFindingError,
    chebyshev_monic,
    eval_intpoly,
    horner,
    roots,
)
from .potential import DiscreteMeasure, log_abs

DEFAULT_MAX_ITER = 256


def _closed_form(poly: IntPolynomial) -> str | None:
    """Which closed-form map poly is: "power" for z^d, "chebyshev" for
    2 T_d(z/2), of degree d >= 2; else None."""
    c, d = poly.coeffs, poly.degree
    if c[-2:] != (0, 1):
        return None
    if not any(c[:-2]):
        return "power"
    # 2 T_d(z/2) = z^d - d z^(d-2) + ...; the cheap test spares building
    # chebyshev_monic(d) for polynomials that cannot match
    if c[-3] == -d and c == chebyshev_monic(d).coeffs:
        return "chebyshev"
    return None


def map_degree(poly: IntPolynomial) -> int:
    """The degree of a map, which is an IntPolynomial (else TypeError) of
    degree >= 2 (else ValueError)."""
    if not isinstance(poly, IntPolynomial):
        raise TypeError(f"a map is an IntPolynomial, not a {type(poly).__name__}")
    if poly.degree < 2:
        raise ValueError(f"a map needs degree >= 2, got {poly.to_text()!r}")
    return poly.degree


class DynGreenEvaluator:
    """Escape-rate Green function of a degree >= 2 polynomial map."""

    def __init__(self, poly: IntPolynomial, max_iter: int = DEFAULT_MAX_ITER):
        d = map_degree(poly)
        self.poly = poly
        self.coeffs = c = poly.complex_coeffs
        self.degree = d
        self.leading_abs = float(abs(c[-1]))
        self.escape_radius = max(2.0, (1.0 + float(np.sum(np.abs(c[:-1])))) / self.leading_abs)
        self.max_iter = int(max_iter)
        if self.max_iter < 0:
            raise ValueError(f"need max_iter >= 0, got {max_iter}")
        self._exact = sum(abs(a) for a in poly.coeffs) > EXACT_EVAL_COEFF_SUM
        # the escape loop's step, the one thing the plans do differently:
        # exact eval_intpoly one point at a time, or numpy Horner
        self._step = ((lambda z: np.array([eval_intpoly(poly, w) for w in z.tolist()],
                                          dtype=np.complex128))
                      if self._exact else lambda z: horner(c, z))
        self.closed_form = _closed_form(poly)
        # the points certified in K at step 0, which skip the loop: 2 T_n(x/2)
        # maps [-2, 2] into itself whatever the plan (float Horner would round
        # some of these orbits out of [-2, 2] and let them escape)
        self._in_k = ((lambda za: (za.imag == 0.0) & (np.abs(za.real) <= 2.0))
                      if self.closed_form == "chebyshev" else None)

    def _eps(self, v):
        # (c_{d-1} v + c_{d-2} v^2 + ... + c_0 v^d) / a_d  on v = 1/w
        return horner(self.coeffs[-2::-1], v) * v / self.coeffs[-1]

    def _tail(self, u: np.ndarray, v: np.ndarray, k: np.ndarray) -> np.ndarray:
        d = self.degree
        log_ad = math.log(self.leading_abs)
        g_acc = u.astype(float)
        # the series still summing, and their v: each stops at its own first
        # term below 1e-17 (1 + |g|)
        live = np.arange(len(g_acc))
        mult = 1.0 / d
        for _ in range(64):
            eps = self._eps(v)
            delta = np.log(np.abs(1.0 + eps))
            g_acc[live] += mult * (log_ad + delta)
            done = mult * (abs(log_ad) + np.abs(delta)) < 1e-17 * (1.0 + np.abs(g_acc[live]))
            g_acc[live[done]] += mult * log_ad / (d - 1)
            live, v = live[~done], v[~done] ** d / (self.coeffs[-1] * (1.0 + eps[~done]))
            mult /= d
            if len(live) == 0:
                break
        g_acc[live] += mult * log_ad / (d - 1)
        return np.maximum(g_acc * np.exp(-k * math.log(d)), 0.0)

    def green_many(self, zs):
        """Green values and the per-point never-escaped flag: certified in K,
        a NaN part (value NaN), or still inside the escape radius at
        max_iter. The loop steps only the live orbits."""
        zin = np.asarray(zs, dtype=np.complex128)
        flat = zin.ravel()
        n = len(flat)
        esc_u = np.zeros(n)
        esc_v = np.zeros(n, dtype=np.complex128)
        esc_k = np.zeros(n)
        escaped = np.zeros(n, dtype=bool)
        # the live orbits: their indices, points and moduli
        idx = np.arange(n) if self._in_k is None else np.flatnonzero(~self._in_k(flat))
        z = flat[idx]
        with np.errstate(over="ignore"):
            mag = np.abs(z)
        # an input with a NaN part (its modulus may still be inf) never
        # escapes: its orbit stays NaN to max_iter, and its value is NaN
        lost = np.isnan(flat)
        mag[lost[idx]] = np.nan
        r = self.escape_radius
        for k in range(self.max_iter + 1):
            out = mag > r
            if out.any():
                ie = idx[out]
                esc_u[ie] = log_abs(z[out], mag[out])
                # 1/z of a modulus near the float max: numpy flags the underflow
                with np.errstate(over="ignore"):
                    esc_v[ie] = 1.0 / z[out]
                esc_k[ie] = k
                escaped[ie] = True
                idx, z, mag = idx[~out], z[~out], mag[~out]
            if k == self.max_iter or len(idx) == 0:
                break
            with np.errstate(over="ignore", invalid="ignore"):
                znew = self._step(z)
                znew_abs = np.abs(znew)
            # a step with finite parts can still overflow in modulus; a NaN
            # orbit is no overflow
            blown = ~np.isfinite(znew_abs)
            if blown.any():
                blown &= ~np.isnan(mag)
                ib = idx[blown]
                eps = self._eps(1.0 / z[blown])
                esc_u[ib] = (math.log(self.leading_abs)
                             + self.degree * np.log(mag[blown])
                             + np.log(np.abs(1.0 + eps)))
                esc_k[ib] = k + 1
                escaped[ib] = True
                idx, znew, znew_abs = idx[~blown], znew[~blown], znew_abs[~blown]
            z, mag = znew, znew_abs
        vals = np.zeros(n)
        vals[escaped] = self._tail(esc_u[escaped], esc_v[escaped], esc_k[escaped])
        vals[lost] = np.nan
        return vals.reshape(zin.shape), ~escaped.reshape(zin.shape)


def julia_capacity(poly: IntPolynomial) -> float:
    """Capacity of the filled set: |a_d| ** (-1/(d-1)), closed form."""
    d = map_degree(poly)
    return float(abs(poly.leading)) ** (-1.0 / (d - 1))


# --------------------------------------------------------------------------- #
# rasters
# --------------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True, eq=False)
class JuliaRaster:
    """Grid of Green values over a bbox; zero encodes filled-set membership.

    values[i, j] is the centre of pixel column j, row i of the bbox, with
    both axes ascending.
    undecided marks pixels whose orbit never escaped within max_iter.
    """

    bbox: tuple
    resolution: tuple  # (width, height)
    values: np.ndarray
    undecided: np.ndarray


def raster(poly, bbox, resolution, max_iter: int = DEFAULT_MAX_ITER) -> JuliaRaster:
    re_min, re_max, im_min, im_max = (float(b) for b in bbox)
    w, h = (int(r) for r in resolution)
    if re_max <= re_min or im_max <= im_min:
        raise ValueError("degenerate bbox")
    if w < 16 or h < 16:
        raise ValueError("resolution below 16x16")
    xs = _centres(re_min, re_max, w)
    ys = _centres(im_min, im_max, h)
    grid = xs[None, :] + 1j * ys[:, None]
    ev = DynGreenEvaluator(poly, max_iter=max_iter)
    vals, und = ev.green_many(grid)
    return JuliaRaster(bbox=(re_min, re_max, im_min, im_max), resolution=(w, h),
                       values=vals, undecided=und)


def _centres(lo: float, hi: float, k: int) -> np.ndarray:
    """Pixel centres lo + (j + 1/2)(hi - lo)/k, j < k, formed at scale
    2^-b with 2^b > k, so that no step overflows. Scaling by a power of two
    is exact above the subnormal range, so the centres round as that
    formula does."""
    s = 2.0 ** -k.bit_length()
    return (lo * s + (np.arange(k) + 0.5) * (hi * s - lo * s) / k) / s


def atoms_bbox(atoms) -> tuple:
    """Raster bbox of a sample of the Julia set: the atoms' bounding box
    widened by 0.5 on every side."""
    m = 0.5
    return (float(np.min(atoms.real)) - m, float(np.max(atoms.real)) + m,
            float(np.min(atoms.imag)) - m, float(np.max(atoms.imag)) + m)


def write_pgm(ras: JuliaRaster, path) -> None:
    """8-bit binary PGM, top row = max imaginary part; sidecar JSON holds the
    value scale g_max and the geometry."""
    w, h = ras.resolution
    g_max = float(np.max(ras.values))
    if g_max > 0:
        img = np.round(255.0 * np.minimum(1.0, ras.values / g_max)).astype(np.uint8)
    else:
        img = np.zeros_like(ras.values, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img[::-1, :].tobytes())
    write_json(f"{path}.json", {
        "bbox": list(ras.bbox),
        "g_max": g_max,
        "resolution": [w, h],
        "undecided_pixels": int(np.count_nonzero(ras.undecided)),
    })


def write_json(path, obj) -> None:
    """obj as JSON with sorted keys, an indent of 2 and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


# --------------------------------------------------------------------------- #
# measure of maximal entropy
# --------------------------------------------------------------------------- #

def brolin_sample(poly, n_points: int, seed: int = 0) -> DiscreteMeasure:
    """Backward random iteration in whole fibers from a point of the Julia
    set: e^i for z^d, 2 cos 1 for 2 T_d(z/2), else the preimage farthest from
    the fixed point of largest |P'| (_julia_start). Each step solves the d
    preimages of the current point, keeps them as atoms and jumps to one of
    them, chosen by one RNG stream seeded by seed. A chain on J needs no
    burn-in (Brolin; Lyubich), so N atoms cost ceil(N/d) steps, plus two start
    solves for a map without closed-form preimages. Moments of order m < d
    are exact: the power sums of the roots of P - c below degree d do not
    depend on c. When d does not divide n_points, the last fiber is a
    uniformly random subset. Preimages of z^d and 2 T_d(z/2) come in closed
    form, of any other map by Aberth."""
    if n_points < 1:
        raise ValueError("need n_points >= 1")
    ev = DynGreenEvaluator(poly)
    preimages = _preimage_solver(ev)
    d = ev.degree
    rng = np.random.default_rng(int(seed) & ((1 << 63) - 1))
    pts = np.empty(n_points, dtype=np.complex128)
    try:
        z = _julia_start(ev, preimages)
    except RootFindingError as err:
        raise RootFindingError(f"start solve failed: {err}") from err
    for step in range((n_points + d - 1) // d):
        try:
            pre = np.asarray(preimages(z), dtype=np.complex128)
        except RootFindingError as err:
            raise RootFindingError(
                f"preimage solve failed at backward step {step}: {err}") from err
        lo = step * d
        r = min(d, n_points - lo)
        pts[lo:lo + r] = pre if r == d else pre[rng.choice(d, r, replace=False)]
        z = complex(pre[int(rng.integers(d))])
    return DiscreteMeasure(pts)


def _julia_start(ev: DynGreenEvaluator, preimages) -> complex:
    """The point of J where a backward chain starts. z^d starts at e^i and
    2 T_d(z/2) at 2 cos 1: since 1/pi is irrational, neither backward tree
    meets a critical value or repeats a node. Any other map starts at the
    preimage farthest from z*, its fixed point of largest |P'| (one solve of
    P - z). z* is repelling, or parabolic when no fixed point is repelling,
    so it lies in J (Milnor, Dynamics in One Complex Variable, section 12);
    z* itself lies in its own fiber, so a chain from it would revisit it."""
    if ev.closed_form == "power":
        return complex(math.cos(1.0), math.sin(1.0))
    if ev.closed_form == "chebyshev":
        return complex(2.0 * math.cos(1.0))
    c = ev.coeffs
    shifted = c.copy()
    shifted[1] -= 1.0
    fixed = roots(shifted, tol=1e-9).roots
    slope = horner(c[1:] * np.arange(1, len(c)), fixed)
    z_star = fixed[int(np.argmax(np.abs(slope)))]
    pre = preimages(z_star)
    return complex(pre[int(np.argmax(np.abs(pre - z_star)))])


def _preimage_solver(ev: DynGreenEvaluator):
    """c -> the d preimages of c under the evaluator's map. For 2 T_d(z/2)
    they are 2 cos((arccos(c/2) + 2 pi k)/d): float root-finding fails once
    the coefficients outgrow the 53-bit mantissa. For z^d they are the d-th
    roots of c."""
    d = ev.degree
    if ev.closed_form == "chebyshev":
        ks = 2.0 * np.pi * np.arange(d)
        return lambda c: 2.0 * np.cos((np.arccos(np.complex128(c) / 2.0) + ks) / d)
    if ev.closed_form == "power":
        rot = np.exp(2j * np.pi * np.arange(d) / d)

        def pre(c):
            c = np.complex128(c)
            return abs(c) ** (1.0 / d) * np.exp(1j * (np.angle(c) / d)) * rot

        return pre
    # P - c in one buffer; roots copies its input
    shifted = ev.coeffs.copy()
    c0 = shifted[0]

    def pre(c):
        shifted[0] = c0 - c
        return roots(shifted, tol=1e-9).roots

    return pre
