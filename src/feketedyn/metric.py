"""Uniform distance between Green functions of compact sets.

The distance between two sets is the sup norm of the difference of their
Green functions over the whole plane.  The difference is harmonic off the
union of the two sets and tends to the gap of log capacities at infinity,
so its extremes occur on the two boundaries or at infinity; that turns an
unbounded search into a finite maximum over boundary samples plus the
capacity gap.  A coarse grid audit is provided to cross-check the formula.

Also here: the preimage operator that pulls a compact set back through a
polynomial (a contraction by 1/degree in this distance), and a moment-based
discrepancy between discrete measures.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import DynGreenEvaluator, julia_capacity, map_degree
from .polyarith import IntPolynomial, horner, roots
from .potential import CompactSetModel, DiscreteMeasure, green_eval_many

# boundary sampling below this cannot support a trustworthy sup
MIN_SIDE_SAMPLES = 256
GRID_AUDIT_RESOLUTION = 128
GRID_AUDIT_TOL = 1e-3
CONTRACTION_TOL = 1e-3
# iterated pullbacks multiply sample counts by the degree; cap the source side
MAX_PULLBACK_SOURCES = 2048
# the moments measure_discrepancy compares, of order 1..MOMENT_ORDER
MOMENT_ORDER = 8


@dataclasses.dataclass(frozen=True, eq=False)
class GreenSide:
    """One side of a distance computation: boundary samples plus a Green
    evaluator normalized with pole at infinity (g ~ log|z| - log cap)."""

    samples: np.ndarray
    green_many: Callable[[np.ndarray], np.ndarray]
    log_cap: float

    def __post_init__(self):
        pts = np.asarray(self.samples, dtype=np.complex128)
        if len(pts) == 0:
            raise ValueError("a side needs at least one boundary sample")
        object.__setattr__(self, "samples", pts)


@dataclasses.dataclass(frozen=True, eq=False)
class GreenPair:
    left: GreenSide
    right: GreenSide


def side_from_set(e: CompactSetModel) -> GreenSide:
    return GreenSide(
        samples=e.boundary_samples,
        green_many=lambda z, e=e: green_eval_many(e, z),
        log_cap=float(e.log_capacity),
    )


def side_from_map(poly: IntPolynomial, atoms) -> GreenSide:
    """Side backed by a polynomial Julia set: boundary samples are the given
    atoms (a Brolin sample, say), the Green evaluator is the escape-rate
    function."""
    ev = DynGreenEvaluator(poly)
    return GreenSide(samples=atoms, green_many=lambda z: ev.green_many(z)[0],
                     log_cap=math.log(julia_capacity(poly)))


# --------------------------------------------------------------------------- #
# the distance
# --------------------------------------------------------------------------- #


def _evaluate(pair: GreenPair):
    left, right = pair.left, pair.right
    for s in (left, right):
        if s.log_cap is None or not math.isfinite(s.log_cap):
            raise ValueError("both sides need a finite log capacity")
        if len(s.samples) < MIN_SIDE_SAMPLES:
            raise ValueError(
                f"need at least {MIN_SIDE_SAMPLES} boundary samples per side")
    on_left = np.asarray(right.green_many(left.samples), dtype=float)
    on_right = np.asarray(left.green_many(right.samples), dtype=float)
    cap_gap = abs(left.log_cap - right.log_cap)
    i = int(np.argmax(on_left))
    j = int(np.argmax(on_right))
    candidates = [
        (float(on_left[i]), "left", complex(left.samples[i])),
        (float(on_right[j]), "right", complex(right.samples[j])),
        (cap_gap, "capacity", None),
    ]
    val, side, point = max(candidates, key=lambda c: c[0])
    return val, side, point, cap_gap


def klimek_distance(pair: GreenPair) -> float:
    """Sup-norm distance between the two Green functions, evaluated as
    max(sup of g_right on the left boundary, sup of g_left on the right
    boundary, |log cap difference|)."""
    return _evaluate(pair)[0]


def klimek_report(pair: GreenPair) -> dict:
    """Distance together with where and how it was attained."""
    val, side, point, cap_gap = _evaluate(pair)
    return {
        "gamma": val,
        "argmax_point": None if point is None else (point.real, point.imag),
        "side": side,
        "cap_gap": cap_gap,
    }


def grid_audit(pair: GreenPair) -> dict:
    """Cross-check the boundary formula on a coarse grid around the sets.

    No grid point may exceed the formula value by more than GRID_AUDIT_TOL."""
    gamma = klimek_distance(pair)
    pts = np.concatenate([pair.left.samples, pair.right.samples])
    lo_x, hi_x = float(np.min(pts.real)), float(np.max(pts.real))
    lo_y, hi_y = float(np.min(pts.imag)), float(np.max(pts.imag))
    margin = 0.25 * max(hi_x - lo_x, hi_y - lo_y, 1.0)
    xs = np.linspace(lo_x - margin, hi_x + margin, GRID_AUDIT_RESOLUTION)
    ys = np.linspace(lo_y - margin, hi_y + margin, GRID_AUDIT_RESOLUTION)
    zs = (xs[None, :] + 1j * ys[:, None]).ravel()
    diff = np.abs(np.asarray(pair.left.green_many(zs), dtype=float)
                  - np.asarray(pair.right.green_many(zs), dtype=float))
    k = int(np.argmax(diff))
    return {
        "gamma": gamma,
        "grid_max": float(diff[k]),
        "grid_argmax": (float(zs[k].real), float(zs[k].imag)),
        "resolution": GRID_AUDIT_RESOLUTION,
        "ok": bool(diff[k] <= gamma + GRID_AUDIT_TOL),
    }


# --------------------------------------------------------------------------- #
# pullback
# --------------------------------------------------------------------------- #


def pullback(p: IntPolynomial, e: CompactSetModel) -> CompactSetModel:
    """Preimage of a compact set under a polynomial of degree >= 2.

    Boundary samples are all roots of P(w) = z over the source boundary
    samples, solved as stacked root problems.  The capacity comes from the
    exact identity cap(P^{-1}E) = (cap E / |lead|)^{1/d}, and the Green
    function from g(P(z)) / d; neither is re-estimated from the new samples,
    so iterated pullbacks do not compound search error.  Its hull is the
    preimage of E's hull: z is in it exactly when E.contains_many(P(z)).
    P is real, so conj(P^{-1}E) = P^{-1}(conj E), and the preimage is
    conjugation-symmetric exactly when E is.
    """
    d = map_degree(p)
    src = e.boundary_samples
    if len(src) == 0:
        raise ValueError("source set has no boundary samples")
    if len(src) > MAX_PULLBACK_SOURCES:
        idx = np.unique(np.linspace(0, len(src) - 1, MAX_PULLBACK_SOURCES).round().astype(int))
        src = src[idx]
    coeffs = p.complex_coeffs
    shifted = np.repeat(coeffs[None, :], len(src), axis=0)
    shifted[:, 0] -= src
    pts = roots(shifted).roots.ravel()
    lead = abs(complex(coeffs[-1]))
    log_cap = (e.log_capacity - math.log(lead)) / d

    def image(z):
        # an overflowed P(z) leaves the value to green_eval_many's far field
        with np.errstate(over="ignore", invalid="ignore"):
            return horner(coeffs, z)

    return CompactSetModel(
        kind="pullback",
        params={"count": len(pts), "pullback_degree": d},
        boundary_samples=pts, symmetric=e.symmetric,
        log_capacity=log_cap,
        green_fn=lambda z: green_eval_many(e, image(z)) / d,
        contains_fn=lambda z: e.contains_many(image(z)),
    )


class ContractionResult(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def contraction_check(p, e: CompactSetModel, f: CompactSetModel) -> ContractionResult:
    """Check dist(P^{-1}E, P^{-1}F) <= dist(E, F) / deg(P) + CONTRACTION_TOL."""
    pe = pullback(p, e)
    pf = pullback(p, f)
    base = klimek_distance(GreenPair(side_from_set(e), side_from_set(f)))
    lhs = klimek_distance(GreenPair(side_from_set(pe), side_from_set(pf)))
    rhs = base / p.degree
    return ContractionResult(lhs, rhs, bool(lhs <= rhs + CONTRACTION_TOL))


# --------------------------------------------------------------------------- #
# measure discrepancy
# --------------------------------------------------------------------------- #


def _diameter(pts: np.ndarray) -> float:
    # exact max pairwise distance, chunked to bound memory
    best = 0.0
    step = 2048
    for i in range(0, len(pts), step):
        chunk = pts[i:i + step]
        best = max(best, float(np.max(np.abs(chunk[:, None] - pts[None, :]))))
    return best


def measure_discrepancy(m1: DiscreteMeasure, m2: DiscreteMeasure) -> float:
    """Largest gap of the moments of order 1..MOMENT_ORDER after mapping
    both supports jointly into a unit-diameter frame centered at the joint
    support mean.

    The frame makes the value invariant under applying one affine map
    z -> a z + b to both measures: the residual rotation only multiplies
    each moment by a unit-modulus phase."""
    pts = np.concatenate([m1.points, m2.points])
    span = _diameter(pts)
    if span == 0.0:
        span = 1.0
    c = complex(np.mean(pts))
    z1 = (m1.points - c) / span
    z2 = (m2.points - c) / span
    p1 = np.ones_like(z1)
    p2 = np.ones_like(z2)
    worst = 0.0
    for _ in range(MOMENT_ORDER):
        p1 = p1 * z1
        p2 = p2 * z2
        worst = max(worst, abs(complex(p1 @ m1.weights) - complex(p2 @ m2.weights)))
    return float(worst)
