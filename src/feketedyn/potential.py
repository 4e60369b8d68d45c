"""Compact plane sets with boundary sampling, Fekete configurations,
transfinite diameter, discrete equilibrium measures, and Green evaluation.

A model is a sampled boundary plus the conjugation symmetry and hull
membership its constructor states, and closed forms where available
(distance, capacity). Green values come from a closed form where
one is installed, else from the stored discrete equilibrium measure, and are
zero wherever contains_many puts z in the polynomially convex hull.
One overflow rule serves every kind: a non-finite Green value at a z with no
NaN part becomes log_abs(z - c) - log cap, c the mean of the boundary samples,
within -log(1 - R/|z - c|) of the truth when E lies in D(c, R).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

DEFAULT_BOUNDARY_SAMPLES = 4096
EQUILIBRIUM_N = 64
# points on the containment ring of probe_ring
RING_SAMPLES = 512
_MEMBERSHIP_TOL = 1e-9


class UnsupportedSetError(ValueError):
    """Operation not defined for this set kind."""


@dataclasses.dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Probability measure with mass 1/n at each of its n atoms; a point
    listed k times carries k shares."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        if len(pts) == 0:
            raise ValueError("a measure needs at least one atom")
        object.__setattr__(self, "points", pts)

    @property
    def weights(self) -> np.ndarray:
        return np.full(len(self.points), 1.0 / len(self.points))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("re,im,weight\n")
            for p, w in zip(self.points, self.weights):
                fh.write(f"{p.real:.12g},{p.imag:.12g},{w:.12g}\n")


class CompactSetModel:
    """Sampled compact set. Construct through the kind classmethods."""

    def __init__(self, kind, params, boundary_samples, symmetric, contains_fn,
                 log_capacity=None, green_fn=None, distance_fn=None, ring_fn=None):
        self.kind = kind
        self.params = params
        self.boundary_samples = np.asarray(boundary_samples, dtype=np.complex128)
        self.symmetric = bool(symmetric)
        self._log_capacity = log_capacity
        self._green_fn = green_fn
        self._contains_fn = contains_fn
        self._distance_fn = distance_fn
        self._ring_fn = ring_fn
        self._measure: DiscreteMeasure | None = None

    @property
    def log_capacity(self) -> float:
        if self._log_capacity is None:
            # d_n sinks to cap like 1 + O(log n / n); extrapolate the limit
            # from two rungs instead of quoting a single high estimate
            n2 = min(256, len(self.boundary_samples))
            n1 = max(2, n2 // 2)
            l2 = math.log(capacity_estimate(self.boundary_samples, n2))
            if n1 == n2:
                self._log_capacity = l2
            else:
                l1 = math.log(capacity_estimate(self.boundary_samples, n1))
                t1, t2 = math.log(n1) / n1, math.log(n2) / n2
                self._log_capacity = (t1 * l2 - t2 * l1) / (t1 - t2)
        return self._log_capacity

    # ------------------------------------------------------------- constructors

    @classmethod
    def interval(cls, a: float, b: float, samples: int = DEFAULT_BOUNDARY_SAMPLES):
        return cls.union_of_intervals([(a, b)], samples)

    @classmethod
    def disk(cls, center, radius: float, samples: int = DEFAULT_BOUNDARY_SAMPLES):
        return cls._round(center, radius, samples, kind="disk")

    @classmethod
    def circle(cls, center, radius: float, samples: int = DEFAULT_BOUNDARY_SAMPLES):
        return cls._round(center, radius, samples, kind="circle")

    @classmethod
    def _round(cls, center, radius, samples, kind):
        c, r = complex(center), float(radius)
        if not np.isfinite([c, r]).all():
            raise ValueError("center and radius must be finite")
        if r <= 0:
            raise ValueError("radius must be positive")
        theta = 2 * np.pi * np.arange(samples) / samples
        pts = c + radius * np.exp(1j * theta)
        tol = _membership_tol(pts)
        th = 2 * np.pi * np.arange(RING_SAMPLES) / RING_SAMPLES

        def contains(z):
            return np.abs(z - c) <= radius + tol

        def distance(z):
            if kind == "disk":
                return np.maximum(np.abs(z - c) - radius, 0.0)
            return np.abs(np.abs(z - c) - radius)

        def gfn(z, c=c, r=radius):
            with np.errstate(divide="ignore", over="ignore"):
                return np.log(np.abs(z - c) / r)

        e = cls(
            kind=kind, params={"center": c, "radius": r},
            boundary_samples=pts, symmetric=(c.imag == 0.0),
            log_capacity=math.log(radius), green_fn=gfn,
            contains_fn=contains, distance_fn=distance,
            ring_fn=lambda eps: c + (r + eps) * np.exp(1j * th),
        )
        # N equal atoms on the circle, exact moments of order 1..N-1
        e._measure = DiscreteMeasure(
            c + r * np.exp(2j * np.pi * np.arange(EQUILIBRIUM_N) / EQUILIBRIUM_N))
        return e

    @classmethod
    def union_of_intervals(cls, intervals, samples: int = DEFAULT_BOUNDARY_SAMPLES):
        """Union of real segments [a, b], sorted, with those that overlap or
        touch merged, and samples points on each; one segment is kind
        interval. One segment (A = 0) or a mirror pair [c - B, c - A] u
        [c + A, c + B] is the preimage of [A^2, B^2] under (z - c)^2 and
        takes closed forms; any other union takes the Fekete path."""
        ivs = []
        for a, b in sorted((float(a), float(b)) for a, b in intervals):
            if not b > a:
                raise ValueError("need b > a in every interval")
            if ivs and a <= ivs[-1][1]:
                ivs[-1] = (ivs[-1][0], max(ivs[-1][1], b))
            else:
                ivs.append((a, b))
        if not ivs:
            raise ValueError("need at least one interval")
        if not np.isfinite(ivs).all():
            raise ValueError("interval ends must be finite")
        pts = np.concatenate([np.linspace(a, b, samples) for a, b in ivs]).astype(np.complex128)
        contains, distance, ring = _segments_geometry(ivs, _membership_tol(pts))
        e = cls(kind="interval" if len(ivs) == 1 else "union-of-intervals",
                params={"a": ivs[0][0], "b": ivs[0][1]} if len(ivs) == 1 else {"intervals": ivs},
                boundary_samples=pts, symmetric=True, contains_fn=contains,
                distance_fn=distance, ring_fn=ring)
        ends = [x for iv in ivs for x in iv]
        if len(ivs) == 1:
            ends[1:1] = [ends[0] / 2 + ends[1] / 2] * 2
        # halves, whose sums and differences do not overflow
        h0, h1, h2, h3, *more = (x / 2 for x in ends)
        if more or h0 + h3 != h1 + h2:  # more than two segments, or no mirror pair
            return e
        c, half_gap, half_pair = h1 + h2, h2 - h1, h3 - h0
        lo, hi = half_pair - half_gap, half_pair + half_gap
        e._log_capacity = (math.log(lo) + math.log(hi)) / 2 - math.log(2)
        e._green_fn = _segment_green(ends, 2 / lo, 1 / hi)
        # the pullbacks of the Gauss-Chebyshev nodes of [A^2, B^2]: equal
        # atoms whose moments in z - c of order 1..2N-1 are mu_E's
        theta = (2 * np.arange(EQUILIBRIUM_N // 2) + 1) * np.pi / EQUILIBRIUM_N
        h = np.hypot(half_gap * np.sin(theta / 2), half_pair * np.cos(theta / 2))
        e._measure = DiscreteMeasure(np.concatenate([c - h, c + h]))
        return e

    @classmethod
    def polyline_boundary(cls, vertices, samples: int = DEFAULT_BOUNDARY_SAMPLES):
        verts = np.asarray([complex(v) for v in vertices], dtype=np.complex128)
        if len(verts) < 3:
            raise ValueError("need at least three vertices")
        if not np.isfinite(verts).all():
            raise ValueError("vertices must be finite")
        loop = np.concatenate([verts, verts[:1]])
        seg = np.abs(np.diff(loop))
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        total = cum[-1]
        t = total * np.arange(samples) / samples
        # the edge k that holds each arc length t, and how far along it t is
        k = np.minimum(np.searchsorted(cum, t, side="right") - 1, len(loop) - 2)
        seg_len = cum[k + 1] - cum[k]
        frac = np.divide(t - cum[k], seg_len, out=np.zeros_like(t), where=seg_len != 0)
        pts = loop[k] + frac * (loop[k + 1] - loop[k])
        tol = _membership_tol(pts)
        # the polygon is its own conjugate when the conjugated loop, which
        # runs the other way round, is the loop from another start vertex
        mirror = np.conj(verts[::-1])
        return cls(
            kind="polyline-boundary", params={"vertices": verts}, boundary_samples=pts,
            symmetric=any(np.array_equal(np.roll(mirror, k), verts) for k in range(len(verts))),
            contains_fn=lambda z: _polygon_contains(verts, z, tol),
        )

    # ------------------------------------------------------------------ geometry

    def contains_many(self, z) -> np.ndarray:
        """Membership in the polynomially convex hull (with a small tolerance)."""
        return self._contains_fn(np.asarray(z, dtype=np.complex128))

    def distance_to_many(self, z) -> np.ndarray:
        """Distance to the set E itself (not its hull): closed form, else
        the nearest boundary sample."""
        z = np.asarray(z, dtype=np.complex128)
        if self._distance_fn is not None:
            return self._distance_fn(z)
        return np.min(np.abs(z[..., None] - self.boundary_samples[None, :]), axis=-1)

    def hull_distance_to_many(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.complex128)
        d = self.distance_to_many(z)
        return np.where(self.contains_many(z), 0.0, d)

    def probe_ring(self, eps: float) -> np.ndarray:
        """Points at hull distance eps from the set (disks, circles and real
        segments)."""
        if self._ring_fn is None:
            raise UnsupportedSetError(f"no containment ring for kind {self.kind!r}")
        return self._ring_fn(eps)


def _membership_tol(samples: np.ndarray) -> float:
    # relative to twice the largest sample deviation from the samples' mean
    return _MEMBERSHIP_TOL * max(1.0, float(np.max(np.abs(samples - _mean(samples)))) * 2)


def _mean(samples: np.ndarray) -> complex:
    # np.mean, or where the sum overflows, that mean taken at scale 2^-b with
    # 2^b above the count: scaling by a power of two adds no rounding
    s = 2.0 ** -len(samples).bit_length()
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.mean(samples)
    return c if np.isfinite(c) else np.mean(samples * s) / s


def _segment_green(ends, p: float, q: float):
    """Green function of the mirror pair [e0, e1] u [e2, e3], ends
    e0 <= e1 <= e2 <= e3 with e0 + e3 = e1 + e2 = 2c, the preimage of
    [A^2, B^2] under (z - c)^2 for the half-widths A of the gap and B of
    the pair (e1 = e2 = c and A = 0 for the segment [e0, e3]): half the
    Green function of [A^2, B^2] at (z - c)^2, log|w + sqrt(w - 1)
    sqrt(w + 1)| there. w - 1 and w + 1 are 2 / (B^2 - A^2) times
    (z - e0)(z - e3) and (z - e1)(z - e2), so that no digit cancels near c
    or the four ends, each factor scaled first by p = 2 / (B - A) or
    q = 1 / (B + A), so that B^2 may pass the float maximum. Overflow gives
    inf or NaN without a warning, for green_eval_many's far field."""
    e0, e1, e2, e3 = ends

    def green(z):
        with np.errstate(over="ignore", invalid="ignore"):
            w_minus = ((z - e0) * p) * ((z - e3) * q)
            w_plus = ((z - e1) * p) * ((z - e2) * q)
            w, r = (w_minus + w_plus) / 2, np.sqrt(w_minus) * np.sqrt(w_plus)
            # w + r and w - r solve t + 1/t = 2w, and g is log|t| at the
            # root with |t| >= 1: formed apart, w - 1 and w + 1 may carry
            # zero imaginary parts of opposite signs, and so take their
            # square roots on opposite sides of the cut
            return np.log(np.maximum(np.abs(w + r), np.abs(w - r))) / 2

    return green


def _segments_geometry(ivs, tol: float):
    """Membership (within tol), distance and containment-ring closures of a
    union of real segments [a, b]."""

    def contains(z):
        out = np.zeros(z.shape, dtype=bool)
        for a, b in ivs:
            out |= (np.abs(z.imag) <= tol) & (z.real >= a - tol) & (z.real <= b + tol)
        return out

    def distance(z):
        stacks = []
        for a, b in ivs:
            dx = np.maximum(np.maximum(a - z.real, z.real - b), 0.0)
            stacks.append(np.hypot(dx, z.imag))
        return np.min(np.stack(stacks), axis=0)

    def ring(eps):
        # RING_SAMPLES points in all: a stadium around each segment
        per = max(8, RING_SAMPLES // (4 * len(ivs)))
        chunks = []
        for a, b in ivs:
            xs = np.linspace(a, b, per)
            left = a + eps * np.exp(1j * np.linspace(np.pi / 2, 3 * np.pi / 2, per))
            right = b + eps * np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, per))
            chunks.extend([xs + 1j * eps, xs - 1j * eps, left, right])
        pts = np.concatenate(chunks)
        # overlapping stadia: keep only true ring points of the union
        dist = np.where(contains(pts), 0.0, distance(pts))
        keep = np.abs(dist - eps) <= 1e-9 * max(1.0, eps)
        return pts[keep] if np.any(keep) else pts

    return contains, distance, ring


def _polygon_contains(verts: np.ndarray, z: np.ndarray, tol: float) -> np.ndarray:
    loop = np.concatenate([verts, verts[:1]])
    x, y = z.real, z.imag
    inside = np.zeros(z.shape, dtype=bool)
    for k in range(len(verts)):
        x1, y1 = loop[k].real, loop[k].imag
        x2, y2 = loop[k + 1].real, loop[k + 1].imag
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < xint)
    # tolerance band around the boundary counts as inside
    near = np.min(np.abs(z[..., None] - loop[None, :-1]), axis=-1) <= tol
    return inside | near


# --------------------------------------------------------------------------- #
# Fekete configurations and transfinite diameter
# --------------------------------------------------------------------------- #


def fekete_points(samples, n: int) -> np.ndarray:
    """n-point Fekete configuration drawn from the sample points.

    Deterministic greedy (Leja) seeding followed by local exchange sweeps on
    the sample grid; maximizes the pairwise log-distance sum. A sweep moves
    each point to the best candidate when that raises the sum by more than
    1e-12; a candidate that leaves is never readmitted. The sweeps stop after
    n visits in a row without a swap (at most 16 sweeps): the state is then
    what it was at each of those visits, so no later visit could swap. The
    log-distance row of each chosen point over all m samples is computed
    once, when it enters, and held in an (n, m) float64 array (n*m*8 bytes,
    16.8 MB at n = 256 on 8192 samples) until the search returns; so are
    those rows at the other chosen points, in an (n, n - 1) array
    (n*(n-1)*8 bytes, 0.5 MB at n = 256). Samples must be finite.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    cand = np.asarray(samples, dtype=np.complex128)
    m = len(cand)
    if n > m:
        raise ValueError(f"n={n} exceeds {m} samples")
    if not np.isfinite(cand).all():
        raise ValueError("samples must be finite")

    with np.errstate(divide="ignore", invalid="ignore"):
        # rows[k] is log|cand - cand[idx[k]]|, and total their sum, which the
        # exchange sweeps keep current. own[k] is rows[k] at the other chosen
        # points, in idx order. log|a - b| is symmetric in a and b bit for
        # bit, so a point entering at pos writes own's row pos and, in each
        # other row q, column pos - (q < pos) from its own row. In the Leja
        # phase the places not yet filled hold sample 0, and what a point
        # writes for them is rewritten when they fill
        idx = np.zeros(n, dtype=np.int64)
        rows = np.empty((n, m))
        own = np.empty((n, n - 1))
        diff = np.empty(m, dtype=np.complex128)

        def enter(pos, j):
            idx[pos] = j
            np.subtract(cand, cand[j], out=diff)
            np.abs(diff, out=rows[pos])
            np.log(rows[pos], out=rows[pos])
            at = rows[pos][idx]
            own[pos, :pos] = own[:pos, pos - 1] = at[:pos]
            if pos < n - 1:
                own[pos, pos:] = own[pos + 1:, pos] = at[pos + 1:]

        # greedy Leja phase
        enter(0, np.argmax(np.abs(cand - np.mean(cand))))
        total = rows[0].copy()
        for k in range(1, n):
            enter(k, np.argmax(total))
            total += rows[k]

        # local exchange sweeps. total - rows[pos] is NaN at idx[pos] and at
        # its duplicates, and a swap carries that NaN into total, so a
        # candidate that left is never readmitted. fmax reads NaN as -inf, so
        # argmax picks what nanargmax would whenever the best value is
        # finite, the only case that can swap. held counts each sample's
        # places in idx, which may repeat a sample
        held = np.bincount(idx, minlength=m)
        t_wo, score = np.empty(m), np.empty(m)
        quiet = 0
        for visit in range(16 * n):
            pos = visit % n
            np.subtract(total, rows[pos], out=t_wo)
            best = int(np.fmax(t_wo, -np.inf, out=score).argmax())
            if t_wo[best] > float(own[pos].sum()) + 1e-12 and not held[best]:
                held[idx[pos]] -= 1
                held[best] += 1
                enter(pos, best)
                np.add(t_wo, rows[pos], out=total)
                quiet = 0
            else:
                quiet += 1
                if quiet == n:
                    break
    return cand[np.sort(idx)]


def capacity_estimate(samples, n: int) -> float:
    """Transfinite-diameter estimate d_n from an n-point Fekete search."""
    return transfinite_diameter_of_points(fekete_points(samples, n))


def transfinite_diameter_of_points(pts) -> float:
    """d_n of a finite configuration taken as-is (no search)."""
    pts = np.asarray(pts, dtype=np.complex128)
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points")
    diff = np.abs(pts[:, None] - pts[None, :])
    iu = np.triu_indices(n, k=1)
    with np.errstate(divide="ignore"):
        logsum = float(np.sum(np.log(diff[iu])))
    return math.exp(2.0 * logsum / (n * (n - 1)))


def equilibrium_measure(e: CompactSetModel) -> DiscreteMeasure:
    """The measure a closed-form set installs (interval, mirror pair of
    intervals, disk, circle), or else equal atoms on the EQUILIBRIUM_N-point
    Fekete configuration, searched once per model."""
    if e._measure is None:
        e._measure = DiscreteMeasure(fekete_points(e.boundary_samples, EQUILIBRIUM_N))
    return e._measure


# --------------------------------------------------------------------------- #
# Green evaluation
# --------------------------------------------------------------------------- #


def log_abs(z, mag=None) -> np.ndarray:
    """np.log(mag), mag = |z| by default; where mag overflowed but z is
    finite, log s + log1p((t/s)^2)/2 with s >= t the moduli of its parts."""
    out = np.log(np.abs(z) if mag is None else mag)
    far = (out == np.inf) & np.isfinite(z)
    if far.any():
        t, s = np.sort(np.abs([z.real[far], z.imag[far]]), axis=0)
        out[far] = np.log(s) + 0.5 * np.log1p((t / s) ** 2)
    return out


def green_eval_many(e: CompactSetModel, z) -> np.ndarray:
    """Green function with pole at infinity: the closed form, or discrete
    equilibrium potential minus log capacity; 0 wherever contains_many puts
    z in the hull, floored at 0 elsewhere, far field on overflow."""
    z = np.asarray(z, dtype=np.complex128)
    if e._green_fn is not None:
        vals = e._green_fn(z)
    else:
        mu = equilibrium_measure(e)
        with np.errstate(divide="ignore"):
            pot = np.log(np.abs(z[..., None] - mu.points[None, :])) @ mu.weights
        vals = pot - e.log_capacity
    # an array even for a 0-d z
    vals = np.array(np.where(e.contains_many(z), 0.0, np.maximum(vals, 0.0)))
    far = ~np.isfinite(vals) & ~np.isnan(z)
    if far.any():
        vals[far] = log_abs(z[far] - _mean(e.boundary_samples)) - e.log_capacity
    return vals
