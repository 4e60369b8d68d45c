"""Compact plane sets with boundary sampling, Fekete configurations,
transfinite diameter, discrete equilibrium measures, and Green evaluation.

A model is a sampled boundary plus closed-form geometry where available
(membership, distance, capacity). Green values come from the stored discrete
equilibrium measure, clamped to zero on the polynomially convex hull; models
built from dynamical data may install an exact evaluator instead.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .polyarith import ComplexPolynomial, IntPolynomial, eval_intpoly

DEFAULT_BOUNDARY_SAMPLES = 4096
DEFAULT_EQUILIBRIUM_N = 64
# points on the containment ring of probe_ring
RING_SAMPLES = 512
_MEMBERSHIP_TOL = 1e-9


class UnsupportedSetError(ValueError):
    """Operation not defined for this set kind."""


@dataclasses.dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        w = np.asarray(self.weights, dtype=np.float64)
        if len(pts) != len(w):
            raise ValueError("points and weights must align")
        if np.any(w < -1e-15):
            raise ValueError("negative weight")
        total = float(np.sum(w))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, points) -> "DiscreteMeasure":
        pts = np.asarray(points, dtype=np.complex128)
        return cls(pts, np.full(len(pts), 1.0 / len(pts)))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("re,im,weight\n")
            for p, w in zip(self.points, self.weights):
                fh.write(f"{p.real:.12g},{p.imag:.12g},{w:.12g}\n")

    @classmethod
    def from_csv(cls, path) -> "DiscreteMeasure":
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(rows[:, 0] + 1j * rows[:, 1], rows[:, 2])


class CompactSetModel:
    """Sampled compact set. Construct through the kind classmethods."""

    def __init__(self, kind, params, boundary_samples, sample_t, sample_comp,
                 regular, symmetric=None, log_capacity=None,
                 green_fn=None, contains_fn=None, distance_fn=None,
                 point_at=None, ring_fn=None):
        self.kind = kind
        self.params = params
        self.boundary_samples = np.asarray(boundary_samples, dtype=np.complex128)
        self.sample_t = None if sample_t is None else np.asarray(sample_t, dtype=float)
        self.sample_comp = None if sample_comp is None else np.asarray(sample_comp, dtype=int)
        if symmetric is None:  # conjugation symmetry read off the samples
            im = self.boundary_samples.imag
            symmetric = np.allclose(np.sort(im), np.sort(-im), atol=1e-9)
        self.symmetric = bool(symmetric)
        self.regular = bool(regular)
        self._log_capacity = log_capacity
        self._green_fn = green_fn
        self._contains_fn = contains_fn
        self._distance_fn = distance_fn
        self._point_at = point_at
        self._ring_fn = ring_fn
        self._fekete_cache: dict[int, np.ndarray] = {}
        self._measure_cache: dict[int, DiscreteMeasure] = {}

    @property
    def log_capacity(self) -> float:
        if self._log_capacity is None:
            # d_n sinks to cap like 1 + O(log n / n); extrapolate the limit
            # from two rungs instead of quoting a single high estimate
            n2 = min(256, len(self.boundary_samples))
            n1 = max(2, n2 // 2)
            l2 = math.log(capacity_estimate(self, n2))
            if n1 == n2:
                self._log_capacity = l2
            else:
                l1 = math.log(capacity_estimate(self, n1))
                t1, t2 = math.log(n1) / n1, math.log(n2) / n2
                self._log_capacity = (t1 * l2 - t2 * l1) / (t1 - t2)
        return self._log_capacity

    # ------------------------------------------------------------- constructors

    @classmethod
    def interval(cls, a: float, b: float, samples: int = DEFAULT_BOUNDARY_SAMPLES):
        if not b > a:
            raise ValueError("need b > a")
        sc = max(1.0, abs(a), abs(b))

        def gfn(z, a=a, b=b, sc=sc):
            # exterior map of the segment; exactly zero on it
            w = (2 * z - (a + b)) / (b - a)
            val = np.log(np.abs(w + np.sqrt(w - 1) * np.sqrt(w + 1)))
            on_seg = ((np.abs(z.imag) <= 1e-9 * sc)
                      & (z.real >= a - 1e-9 * sc) & (z.real <= b + 1e-9 * sc))
            return np.where(on_seg, 0.0, val)

        return cls._segments("interval", {"a": a, "b": b}, [(a, b)], samples,
                             log_capacity=math.log((b - a) / 4.0), green_fn=gfn)

    @classmethod
    def disk(cls, center, radius: float, samples: int = DEFAULT_BOUNDARY_SAMPLES):
        return cls._round(center, radius, samples, kind="disk")

    @classmethod
    def circle(cls, center, radius: float, samples: int = DEFAULT_BOUNDARY_SAMPLES):
        return cls._round(center, radius, samples, kind="circle")

    @classmethod
    def _round(cls, center, radius, samples, kind):
        if radius <= 0:
            raise ValueError("radius must be positive")
        c, r = complex(center), float(radius)
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
            with np.errstate(divide="ignore"):
                val = np.log(np.abs(z - c) / r)
            # boundary band: points within rounding dust of the circle are on it
            return np.where(val <= 1e-9, 0.0, val)

        return cls(
            kind=kind, params={"center": c, "radius": r},
            boundary_samples=pts, sample_t=theta,
            sample_comp=np.zeros(samples, dtype=int),
            symmetric=(c.imag == 0.0), regular=True,
            log_capacity=math.log(radius), green_fn=gfn,
            contains_fn=contains, distance_fn=distance,
            point_at=lambda comp, s, c=c, r=radius: c + r * complex(math.cos(s), math.sin(s)),
            ring_fn=lambda eps: c + (r + eps) * np.exp(1j * th),
        )

    @classmethod
    def union_of_intervals(cls, intervals, samples: int = DEFAULT_BOUNDARY_SAMPLES):
        ivs = [(float(a), float(b)) for a, b in intervals]
        if not ivs:
            raise ValueError("need at least one interval")
        for a, b in ivs:
            if not b > a:
                raise ValueError("need b > a in every interval")
        return cls._segments("union-of-intervals", {"intervals": ivs}, ivs, samples)

    @classmethod
    def _segments(cls, kind, params, ivs, samples, **closed_forms):
        """Union of real segments ivs, samples points on each."""
        t = np.concatenate([np.linspace(a, b, samples) for a, b in ivs])
        pts = t.astype(np.complex128)
        contains, distance, ring = _segments_geometry(ivs, _membership_tol(pts))

        def point_at(comp, s):
            a, b = ivs[comp]
            return complex(min(max(s, a), b), 0.0)

        return cls(
            kind=kind, params=params, boundary_samples=pts, sample_t=t,
            sample_comp=np.repeat(np.arange(len(ivs)), samples),
            regular=True, point_at=point_at,
            contains_fn=contains, distance_fn=distance, ring_fn=ring,
            **closed_forms,
        )

    @classmethod
    def polyline_boundary(cls, vertices, samples: int = DEFAULT_BOUNDARY_SAMPLES):
        verts = np.asarray([complex(v) for v in vertices], dtype=np.complex128)
        if len(verts) < 3:
            raise ValueError("need at least three vertices")
        loop = np.concatenate([verts, verts[:1]])
        seg = np.abs(np.diff(loop))
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        total = cum[-1]
        t = total * np.arange(samples) / samples

        def point_at(comp, s, loop=loop, cum=cum, total=total):
            s = s % total
            k = int(np.searchsorted(cum, s, side="right")) - 1
            k = min(k, len(loop) - 2)
            seg_len = cum[k + 1] - cum[k]
            frac = 0.0 if seg_len == 0 else (s - cum[k]) / seg_len
            return complex(loop[k] + frac * (loop[k + 1] - loop[k]))

        pts = np.array([point_at(0, s) for s in t])
        tol = _membership_tol(pts)
        return cls(
            kind="polyline-boundary", params={"vertices": verts},
            boundary_samples=pts, sample_t=t,
            sample_comp=np.zeros(samples, dtype=int),
            regular=True, point_at=point_at,
            contains_fn=lambda z: _polygon_contains(verts, z, tol),
        )

    @classmethod
    def point_cloud(cls, points):
        pts = np.asarray(points, dtype=np.complex128)
        if len(pts) < 2:
            raise ValueError("need at least two points")
        return cls(
            kind="point-cloud", params={"count": len(pts)},
            boundary_samples=pts, sample_t=None, sample_comp=None,
            regular=False,
        )

    # ------------------------------------------------------------------ geometry

    def _nearest_sample(self, z) -> np.ndarray:
        return np.min(np.abs(z[..., None] - self.boundary_samples[None, :]), axis=-1)

    def contains_many(self, z) -> np.ndarray:
        """Membership in the polynomially convex hull (with a small tolerance)."""
        z = np.asarray(z, dtype=np.complex128)
        if self._contains_fn is not None:
            return self._contains_fn(z)
        # point clouds have no interior; only the samples themselves count
        return self._nearest_sample(z) <= _membership_tol(self.boundary_samples)

    def distance_to_many(self, z) -> np.ndarray:
        """Distance to the set E itself (not its hull)."""
        z = np.asarray(z, dtype=np.complex128)
        if self._distance_fn is not None:
            return self._distance_fn(z)
        return self._nearest_sample(z)

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
    return _MEMBERSHIP_TOL * max(1.0, float(np.max(np.abs(samples - np.mean(samples)))) * 2)


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
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < xint)
    # tolerance band around the boundary counts as inside
    near = np.min(np.abs(z[..., None] - loop[None, :-1]), axis=-1) <= tol
    return inside | near


# --------------------------------------------------------------------------- #
# Fekete configurations and transfinite diameter
# --------------------------------------------------------------------------- #


def fekete_points(e: CompactSetModel, n: int) -> np.ndarray:
    """n-point Fekete configuration from the boundary samples.

    Deterministic greedy (Leja) seeding followed by local exchange sweeps on
    the sample grid; maximizes the pairwise log-distance sum. A sweep moves
    each point to the best candidate when that raises the sum by more than
    1e-12; a candidate that leaves is never readmitted. The log-distance row
    of each chosen point over all m samples is computed once, when it
    enters, and held in an (n, m) float64 array (n*m*8 bytes, 16.8 MB at
    n = 256 on 8192 samples) until the search returns.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    cached = e._fekete_cache.get(n)
    if cached is not None:
        return cached.copy()
    cand = e.boundary_samples
    m = len(cand)
    if n > m:
        raise ValueError(f"n={n} exceeds {m} boundary samples")

    with np.errstate(divide="ignore", invalid="ignore"):
        # greedy Leja phase; rows[k] is log|cand - cand[idx[k]]|, and total
        # their sum, which the exchange sweeps keep current
        idx = np.empty(n, dtype=np.int64)
        rows = np.empty((n, m))
        idx[0] = np.argmax(np.abs(cand - np.mean(cand)))
        rows[0] = np.log(np.abs(cand - cand[idx[0]]))
        total = rows[0].copy()
        for k in range(1, n):
            idx[k] = np.argmax(total)
            rows[k] = np.log(np.abs(cand - cand[idx[k]]))
            total += rows[k]

        # local exchange sweeps. total - rows[pos] is NaN at idx[pos] and at
        # its duplicates, and a swap carries that NaN into total, so a
        # candidate that left is never readmitted. fmax reads NaN as -inf, so
        # argmax picks what nanargmax would whenever the best value is
        # finite, the only case that can swap
        for _ in range(16):
            swapped = False
            for pos in range(n):
                own = float(np.sum(rows[pos][np.delete(idx, pos)]))
                t_wo = total - rows[pos]
                best = int(np.argmax(np.fmax(t_wo, -np.inf)))
                if t_wo[best] > own + 1e-12 and best not in idx:
                    rows[pos] = np.log(np.abs(cand - cand[best]))
                    total = t_wo + rows[pos]
                    idx[pos] = best
                    swapped = True
            if not swapped:
                break
    out = cand[np.sort(idx)]
    e._fekete_cache[n] = out.copy()
    return out


def capacity_estimate(e: CompactSetModel, n: int) -> float:
    """Transfinite-diameter estimate d_n from an n-point Fekete search."""
    return transfinite_diameter_of_points(fekete_points(e, n))


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


def equilibrium_measure(e: CompactSetModel, n: int = DEFAULT_EQUILIBRIUM_N) -> DiscreteMeasure:
    """Uniform weights on the n-point Fekete configuration."""
    cached = e._measure_cache.get(n)
    if cached is None:
        cached = DiscreteMeasure.uniform(fekete_points(e, n))
        e._measure_cache[n] = cached
    return cached


# --------------------------------------------------------------------------- #
# Green evaluation
# --------------------------------------------------------------------------- #


def green_eval_many(e: CompactSetModel, z) -> np.ndarray:
    """Green function with pole at infinity: discrete equilibrium potential
    minus log capacity, clamped to zero on the hull and below at zero."""
    z = np.asarray(z, dtype=np.complex128)
    if e._green_fn is not None:
        vals = np.asarray(e._green_fn(z), dtype=float)
        return np.maximum(vals, 0.0)
    mu = equilibrium_measure(e)
    with np.errstate(divide="ignore"):
        pot = np.log(np.abs(z[..., None] - mu.points[None, :])) @ mu.weights
    vals = pot - e.log_capacity
    vals = np.where(e.contains_many(z), 0.0, vals)
    return np.maximum(vals, 0.0)


# --------------------------------------------------------------------------- #
# sup norms
# --------------------------------------------------------------------------- #


def _abs_eval(p, z):
    if isinstance(p, IntPolynomial):
        return np.abs(eval_intpoly(p, z))
    return np.abs(ComplexPolynomial.of(p)(z))


def supnorm(p, e: CompactSetModel) -> float:
    """Max of |p| over the boundary samples, refined by golden-section search
    along the boundary parameterization near the best sample."""
    vals = np.asarray(_abs_eval(p, e.boundary_samples), dtype=float)
    k = int(np.argmax(vals))
    best = float(vals[k])
    if e._point_at is None or e.sample_t is None:
        return best
    comp = int(e.sample_comp[k])
    same = np.nonzero(e.sample_comp == comp)[0]
    ts = e.sample_t[same]
    spacing = float(np.median(np.diff(np.sort(ts)))) if len(ts) > 1 else 0.0
    lo = e.sample_t[k] - spacing
    hi = e.sample_t[k] + spacing

    def f(t):
        return float(_abs_eval(p, np.array([e._point_at(comp, t)]))[0])

    best = max(best, _golden_max(f, lo, hi))
    return best


def _golden_max(f, lo, hi) -> float:
    gr = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        if b - a < 1e-14 * (1 + abs(a)):
            break
    return max(fc, fd)


# --------------------------------------------------------------------------- #
# minimality diagnostics
# --------------------------------------------------------------------------- #


@dataclasses.dataclass(frozen=True)
class MinimalityReport:
    rows: tuple  # (degree, log|lead|/degree, log sup / degree)
    leading_target: float
    leading_deviation: float
    supnorm_deviation: float
    minimal_leading: bool
    minimal_supnorm: bool
    tol: float


def minimality_diagnostics(seq, e: CompactSetModel, tol: float = 0.05) -> MinimalityReport:
    """Per-degree leading-coefficient and sup-norm growth columns with trend
    flags: a candidate minimal sequence drives log|a_n|/d_n to -log cap(E)
    and log ||P_n||_E / d_n to zero."""
    rows = []
    for p in seq:
        d = p.degree
        if d < 1:
            raise ValueError("need nonconstant polynomials")
        lead = abs(p.leading) if isinstance(p, IntPolynomial) else abs(p.coeffs[-1])
        s = supnorm(p, e)
        rows.append((d, math.log(lead) / d, math.log(s) / d))
    rows.sort(key=lambda r: r[0])
    target = -e.log_capacity
    lead_dev = abs(rows[-1][1] - target)
    sup_dev = abs(rows[-1][2])
    return MinimalityReport(
        rows=tuple(rows),
        leading_target=target,
        leading_deviation=lead_dev,
        supnorm_deviation=sup_dev,
        minimal_leading=lead_dev <= tol,
        minimal_supnorm=sup_dev <= tol,
        tol=tol,
    )


# --------------------------------------------------------------------------- #
# unit-capacity subset search (union-of-intervals only)
# --------------------------------------------------------------------------- #


def subset_with_unit_capacity(e: CompactSetModel) -> CompactSetModel:
    """Shrink each interval about its own center until the capacity estimate
    hits 1. Only union-of-intervals models support the search."""
    if e.kind != "union-of-intervals":
        raise UnsupportedSetError(
            "unit-capacity subset search is implemented for union-of-intervals only"
        )
    ivs = e.params["intervals"]

    def scaled(s: float, samples: int = 1024) -> CompactSetModel:
        out = []
        for a, b in ivs:
            c, h = (a + b) / 2, (b - a) / 2
            out.append((c - s * h, c + s * h))
        return CompactSetModel.union_of_intervals(out, samples=samples)

    def est(s: float) -> float:
        return capacity_estimate(scaled(s), 64)

    hi = est(1.0)
    if hi < 0.99:
        raise ValueError(
            f"cannot reach unit capacity: the full union estimates {hi:.6g} < 1"
        )
    lo_s, hi_s = 1e-6, 1.0
    for _ in range(60):
        mid = 0.5 * (lo_s + hi_s)
        v = est(mid)
        if abs(v - 1.0) <= 0.01:
            lo_s = hi_s = mid
            break
        if v < 1.0:
            lo_s = mid
        else:
            hi_s = mid
    return scaled(0.5 * (lo_s + hi_s), DEFAULT_BOUNDARY_SAMPLES)
