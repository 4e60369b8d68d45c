"""Arithmetic heights of algebraic numbers over the rationals.

Every height here splits into an archimedean part, an average of an escape
function (log+, a set Green function, or a dynamical Green function) over
the conjugates, and an exact non-archimedean part carried by the leading
coefficient of the minimal polynomial; for a rational p/q that coefficient
is just the denominator q.  The split is exposed on every report and the
two parts must add up to the total.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np

from .dynamics import DynGreenEvaluator
from .polyarith import IntPolynomial, RootSet, roots
from .potential import CompactSetModel, green_eval_many

TRIAL_DIVISION_BOUND = 10 ** 6


class GoodReductionError(ValueError):
    """The canonical-height shortcut needs good reduction at every finite
    place, which for a polynomial map over the integers means monic."""


@dataclasses.dataclass(frozen=True, eq=False)
class AlgebraicNumber:
    """An algebraic number presented by its primitive integer minimal
    polynomial together with the full set of complex conjugates."""

    minpoly: IntPolynomial
    conjugates: RootSet

    def __post_init__(self):
        p = self.minpoly
        if p.degree < 1:
            raise ValueError("minimal polynomial must be nonconstant")
        if p.content != 1 or p.leading < 0:
            raise ValueError("minimal polynomial must be primitive with a "
                             "positive leading coefficient")
        if len(self.conjugates.roots) != p.degree:
            raise ValueError("conjugate count must equal the degree")

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @classmethod
    def from_minpoly(cls, p: IntPolynomial) -> "AlgebraicNumber":
        q = p.primitive_normalized()
        if q.degree < 1:
            raise ValueError("minimal polynomial must be nonconstant")
        return cls(q, roots(q))

    @classmethod
    def from_rational(cls, x) -> "AlgebraicNumber":
        r = Fraction(x)
        return cls.from_minpoly(IntPolynomial((-r.numerator, r.denominator)))

    @staticmethod
    def parse(x) -> Fraction | IntPolynomial:
        """What `of` reads x as, with no root solve: a rational (a number, a
        Fraction, or text such as "5/2"), or the polynomial of
        minimal-polynomial text "c0 c1 ... cd". ValueError if x is neither."""
        if isinstance(x, str) and " " in x.strip():
            p = IntPolynomial.from_text(x)
            if p.degree < 1:
                raise ValueError("minimal polynomial must be nonconstant")
            return p
        try:
            return Fraction(x)
        except ZeroDivisionError as exc:
            raise ValueError(f"{x!r} has a zero denominator") from exc

    @classmethod
    def of(cls, x) -> "AlgebraicNumber":
        """x itself, or the number that `parse` reads x as."""
        if isinstance(x, AlgebraicNumber):
            return x
        v = cls.parse(x)
        return cls.from_rational(v) if isinstance(v, Fraction) else cls.from_minpoly(v)


@dataclasses.dataclass(frozen=True)
class HeightReport:
    total: float
    archimedean: float
    nonarchimedean: float
    per_place: tuple[tuple[str, float], ...]
    method: str

    def __post_init__(self):
        if abs(self.total - (self.archimedean + self.nonarchimedean)) > 1e-12:
            raise ValueError("total must equal archimedean + nonarchimedean")
        if self.total < -1e-12:
            raise ValueError("height must be nonnegative")
        for tag, val in self.per_place:
            if val < -1e-15:
                raise ValueError(f"negative local height at place {tag}")


def _factor_by_trial_division(n: int) -> list[tuple[str, float]]:
    """Per-prime log contributions of a positive integer.

    Primes up to the trial bound get their own tag.  A leftover cofactor
    below the bound squared is a certified prime; anything larger is
    reported as a single residual place."""
    out: list[tuple[str, float]] = []
    m = n
    p = 2
    while p <= TRIAL_DIVISION_BOUND and p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((str(p), e * math.log(p)))
        p += 1 if p == 2 else 2
    if m > 1:
        if m <= TRIAL_DIVISION_BOUND * TRIAL_DIVISION_BOUND:
            out.append((str(m), math.log(m)))
        else:
            out.append(("residual", math.log(m)))
    return out


def _assemble(a: AlgebraicNumber, arch: float, method: str) -> HeightReport:
    d = a.degree
    lead = a.minpoly.leading
    nonarch = math.log(lead) / d
    per: list[tuple[str, float]] = [("inf", arch)]
    if lead > 1:
        if d == 1:
            per.extend(_factor_by_trial_division(lead))
        else:
            # no per-prime split for higher degree: the Gauss-lemma aggregate
            # (1/d) log(lead) is exact, a prime split would need ideal data
            per.append(("finite", nonarch))
    return HeightReport(total=arch + nonarch, archimedean=arch,
                        nonarchimedean=nonarch, per_place=tuple(per),
                        method=method)


# --------------------------------------------------------------------------- #
# the three heights
# --------------------------------------------------------------------------- #


def weil_height(a: AlgebraicNumber) -> HeightReport:
    """(1/d)(log lead + sum of log+ over the conjugates)."""
    arch = float(np.sum(np.log(np.maximum(np.abs(a.conjugates.roots), 1.0))))
    return _assemble(a, arch / a.degree, method="weil")


def rumely_height(a: AlgebraicNumber, e: CompactSetModel) -> HeightReport:
    """Weil height with log+ replaced by the Green function of a set.

    The normalization assumes a conjugation-symmetric set of capacity one;
    anything else still computes but earns a warning."""
    logcap = e.log_capacity
    if not math.isfinite(logcap):
        raise ValueError("set carries no usable equilibrium data")
    if (not e.symmetric) or abs(math.exp(logcap) - 1.0) > 0.01:
        warnings.warn(
            "height is normalized for conjugation-symmetric sets of "
            "capacity 1; this set is not one", UserWarning, stacklevel=2)
    arch = float(np.sum(green_eval_many(e, a.conjugates.roots))) / a.degree
    return _assemble(a, arch, method=f"rumely({e.kind})")


def canonical_height(p: IntPolynomial, alpha) -> HeightReport:
    """Map-adapted height: dynamical Green average plus denominator term."""
    ev = DynGreenEvaluator(p)
    if not p.is_monic:
        raise GoodReductionError(
            "non-monic map: the finite local heights only collapse to the "
            "denominator term when the map has good reduction at every "
            "finite place, i.e. is monic over the integers")
    a = AlgebraicNumber.of(alpha)
    vals, _ = ev.green_many(np.asarray(a.conjugates.roots, dtype=np.complex128))
    arch = float(np.sum(vals)) / a.degree
    return _assemble(a, arch, method=f"canonical({p.to_text()})")
