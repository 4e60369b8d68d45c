"""The benchmark's four workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up the user pays once), runs one pass with run(), and judges a pass
with check(), outside the timed region. A pass rebuilds every set model,
because a command-line user pays the Fekete cache fill on every run.

The sizes are smaller than the acceptance tests' ladders so that a run
holds enough passes for a steady median; README.md gives the reasons.

Layers are called through their module attributes (harness.emit, not a
copied name), so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import pathlib
import subprocess
import sys
import warnings
from typing import NamedTuple

import numpy as np

from feketedyn import harness, heights, metric, polyarith, potential

# Deviations below this are rounding noise, not oracle error; reporting them
# at this floor keeps oracle_err nonzero and ulp-level churn from reading as
# a regression, while any real loss of accuracy still shows.
ORACLE_FLOOR = 1e-12
CLI_TIMEOUT_S = 120
PERFBENCH = pathlib.Path(__file__).resolve().parent


class Outcome(NamedTuple):
    checks: dict  # name in CHECKS -> passed; a missing name counts as failed
    oracle_err: float
    digest: str


def _floor(err: float) -> float:
    return max(float(err), ORACLE_FLOOR)


def _digest(paths, rows) -> str:
    """SHA-256 over the emitted files (name and bytes) and the report rows."""
    h = hashlib.sha256()
    for p in paths:
        p = pathlib.Path(p)
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    h.update(repr(rows).encode())
    return h.hexdigest()


class RootLadders:
    """Cyclotomic maps against the unit circle, then the runaway ladder."""

    name = "root_ladders"
    CHECKPOINTS = (17, 53)
    N_ATOMS = 256
    RUNAWAY_DEGREES = (4, 14)
    CHECKS = ("cyclotomic.h_E_zero", "cyclotomic.dist_zero", "cyclotomic.gamma_decreasing",
              "runaway.inside_d_minus_1", "runaway.height_band", "runaway.no_violations")

    def __init__(self, seed: int, workdir):
        self.cyc = harness.ExperimentSpec(
            name="cyclotomic", family="cyclotomic",
            set_config={"kind": "circle", "center": 0, "radius": 1},
            degree_range=(self.CHECKPOINTS[0], self.CHECKPOINTS[-1]),
            checkpoints=self.CHECKPOINTS, n_atoms=self.N_ATOMS, seed=seed)
        self.runaway = harness.ExperimentSpec(
            name="runaway", family="runaway",
            degree_range=self.RUNAWAY_DEGREES, seed=seed)
        self._exact_h = None

    def run(self, out_dir, tracer=None):
        cyc = harness.run_bilu_rumely(self.cyc)
        run = harness.run_runaway(self.runaway)
        files = (harness.emit(cyc, self.cyc.outputs, out_dir)
                 + harness.emit(run, self.runaway.outputs, out_dir))
        return cyc, run, files

    def exact_heights(self) -> dict:
        """Weil heights of the runaway maps from 40-digit roots."""
        if self._exact_h is None:
            import mpmath
            mpmath.mp.dps = 40
            self._exact_h = {}
            lo, hi = self.RUNAWAY_DEGREES
            for d in range(lo, hi + 1):
                coeffs = polyarith.runaway_family(d).coeffs[::-1]
                rs = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
                total = sum(mpmath.log(max(mpmath.mpf(1), abs(r))) for r in rs)
                self._exact_h[d] = float(total / d)
        return self._exact_h

    def check(self, result, out_dir) -> Outcome:
        cyc, run, files = result
        gammas = [r[4] for r in cyc.rows]
        exact = self.exact_heights()
        checks = {
            "cyclotomic.h_E_zero": all(r[2] == 0.0 for r in cyc.rows),
            "cyclotomic.dist_zero": all(r[3] == 0.0 for r in cyc.rows),
            "cyclotomic.gamma_decreasing": all(a > b for a, b in zip(gammas, gammas[1:])),
            "runaway.inside_d_minus_1": all(r[2] == r[0] - 1 for r in run.rows),
            "runaway.height_band": all(abs(r[4] - r[5]) <= 0.1 * r[5] for r in run.rows),
            "runaway.no_violations": not run.violations,
        }
        err = max([abs(r[2]) for r in cyc.rows] + [r[3] for r in cyc.rows]
                  + [abs(r[4] - exact[r[0]]) for r in run.rows])
        return Outcome(checks, _floor(err), _digest(files, cyc.rows + run.rows))


class ChebyshevLadder:
    """Chebyshev maps against [-2, 2]: exact big-integer Green values."""

    name = "chebyshev_ladder"
    CHECKPOINTS = (4, 8, 16, 32, 64)
    N_ATOMS = 256
    PROBES = ("3", "5/2")
    GAMMA_MAX = 1e-3
    CHECKS = ("gamma_le_1e-3", "height_gap_rows_ok")

    def __init__(self, seed: int, workdir):
        self.spec = harness.ExperimentSpec(
            name="chebyshev", family="chebyshev",
            set_config={"kind": "interval", "a": -2, "b": 2},
            degree_range=(self.CHECKPOINTS[0], self.CHECKPOINTS[-1]),
            checkpoints=self.CHECKPOINTS, probes=self.PROBES,
            n_atoms=self.N_ATOMS, seed=seed)

    def run(self, out_dir, tracer=None):
        rep = harness.run_bilu_rumely(self.spec)
        return rep, harness.emit(rep, self.spec.outputs, out_dir)

    def check(self, result, out_dir) -> Outcome:
        rep, files = result
        gaps = rep.notes.get("height_gap", [])
        # J(2 T_n(z/2)) = [-2, 2], so every gamma is oracle error
        gammas = [r[4] for r in rep.rows]
        checks = {
            "gamma_le_1e-3": all(g <= self.GAMMA_MAX for g in gammas),
            "height_gap_rows_ok": (len(gaps) == len(self.CHECKPOINTS) * len(self.PROBES)
                                   and all(g["ok"] for g in gaps)),
        }
        return Outcome(checks, _floor(max(gammas)), _digest(files, rep.rows))


class ContainmentCli:
    """`fekete-dyn experiment dynamical_fs` as a child process."""

    name = "containment_cli"
    CONFIG = """name = fs
family = power_maps
set = {{ kind = disk, center = 0, radius = 1 }}
outputs = [csv, json, pgm]
n_atoms = 1024
seed = {seed}
"""
    EXPECTED_FILES = ["fs.csv", "fs.json", "fs_julia.pgm", "fs_julia.pgm.json"]
    CHECKS = ("exit_zero", "manifest_lists_outputs", "threshold_degree_set",
              "no_containment_violations")

    # peak memory is the CLI child's, not the benchmark process's
    rss_of_children = True

    def __init__(self, seed: int, workdir):
        import feketedyn.cli  # noqa: F401  (the import a CLI user pays)
        self.config = pathlib.Path(workdir) / "fs.cfg"
        self.config.write_text(self.CONFIG.format(seed=int(seed)))

    def run(self, out_dir, tracer=None):
        out_dir = pathlib.Path(out_dir)
        argv = ["experiment", "dynamical_fs", "--config", str(self.config),
                "--out", str(out_dir / "out")]
        if tracer is None:
            cmd = [sys.executable, "-m", "feketedyn.cli", *argv]
        else:
            spans = out_dir / "spans.json"
            cmd = [sys.executable, str(PERFBENCH / "child.py"), "cli", str(spans), *argv]
        with open(out_dir / "child.log", "wb") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=CLI_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if tracer is not None and rc == 0:
            tracer.merge_file(spans)
        return rc

    def check(self, rc, out_dir) -> Outcome:
        out = pathlib.Path(out_dir) / "out"
        checks = {"exit_zero": rc == 0}
        try:
            manifest = json.loads((out / "MANIFEST.json").read_text())
            report = json.loads((out / "fs.json").read_text())
        except (OSError, ValueError):
            return Outcome(checks, 0.0, "")  # the checks not made count as failed
        checks["manifest_lists_outputs"] = manifest["files"] == self.EXPECTED_FILES
        checks["threshold_degree_set"] = report["notes"].get("threshold_degree") is not None
        checks["no_containment_violations"] = not any(
            v.get("kind") == "containment" for v in report["violations"])
        # the filled set of z^n is the closed unit disk: gamma is oracle error
        err = max(row[1] for row in report["rows"])
        files = [out / f for f in manifest["files"]] + [out / "MANIFEST.json"]
        return Outcome(checks, _floor(err), _digest(files, report["rows"]))


class SampledSets:
    """Sets without a closed-form Green function, against pullback oracles."""

    name = "sampled_sets"
    UNION = ((-2.0, -1.0), (1.0, 2.0))
    SQUARE = (-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j)
    # roots of these minimal polynomials: sqrt 3, sqrt 5, (3 +- sqrt 5)/2
    PROBES = ("-3 0 1", "-5 0 1", "1 -3 1")
    CHEB3_ORACLE_MAX = 1e-9
    CHECKS = ("contraction_ok", "cheb3_pullback_oracle")

    def __init__(self, seed: int, workdir):
        # a seeded rotation of the square: capacity is rotation invariant
        theta = float(np.random.default_rng(seed).uniform(0.0, math.pi / 2))
        self.square = tuple(v * cmath.exp(1j * theta) for v in self.SQUARE)
        self.z2 = polyarith.IntPolynomial((0, 0, 1))
        self.cheb3 = polyarith.IntPolynomial((0, -3, 0, 1))  # 2 T_3(z/2)
        self.cheb2 = polyarith.IntPolynomial((-2, 0, 1))
        self.probes = tuple(polyarith.IntPolynomial.from_text(t) for t in self.PROBES)

    def run(self, out_dir, tracer=None):
        csm = potential.CompactSetModel
        side = metric.side_from_set
        union = csm.union_of_intervals(self.UNION)
        # z^2 maps the union onto [1, 4]: g_union(z) = g_[1,4](z^2) / 2
        oracle = metric.pullback(self.z2, csm.interval(1.0, 4.0))
        pair = metric.GreenPair(side(union), side(oracle))
        out = {"union_klimek": metric.klimek_distance(pair),
               "union_audit": metric.grid_audit(pair)}
        seg = csm.interval(-2.0, 2.0)
        cheb = metric.pullback(self.cheb3, seg)
        out["cheb3_klimek"] = metric.klimek_distance(metric.GreenPair(side(cheb), side(seg)))
        out["square_log_cap"] = csm.polyline_boundary(self.square).log_capacity
        out["contraction"] = tuple(metric.contraction_check(self.cheb2, seg, csm.disk(0.0, 1.0)))
        with warnings.catch_warnings():
            # the union has capacity sqrt(3)/2, so rumely_height warns
            warnings.simplefilter("ignore", UserWarning)
            out["rumely"] = [
                heights.rumely_height(heights.AlgebraicNumber.from_minpoly(p), union).total
                for p in self.probes]
        return out

    def check(self, out, out_dir) -> Outcome:
        checks = {"contraction_ok": bool(out["contraction"][2]),
                  "cheb3_pullback_oracle": out["cheb3_klimek"] <= self.CHEB3_ORACLE_MAX}
        err = max(out["union_klimek"], out["union_audit"]["grid_max"], out["cheb3_klimek"])
        blob = json.dumps(out, sort_keys=True, default=repr)
        return Outcome(checks, _floor(err), hashlib.sha256(blob.encode()).hexdigest())


WORKLOADS = {w.name: w for w in (RootLadders, ChebyshevLadder, ContainmentCli, SampledSets)}
