"""Self-test of the benchmark's tracing: run with

    python3 -m pytest perfbench/test_trace.py

Two traced passes of every workload must give the same counts, and those
counts must equal closed-form predictions. A wrapper that misses a
`from .x import y` binding then fails here instead of reading as a faster
layer. Top-level spans must cover nearly all of each pass, and the time
must sit in the layer the workload exists to stress.
"""

import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

import run

sys.path.insert(0, str(run.SRC))
os.environ["PYTHONPATH"] = str(run.SRC)  # for the command-line child

import tracing  # noqa: E402
import workloads  # noqa: E402
from feketedyn import harness, polyarith  # noqa: E402


def lucas(n: int) -> int:
    """Coefficient mass of 2 T_n(z/2): |2 T_n(i/2)| is the Lucas number."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.fixture(scope="module")
def workdir():
    run.WORK.mkdir(exist_ok=True)
    d = pathlib.Path(tempfile.mkdtemp(dir=run.WORK, prefix="selftest-"))
    yield d
    shutil.rmtree(d, ignore_errors=True)


def traced_passes(name, workdir, n=2):
    """Per-pass layer dicts and wall times of n traced passes."""
    wl = workloads.WORKLOADS[name](7, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    walls = {}
    try:
        for k in range(1, n + 1):
            d = workdir / f"{name}-{k}"
            d.mkdir()
            tracer.pass_id = k
            t0 = time.perf_counter()
            result = wl.run(d, tracer)
            walls[k] = time.perf_counter() - t0
            assert all(wl.check(result, d).checks.values())
    finally:
        tracer.uninstall()
    return [tracer.pass_layers(k) for k in walls], list(walls.values())


def counts(layers):
    return {k: v for k, v in layers.items() if not k.endswith((".s", "_s"))}


def assert_common(passes, walls):
    assert counts(passes[0]) == counts(passes[1])
    for layers, wall in zip(passes, walls):
        assert layers["top_s"] >= run.MIN_COVERAGE * wall


def test_root_ladders(workdir):
    passes, walls = traced_passes("root_ladders", workdir)
    assert_common(passes, walls)
    wl = workloads.RootLadders
    chunks = math.ceil(wl.N_ATOMS / 1024)
    lo, hi = wl.RUNAWAY_DEGREES
    predicted = sum(wl.N_ATOMS + 20 * chunks for _ in wl.CHECKPOINTS) + (hi - lo + 1)
    layers = passes[0]
    assert layers["polyarith.roots.calls"] == predicted
    assert layers["dynamics.brolin_sample.atoms"] == wl.N_ATOMS * len(wl.CHECKPOINTS)
    assert layers["heights.weil_height.calls"] == hi - lo + 1
    assert "polyarith.eval_intpoly.calls" not in layers
    assert layers["polyarith.roots.s"] >= 0.5 * walls[0]


def test_chebyshev_ladder(workdir):
    passes, walls = traced_passes("chebyshev_ladder", workdir)
    assert_common(passes, walls)
    wl = workloads.ChebyshevLadder
    exact_rungs = sum(lucas(n) > polyarith.EXACT_EVAL_COEFF_SUM for n in wl.CHECKPOINTS)
    layers = passes[0]
    # the target's samples, then one rational probe point each
    assert layers["dynamics.green_many.exact.points"] == \
        exact_rungs * (harness.TARGET_SAMPLES + len(wl.PROBES))
    # every sample on [-2, 2] stays bounded for the whole exact cap; each
    # probe escapes after one step
    assert layers["dynamics.green_many.exact.undecided"] == exact_rungs * harness.TARGET_SAMPLES
    assert layers["polyarith.eval_intpoly.calls"] == exact_rungs * (
        harness.TARGET_SAMPLES * harness.CHEB_EXACT_MAX_ITER + len(wl.PROBES))
    assert layers["heights.canonical_height.calls"] == len(wl.CHECKPOINTS) * len(wl.PROBES)
    assert layers["dynamics.green_many.exact.s"] >= 0.5 * walls[0]


def test_containment_cli(workdir):
    passes, walls = traced_passes("containment_cli", workdir)
    assert_common(passes, walls)
    layers = passes[0]
    n_rungs = len(harness.DEFAULT_LADDER)
    assert layers["cli.main.calls"] == 1
    # reached through cli.RUNNERS, a dict holding the runner
    assert layers["harness.run_dynamical_fs.calls"] == 1
    assert layers["dynamics.raster.pixels"] == math.prod(harness.RASTER_RESOLUTION)
    assert layers["dynamics.brolin_sample.atoms"] == 1024 * n_rungs
    assert layers["harness.emit.calls"] == 1


def test_sampled_sets(workdir):
    passes, walls = traced_passes("sampled_sets", workdir)
    assert_common(passes, walls)
    layers = passes[0]
    # four pullbacks of 4096-sample sets, each capped at MAX_PULLBACK_SOURCES
    from feketedyn.metric import MAX_PULLBACK_SOURCES
    sources = 4 * MAX_PULLBACK_SOURCES
    assert layers["metric.pullback.sources"] == sources
    assert layers["polyarith.roots.calls"] == sources + len(workloads.SampledSets.PROBES)
    assert layers["potential.fekete_points.s"] > 0


def test_wrappers_replace_every_binding():
    tracer = tracing.Tracer()
    import feketedyn.cli
    originals = {(m, a): getattr(sys.modules[f"feketedyn.{m}"], a)
                 for m, a, _, _ in tracing.LAYERS if "." not in a}
    tracer.install()
    try:
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("feketedyn"):
                for val in vars(mod).values():
                    assert not any(val is o for o in originals.values()), modname
        runner = originals[("harness", "run_dynamical_fs")]
        assert all(v is not runner for v in feketedyn.cli.RUNNERS.values())
    finally:
        tracer.uninstall()
    for (m, a), orig in originals.items():
        assert getattr(sys.modules[f"feketedyn.{m}"], a) is orig


def test_refuses_to_run_without_sources(workdir):
    bare = workdir / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "root_ladders",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
