"""feketedyn benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
The seed makes the workload's inputs; the program receives only those.
Each pass starts when the previous one ends. Everything runs in this
process, except the set-up probes and the command-line workload, which
use one child process at a time. feketedyn's `threads` argument and the
CLI's --threads are never passed, and BLAS pools are held to one thread.

Pass 0 warms up and gives the reference digest; the later passes are
timed. Every pass is checked, and each check is one attempted operation.
With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 untraced and traced passes alternate, and the last line reports
the per-layer metrics, the tracing overhead and the span coverage.
"""

import argparse
import gc
import hashlib
import itertools
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MIN_TIMED_PASSES = 3
# no pass starts once the run could not end within this
HARD_LIMIT_S = 150.0
# top-level spans must cover this share of a traced pass
MIN_COVERAGE = 0.9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Ledger:
    """Attempted and failed operations, by check name."""

    def __init__(self):
        self.attempted = 0
        self.failed = {}

    def settle(self, checks: dict):
        for name, ok in checks.items():
            self.attempted += 1
            if not ok:
                self.failed[name] = self.failed.get(name, 0) + 1

    @property
    def n_failed(self):
        return sum(self.failed.values())


def measure_setup(name, seed, run_dir, ledger):
    """Median wall time of fresh interpreters that import feketedyn and
    build the workload's inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        d = run_dir / f"setup{k}"
        d.mkdir()
        cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
               "setup", name, str(seed), str(d)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            proc = None
        times.append(time.perf_counter() - t0)
        ledger.settle({"setup_exit_zero": proc is not None and proc.returncode == 0})
        if proc is not None and proc.returncode:
            sys.stdout.write(proc.stderr.decode(errors="replace"))
    return statistics.median(times)


def run_passes(wl, run_dir, seconds, started, ledger, state, tracer=None):
    """Closed loop of passes for `seconds`, and until each kind of pass was
    timed MIN_TIMED_PASSES times. With a tracer, the timed passes alternate
    untraced and traced, so both kinds see the same machine. Returns
    {pass id: seconds} for the untraced and for the traced timed passes."""
    plain, traced = {}, {}
    t_end, last = time.monotonic() + seconds, 0.0
    for k in itertools.count():
        enough = (len(plain) >= MIN_TIMED_PASSES and time.monotonic() >= t_end
                  and (tracer is None or len(traced) >= MIN_TIMED_PASSES))
        if enough or time.monotonic() - started + last > HARD_LIMIT_S:
            break
        pass_dir = run_dir / f"pass{k}"
        pass_dir.mkdir()
        this_tracer = tracer if tracer is not None and k > 0 and k % 2 == 0 else None
        if this_tracer is not None:
            tracer.pass_id = k
            tracer.install()
        gc.collect()  # every pass starts from a collected heap
        t0 = time.perf_counter()
        try:
            result, error = wl.run(pass_dir, this_tracer), None
        except Exception as exc:  # a failed pass is data, reported by name
            result, error = None, exc
        finally:
            last = time.perf_counter() - t0
            if this_tracer is not None:
                tracer.uninstall()
        made, digest = {}, ""
        if error is None:
            made, oracle_err, digest = wl.check(result, pass_dir)
            state["oracle_err"] = max(state.get("oracle_err", 0.0), oracle_err)
        else:
            print(f"pass {k} raised {type(error).__name__}: {error}")
        checks = {c: made.get(c, False) for c in wl.CHECKS}
        checks["no_exception"] = error is None
        if not state.get("digest"):
            state["digest"] = digest  # the first pass that produced output
        checks["digest_stable"] = bool(digest) and digest == state["digest"]
        ledger.settle(checks)
        if k > 0:
            (plain if this_tracer is None else traced)[k] = last
        shutil.rmtree(pass_dir)
    return plain, traced


def layer_metrics(names, tracer, timed, untraced_run_s, ledger):
    """Per-layer values: medians of times over the traced passes; counts,
    which must repeat exactly from pass to pass."""
    per_pass = {k: tracer.pass_layers(k) for k in timed}
    keys = set().union(*per_pass.values())
    out, unstable = {}, []
    for key in keys:
        vals = [per_pass[k].get(key, 0) for k in timed]
        if key.endswith((".s", "_s")):
            out[key] = statistics.median(vals)
        else:
            out[key] = vals[0]
            if any(v != vals[0] for v in vals):
                unstable.append(key)
    coverage = statistics.median(per_pass[k].get("top_s", 0.0) / timed[k] for k in timed)
    ledger.settle({"trace.counts_repeat": not unstable,
                   "trace.coverage": coverage >= MIN_COVERAGE})
    if unstable:
        print("trace counts that did not repeat:", ", ".join(sorted(unstable)))
    traced_run_s = statistics.median(timed.values())
    out.update({
        "trace.run_s": traced_run_s,
        "trace.untraced_run_s": untraced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.coverage": coverage,
    })
    return {n: out.get(n, 0.0 if n.endswith((".s", "_s")) else 0) for n in names}


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "feketedyn").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # the benchmark's checkouts are plain trees
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def metadata(args) -> dict:
    import numpy as np
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "load": "one caller, closed loop, single process; the command-line "
                "workload runs one child at a time; --threads is never passed",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "feketedyn" / "__init__.py").is_file():
        print(f"perfbench: no feketedyn sources under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    # before numpy loads, in this process and in every child
    for v in BLAS_VARS:
        os.environ[v] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import feketedyn
    if pathlib.Path(feketedyn.__file__).resolve().parent != SRC / "feketedyn":
        print(f"perfbench: imported feketedyn from {feketedyn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    started = time.monotonic()
    meta = metadata(args)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    ledger, state = Ledger(), {}
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        if args.trace == 0:
            setup_s = measure_setup(args.workload, args.seed, run_dir, ledger)
            timed, _ = run_passes(wl, run_dir, args.seconds, started, ledger, state)
            who = (resource.RUSAGE_CHILDREN if getattr(wl, "rss_of_children", False)
                   else resource.RUSAGE_SELF)
            values = {
                "setup_s": setup_s,
                "run_s": statistics.median(timed.values()),
                "oracle_err": state.get("oracle_err", 0.0),
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]
        else:
            tracer = tracing.Tracer()
            plain, timed = run_passes(wl, run_dir, args.seconds, started, ledger,
                                      state, tracer)
            wanted = spec["per_layer"]
            values = layer_metrics([m["name"] for m in wanted], tracer, timed,
                                   statistics.median(plain.values()), ledger)
            tracer.write_csv(WORK / f"spans-{args.workload}.csv")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    meta["pass_s"] = [timed[k] for k in sorted(timed)]
    meta["digest"] = state.get("digest")
    print(json.dumps({"meta": meta}, sort_keys=True))
    for name, n in sorted(ledger.failed.items()):
        print(f"FAILED {name}: {n} time(s)")
    print(f"fail_frac = {ledger.n_failed}/{ledger.attempted} = "
          f"{ledger.n_failed / ledger.attempted:.6g}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<40} {values[m['name']]!r:>24} {m['unit']}")
    print(json.dumps({"correct": ledger.n_failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
