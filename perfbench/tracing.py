"""Outside-in layer tracing for the benchmark.

Wrappers are installed around feketedyn's public functions from outside the
package: no file under src/ knows about them. Each wrapper records one span
(name, start, end, parent, pass id) and counts read from the call's
arguments and return value. Spans stay in memory until the run ends.

`from .x import y` copies a binding into the importing module, so a wrapper
replaces every binding of the original function in every loaded feketedyn
module, including values of module-level dicts (cli.RUNNERS holds the
runners). The class attribute DynGreenEvaluator.green_many is replaced on
the class.
"""

from __future__ import annotations

import collections
import csv
import functools
import importlib
import json
import os
import sys
import time

import numpy as np

PACKAGE = "feketedyn"


def _size(z) -> int:
    return int(np.size(z))


# observers: (tracer, span name, call arguments, return value)

def _roots_obs(tr, label, args, out):
    tr.maximum(f"{label}.worst_residual", float(out.residual_bound))


def _green_obs(tr, label, args, out):
    tr.add(f"{label}.points", _size(args[1]))
    tr.add(f"{label}.undecided", int(np.count_nonzero(out[1])))


def _green_name(args):
    return "dynamics.green_many.exact" if args[0]._exact else "dynamics.green_many.float"


def _atoms_obs(tr, label, args, out):
    tr.add(f"{label}.atoms", len(out.points))


def _pixels_obs(tr, label, args, out):
    tr.add(f"{label}.pixels", int(out.values.size))


def _points_obs(tr, label, args, out):
    tr.add(f"{label}.points", _size(args[1]))


def _sources_obs(tr, label, args, out):
    # pullback solves one degree-d preimage problem per source sample
    tr.add(f"{label}.sources", out.params["count"] // out.params["pullback_degree"])


def _emit_obs(tr, label, args, out):
    tr.add(f"{label}.bytes", sum(os.path.getsize(p) for p in out))


# (module, attribute, span name or name(args), observer or None);
# contraction_check has no metric of its own: its span lets the spans of
# sampled_sets cover the pass
LAYERS = (
    ("polyarith", "roots", "polyarith.roots", _roots_obs),
    ("polyarith", "eval_intpoly", "polyarith.eval_intpoly", None),
    ("dynamics", "DynGreenEvaluator.green_many", _green_name, _green_obs),
    ("dynamics", "brolin_sample", "dynamics.brolin_sample", _atoms_obs),
    ("dynamics", "raster", "dynamics.raster", _pixels_obs),
    ("potential", "fekete_points", "potential.fekete_points", None),
    ("potential", "green_eval_many", "potential.green_eval_many", _points_obs),
    ("metric", "klimek_distance", "metric.klimek_distance", None),
    ("metric", "pullback", "metric.pullback", _sources_obs),
    ("metric", "grid_audit", "metric.grid_audit", None),
    ("metric", "measure_discrepancy", "metric.measure_discrepancy", None),
    ("metric", "contraction_check", "metric.contraction_check", None),
    ("heights", "canonical_height", "heights.canonical_height", None),
    ("heights", "rumely_height", "heights.rumely_height", None),
    ("heights", "weil_height", "heights.weil_height", None),
    ("harness", "run_bilu_rumely", "harness.run_bilu_rumely", None),
    ("harness", "run_dynamical_fs", "harness.run_dynamical_fs", None),
    ("harness", "run_runaway", "harness.run_runaway", None),
    ("harness", "emit", "harness.emit", _emit_obs),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Span and count recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, pass id]
        # pass id -> {key: value}; sums of counts, and maxima
        self.counts = collections.defaultdict(dict)
        self.maxima = collections.defaultdict(dict)
        self.pass_id = 0
        self._stack = []
        self._restore = []

    # ---------------------------------------------------------------- counts

    def add(self, key, n):
        c = self.counts[self.pass_id]
        c[key] = c.get(key, 0) + n

    def maximum(self, key, v):
        c = self.maxima[self.pass_id]
        c[key] = max(c.get(key, v), v)

    def record(self, name, start, end, parent=-1):
        self.spans.append([name, start, end, parent, self.pass_id])

    # ----------------------------------------------------------------- spans

    def _wrap(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            spans = tracer.spans
            idx = len(spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            spans.append([label, time.perf_counter(), 0.0, parent, tracer.pass_id])
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.add(f"{label}.failed", 1)
                raise
            finally:
                spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, label, args, out)
            return out

        return traced

    def install(self):
        importlib.import_module(f"{PACKAGE}.cli")  # loads every module
        mods = [m for k, m in sorted(sys.modules.items())
                if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for modname, attr, name, observe in LAYERS:
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(orig, name, observe))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, observe)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, orig, wrapper)
                    elif isinstance(val, dict):
                        for dk, dv in list(val.items()):
                            if dv is orig:
                                val[dk] = wrapper
                                self._restore.append((val.__setitem__, dk, orig))

    def _set(self, obj, key, orig, wrapper):
        setattr(obj, key, wrapper)
        self._restore.append((functools.partial(setattr, obj), key, orig))

    def uninstall(self):
        for setter, key, orig in reversed(self._restore):
            setter(key, orig)
        self._restore.clear()

    # ------------------------------------------------------------ aggregation

    def pass_layers(self, pass_id) -> dict:
        """calls, .s (inclusive) and .self_s per span name, plus the counts,
        for one pass; also 'top_s', the time covered by top-level spans."""
        out = {**self.counts.get(pass_id, {}), **self.maxima.get(pass_id, {})}
        child = collections.defaultdict(float)
        rows = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        for _, (name, t0, t1, parent, _) in rows:
            if parent >= 0:
                child[parent] += t1 - t0
        top = 0.0
        for i, (name, t0, t1, parent, _) in rows:
            dur = t1 - t0
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child[i]
            if parent < 0:
                top += dur
        out["top_s"] = top
        return out

    def merge_file(self, path):
        """Append the spans, counts and maxima a traced child wrote with
        dump(); the child ran one pass, the current one."""
        with open(path) as fh:
            data = json.load(fh)
        base = len(self.spans)
        for name, t0, t1, parent in data["spans"]:
            self.record(name, t0, t1, parent + base if parent >= 0 else -1)
        for key, n in data["counts"].items():
            self.add(key, n)
        for key, v in data["maxima"].items():
            self.maximum(key, v)

    def dump(self, path):
        """Write the spans, counts and maxima of this process's one pass."""
        with open(path, "w") as fh:
            json.dump({"spans": [s[:4] for s in self.spans],
                       "counts": self.counts[self.pass_id],
                       "maxima": self.maxima[self.pass_id]}, fh)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pass", "span", "parent", "name", "start_s", "end_s"])
            for i, (name, t0, t1, parent, pid) in enumerate(self.spans):
                w.writerow([pid, i, parent, name, repr(t0), repr(t1)])

