"""Experiment orchestration: configured runs, trend checks, report emission.

Three runners cover the desk-scale experiments:

* run_bilu_rumely: per-degree table tying a polynomial family to a fixed
  conjugation-symmetric target set of capacity one (root-cloud diameter,
  set height of the root cloud, distance of the cloud to the set, sup-norm
  Green distance, moment discrepancy of the backward-orbit measure against
  the target's equilibrium measure);
* run_dynamical_fs: containment of the family's filled sets in an
  epsilon-neighborhood of a target, judged by the threshold criterion
  gamma < delta/2 where delta is the Green minimum on the neighborhood's
  boundary ring;
* run_runaway: the drift family x^d - N x^(d-1) + 1 with N = floor(e^sqrt(d)),
  whose conjugates split into d-1 small roots and one runaway root.

ExperimentSpec is the one check of experiment input: a config (through
spec_from_config) and a Python caller get the same normalised fields, or
the same ConfigError before any work, and nothing downstream re-casts.
Reports carry their configuration and seed. Emission produces CSV (fixed
column order, floats at 12 significant digits), a JSON mirror, optional PGM
rasters, and a MANIFEST.json with a configuration hash, so a rerun with the
same config and seed is byte-identical.
Trend assertions never raise; failures land in the report's violations
array.
"""

import dataclasses
import functools
import hashlib
import json
import math
import pathlib
import re

import numpy as np

from . import __version__
from .dynamics import (
    atoms_bbox,
    brolin_sample,
    raster,
    write_json,
    write_pgm,
)
from .heights import (
    AlgebraicNumber,
    canonical_height,
    rumely_height,
    weil_height,
)
from .metric import (
    MIN_SIDE_SAMPLES,
    GreenPair,
    klimek_distance,
    measure_discrepancy,
    side_from_map,
    side_from_set,
)
from .polyarith import (
    IntPolynomial,
    RootSet,
    chebyshev_monic,
    cyclotomic,
    power_map,
    roots,
    runaway_drift,
    runaway_family,
)
from .potential import (
    CompactSetModel,
    DiscreteMeasure,
    equilibrium_measure,
    green_eval_many,
    transfinite_diameter_of_points,
)

OUTPUT_FORMATS = ("csv", "json", "pgm")
DEFAULT_LADDER = (4, 8, 16, 32, 64, 128)

BILU_COLUMNS = ("n", "d_n", "h_E", "dist", "gamma", "discrepancy")
FS_COLUMNS = ("n", "gamma", "max_dist", "contained")
RUNAWAY_COLUMNS = ("d", "N_d", "inside", "max_modulus", "h", "target")

TARGET_SAMPLES = 1024
RASTER_RESOLUTION = (256, 256)
TREND_FLOOR = 1e-9
TREND_SLACK = 0.10
# a probe's canonical and target heights differ by at most gamma, the
# distance of the two Green functions; the gap check allows this on top
HEIGHT_GAP_TOL = 1e-3


# --------------------------------------------------------------------------- #
# experiment configuration record
# --------------------------------------------------------------------------- #


class ConfigError(ValueError):
    """Outside input refused before any work: a file that does not parse, a
    polynomial read_poly refuses, a set that cannot be built, or a spec,
    family, target or degree range the experiment does not take."""


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One configured experiment; every knob that affects the output.
    Integers pass config_int, lists become tuples, probes text, user_polys
    IntPolynomials and epsilon a float; a refusal raises ConfigError."""

    name: str
    family: str
    set_config: dict = dataclasses.field(default_factory=dict)
    degree_range: tuple = (4, 128)
    checkpoints: tuple | None = None
    probes: tuple = ()
    outputs: tuple = ("csv", "json")
    seed: int = 0
    epsilon: float = 0.1
    n_atoms: int = 1024
    user_polys: tuple = ()

    def __post_init__(self):
        try:
            self._normalise()
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"experiment config: {exc}") from exc

    def _normalise(self):
        def put(field, value):
            object.__setattr__(self, field, value)

        def ints(key, size=None):
            return tuple(config_int("experiment config", key, v)
                         for v in _listed(key, getattr(self, key), size))

        # the name becomes the report's file names, so it must stay in out_dir
        name = str(self.name)
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ValueError(f"name must be one plain file name, not {name!r}")
        put("name", name)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        put("set_config", _set_block(self.set_config))
        lo, hi = ints("degree_range", size=2)
        if not 1 <= lo <= hi:
            raise ValueError("degree_range must be a nonempty integer interval")
        put("degree_range", (lo, hi))
        if self.checkpoints is not None:
            cps = ints("checkpoints")
            if not cps:
                raise ValueError("checkpoints must be nonempty when given")
            if list(cps) != sorted(set(cps)) or cps[0] < 2:
                raise ValueError("checkpoints must be strictly increasing, >= 2")
            if cps[0] < lo or cps[-1] > hi:
                raise ValueError("checkpoints must lie inside degree_range")
            put("checkpoints", cps)
        if self.family in _LADDERS:
            rungs = self.effective_checkpoints()
            if not rungs:
                raise ValueError(
                    "no default checkpoints inside degree_range; give explicit ones")
            # a map a float cannot hold would fail in the runner, after output
            for n in rungs:
                read_poly(f"experiment config: {self.family} checkpoint {n}",
                          _LADDERS[self.family][0](n), 2)
        outputs = _listed("outputs", self.outputs)
        if not all(o in OUTPUT_FORMATS for o in outputs):
            raise ValueError(f"outputs must be a subset of {OUTPUT_FORMATS}")
        put("outputs", outputs)
        put("seed", config_int("experiment config", "seed", self.seed))
        epsilon = config_float("experiment config", "epsilon", self.epsilon)
        if not 0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, not {epsilon!r}")
        put("epsilon", epsilon)
        put("n_atoms", config_int("experiment config", "n_atoms", self.n_atoms,
                                  least=MIN_SIDE_SAMPLES))
        probes = tuple(str(p) for p in _listed("probes", self.probes))
        for p in probes:
            v = AlgebraicNumber.parse(p)
            read_poly("experiment config: probe", v if isinstance(v, IntPolynomial)
                      else IntPolynomial((-v.numerator, v.denominator)), 1)
        put("probes", probes)
        polys = tuple(read_poly("experiment config: user_polys", p, 2)
                      for p in _listed("user_polys", self.user_polys))
        if self.family == "user" and not polys:
            raise ValueError("user family needs user_polys")
        put("user_polys", polys)

    def effective_checkpoints(self) -> tuple:
        if self.checkpoints is not None:
            return self.checkpoints
        lo, hi = self.degree_range
        return tuple(d for d in DEFAULT_LADDER if lo <= d <= hi)

    def config_dict(self) -> dict:
        """JSON-safe snapshot used for the MANIFEST hash: the normalised
        fields, under the config's key names."""
        cfg = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        cfg["set"] = dict(cfg.pop("set_config"))
        cfg["user_polys"] = [p.to_text() for p in self.user_polys]
        return cfg


@dataclasses.dataclass
class Report:
    name: str
    columns: tuple
    rows: list
    seed: int
    config: dict
    violations: list
    notes: dict
    rasters: list


# --------------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------------- #


# the keys a set block of each kind reads, beside "kind"
_SET_KEYS = {"interval": ("a", "b"), "disk": ("center", "radius"),
             "circle": ("center", "radius"), "union_of_intervals": ("intervals",)}


def build_set(config: dict, samples: int | None = None) -> CompactSetModel:
    """Catalog set from a flat config block, e.g. {kind = disk, radius = 1}.
    A block that is not a dict, an unknown kind, a key the kind does not
    read, or values the kind's constructor refuses, raise ConfigError."""
    cfg = _set_block(config)
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _SET_KEYS:
        raise ConfigError(f"unknown set kind {kind!r}")
    what = f"set kind {kind!r}"
    check_keys(what, cfg, ("kind", *_SET_KEYS[kind]))
    kw = {} if samples is None else {"samples": samples}
    num = functools.partial(config_float, what)
    try:
        if kind == "interval":
            return CompactSetModel.interval(num("a", cfg["a"]), num("b", cfg["b"]), **kw)
        if kind in ("disk", "circle"):
            ctor = CompactSetModel.disk if kind == "disk" else CompactSetModel.circle
            c = cfg.get("center", 0)
            if isinstance(c, str):
                try:
                    c = complex(c.replace(" ", ""))
                except ValueError:
                    raise ConfigError(f"{what}: center {c!r} is not a complex number") from None
            else:  # a number or [re, im]
                x, y = c if isinstance(c, (list, tuple)) else (c, 0)
                c = complex(num("center", x), num("center", y))
            return ctor(c, num("radius", cfg["radius"]), **kw)
        # a union_of_intervals
        iv = cfg["intervals"]
        if iv and isinstance(iv[0], (list, tuple)):
            pairs = [(num("intervals", a), num("intervals", b)) for a, b in iv]
        else:
            if len(iv) % 2:
                raise ValueError("flat interval list needs an even length")
            flat = [num("intervals", x) for x in iv]
            pairs = list(zip(flat[0::2], flat[1::2]))
        return CompactSetModel.union_of_intervals(pairs, **kw)
    except KeyError as exc:
        raise ConfigError(f"{what} needs key {exc}") from exc
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def check_keys(what: str, cfg: dict, keys) -> None:
    """Raise ConfigError naming every key of cfg outside keys: a misspelt
    key would otherwise leave its default in force."""
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(f"{what}: unknown key {', '.join(map(repr, unknown))}")


def config_int(what: str, key: str, value, least: int | None = None) -> int:
    """The value of a config key that takes integers, not below least if
    given: an int that is not a bool, or an integral float such as JSON's
    1024.0. Anything else raises ConfigError naming the key, where int()
    would truncate n_atoms = 300.9 to 300 atoms and read seed = true as 1."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what}: {key} takes integers, not {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{what}: need {key} >= {least}, got {value}")
    return value


def config_float(what: str, key: str, value) -> float:
    """The value of a config key that takes numbers: an int that is not a
    bool, or a float, that a float can hold. Anything else raises
    ConfigError naming the key, where float() would read epsilon = true as
    1.0 and a = "2" as 2."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{what}: {key} takes numbers, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what}: {key} takes numbers a float can hold") from None


def read_poly(what: str, value, least: int) -> IntPolynomial:
    """An IntPolynomial or its text `c0 c1 ... cd`, of degree >= least and with
    coefficients a float can hold, as root solves and float Green values
    read them; else ConfigError naming what."""
    try:
        poly = (value if isinstance(value, IntPolynomial)
                else IntPolynomial.from_text(str(value)))
    except ValueError as exc:
        raise ConfigError(f"{what} needs integer coefficients 'c0 c1 ... cd', "
                          f"got {str(value)!r} ({exc})") from exc
    if poly.degree < least:
        raise ConfigError(f"{what} needs degree >= {least}, got {poly.to_text()!r}")
    try:
        float(max(map(abs, poly.coeffs)))
    except OverflowError:
        raise ConfigError(f"{what} needs coefficients a float can hold") from None
    return poly


def _set_block(config) -> dict:
    # a copy of a set config, which must be a {...} block
    if not isinstance(config, dict):
        raise ConfigError(f"set config must be a {{...}} block, not {config!r}")
    return dict(config)


def parse_config(path) -> dict:
    """Flat key-value text (`key = value`, `{...}` blocks, `[...]` lists,
    `#` comments outside quotes) in UTF-8, less a leading byte-order mark; a
    file whose first non-blank character is `{` is read as JSON. A file that
    cannot be read or parsed, repeats a key or leaves a quote open raises
    ConfigError."""
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8-sig")
        if text.lstrip().startswith("{"):
            return json.loads(text, object_pairs_hook=_pairs)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config {str(path)!r}: {exc}") from exc
    lines = [_uncommented(raw).strip() for raw in text.splitlines()]
    return _pairs(_key_value(line) for line in lines if line)


# a quoted string, else one character; a quote with no partner reads alone
_QUOTE_SCAN = r"""'[^']*'|"[^"]*"|."""


def _uncommented(line: str) -> str:
    # the line up to its first `#` outside quotes; a quote left open is an error
    kept = []
    for chunk in re.findall(_QUOTE_SCAN, line):
        if chunk == "#":
            break
        if chunk in ("'", '"'):
            raise ConfigError(f"unterminated {chunk} in {line.strip()!r}")
        kept.append(chunk)
    return "".join(kept)


def _pairs(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"repeated key {key!r}")
        out[key] = value
    return out


def _key_value(part: str) -> tuple:
    key, eq, value = part.partition("=")
    if not eq:
        raise ConfigError(f"expected 'key = value', got {part!r}")
    return key.strip(), _parse_value(value)


def _split_top(s: str) -> list:
    # the items of a list or the parts of a block: s split at its commas
    # outside brackets and quotes
    parts, depth, cur = [], 0, []
    for chunk in re.findall(_QUOTE_SCAN, s):
        if chunk in ("[", "{"):
            depth += 1
        elif chunk in ("]", "}"):
            depth -= 1
        if chunk == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(chunk)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_value(s: str):
    s = s.strip()
    if s.startswith("[") and s.endswith("]"):
        return [_parse_value(p) for p in _split_top(s[1:-1])]
    if s.startswith("{") and s.endswith("}"):
        return _pairs(map(_key_value, _split_top(s[1:-1])))
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "'\"":
        return s[1:-1]
    for cast in (int, float):
        try:
            return cast(s)
        except ValueError:
            pass
    return s


# the top-level keys of an experiment config
SPEC_KEYS = ("name", "family", "set", "degree_range", "checkpoints",
              "probes", "outputs", "seed", "epsilon", "n_atoms", "user_polys")


def spec_from_config(cfg: dict, seed_override: int | None = None) -> ExperimentSpec:
    """The spec a parsed config describes; a key it does not read, or a
    value the spec refuses, raises ConfigError."""
    check_keys("experiment config", cfg, SPEC_KEYS)
    kw = {"name": "experiment", "family": "", **cfg}
    kw["set_config"] = kw.pop("set", {})
    if seed_override is not None:
        kw["seed"] = seed_override
    return ExperimentSpec(**kw)


def _listed(key: str, val, size: int | None = None) -> tuple:
    """val as a tuple; it must be a [...] list or a tuple (of size items if
    given): a string would be read as its characters, "48" as [4, 8]."""
    if not isinstance(val, (list, tuple)) or size not in (None, len(val)):
        items = "" if size is None else f" of {size} items"
        raise ValueError(f"{key} must be a [...] list{items}, not {val!r}")
    return tuple(val)


# --------------------------------------------------------------------------- #
# shared machinery
# --------------------------------------------------------------------------- #


def _cyclotomic_roots(n: int) -> np.ndarray:
    ks = np.array([k for k in range(1, n) if math.gcd(k, n) == 1])
    return np.exp(2j * np.pi * ks / n)


def _chebyshev_roots(n: int) -> np.ndarray:
    k = np.arange(n)
    return (2.0 * np.cos((2 * k + 1) * np.pi / (2 * n))).astype(np.complex128)


# ladder family -> (degree-n map, its roots in closed form), each a function
# of n
_LADDERS = {
    "cyclotomic": (cyclotomic, _cyclotomic_roots),
    "chebyshev": (chebyshev_monic, _chebyshev_roots),
    "power_maps": (power_map, lambda n: np.zeros(n, dtype=np.complex128)),
}

# the families each runner takes
RUNNER_FAMILIES = {
    "bilu_rumely": tuple(_LADDERS),
    "dynamical_fs": tuple(_LADDERS) + ("user",),
    "runaway": ("runaway",),
}
FAMILIES = tuple(dict.fromkeys(f for fams in RUNNER_FAMILIES.values() for f in fams))
# the config keys each runner reads
RUNNER_KEYS = {
    "bilu_rumely": tuple(k for k in SPEC_KEYS if k not in ("epsilon", "user_polys")),
    "dynamical_fs": tuple(k for k in SPEC_KEYS if k != "probes"),
    "runaway": ("name", "family", "degree_range", "checkpoints", "outputs", "seed"),
}


def check_family(runner: str, family: str) -> None:
    """Raise ConfigError unless the named runner takes the family."""
    takes = RUNNER_FAMILIES[runner]
    if family not in takes:
        raise ConfigError(f"{runner} takes family {', '.join(takes)}, not {family!r}")


def _family_members(spec: ExperimentSpec) -> list:
    """(label, polynomial) per checkpoint."""
    if spec.family == "user":
        return [(p.degree, p) for p in spec.user_polys]
    make = _LADDERS[spec.family][0]
    return [(n, make(n)) for n in spec.effective_checkpoints()]


def _trend_violations(column: str, degrees, values, *, decreasing: bool = True) -> list:
    """One non-monotone step of relative size <= TREND_SLACK is tolerated; ties
    at numerical zero are ignored. Failures become data, never exceptions."""
    out, budget = [], 1
    for i in range(1, len(values)):
        v0, v1 = values[i - 1], values[i]
        step = (v1 - v0) if decreasing else (v0 - v1)
        if step <= 0:
            continue
        if v0 <= TREND_FLOOR and v1 <= TREND_FLOOR:
            continue
        if budget > 0 and step <= TREND_SLACK * max(abs(v0), TREND_FLOOR):
            budget -= 1
            continue
        out.append({"kind": "trend", "column": column, "degree": degrees[i],
                    "previous": v0, "value": v1,
                    "direction": "decreasing" if decreasing else "increasing"})
    return out


def _run_ladder(spec: ExperimentSpec, columns, items, worker, out_dir) -> Report:
    """Report whose rows are worker(item), in item order. If a worker
    raises, the rows made so far are written to out_dir as CSV before the
    error propagates."""
    report = Report(name=spec.name, columns=columns, rows=[], seed=spec.seed,
                    config=spec.config_dict(), violations=[], notes={},
                    rasters=[])
    try:
        for item in items:
            report.rows.append(worker(item))
    except Exception:
        if out_dir is not None:
            emit(report, ("csv",), out_dir)
        raise
    return report


def _julia_ladder(spec: ExperimentSpec, e: CompactSetModel, columns, row,
                  out_dir) -> Report:
    """The ladder of both map runners. Per family member: Brolin atoms, the
    Klimek distance gamma of their Julia side to e, and the report row
    row(n, poly, atoms, gamma). With pgm output, a raster of the last
    member over its atoms' bounding box."""
    target_side = side_from_set(e)
    last = []

    def worker(member):
        n, poly = member
        atoms = brolin_sample(poly, spec.n_atoms, seed=spec.seed + n).points
        pair = GreenPair(left=side_from_map(poly, atoms), right=target_side)
        last[:] = [poly, atoms]
        return row(n, poly, atoms, float(klimek_distance(pair)))

    report = _run_ladder(spec, columns, _family_members(spec), worker, out_dir)
    if "pgm" in spec.outputs and last:
        poly, atoms = last
        report.rasters.append((f"{spec.name}_julia.pgm",
                               raster(poly, atoms_bbox(atoms), RASTER_RESOLUTION)))
    return report


# --------------------------------------------------------------------------- #
# runners
# --------------------------------------------------------------------------- #


def run_bilu_rumely(spec: ExperimentSpec, out_dir=None) -> Report:
    """Per-degree equidistribution table for one family against one target,
    which must be conjugation-symmetric and of capacity 1 (to 1e-12 in its
    log), as the theorems of Bilu and Rumely ask."""
    check_family("bilu_rumely", spec.family)
    e = build_set(spec.set_config, samples=TARGET_SAMPLES)
    if not e.symmetric:
        raise ConfigError("equidistribution target must be conjugation-symmetric")
    if not abs(e.log_capacity) <= 1e-12:
        raise ConfigError("equidistribution target must have capacity 1, not "
                          f"{math.exp(e.log_capacity):.17g}")
    eq = equilibrium_measure(e)
    closed_roots = _LADDERS[spec.family][1]
    # the probes and their target heights do not depend on the degree
    probes = []
    for probe in spec.probes:
        pa = AlgebraicNumber.of(probe)
        probes.append((str(probe), pa, float(rumely_height(pa, e).total)))
    gap_notes = []

    def row(n, poly, atoms, gamma):
        orbit = closed_roots(n)
        disc = float(measure_discrepancy(DiscreteMeasure(atoms), eq))
        alg = AlgebraicNumber(minpoly=poly,
                              conjugates=RootSet(roots=orbit, residual_bound=0.0))
        dist = float(np.max(e.distance_to_many(orbit)))
        # below coordinate rounding the model cannot certify a nonzero gap
        if dist <= 1e-12 * max(1.0, float(np.max(np.abs(orbit)))):
            dist = 0.0
        for probe, pa, target in probes:
            hhat = float(canonical_height(poly, pa).total)
            gap = abs(hhat - target)
            gap_notes.append({"degree": int(n), "probe": probe,
                              "canonical": hhat, "target": target, "gap": gap,
                              "gamma": gamma,
                              "ok": bool(gap <= gamma + HEIGHT_GAP_TOL)})
        return (int(n),
                float(transfinite_diameter_of_points(orbit)),
                float(rumely_height(alg, e).total),
                dist,
                gamma,
                disc)

    report = _julia_ladder(spec, e, BILU_COLUMNS, row, out_dir)
    ns = [r[0] for r in report.rows]
    report.violations.extend(
        _trend_violations("gamma", ns, [r[4] for r in report.rows]))
    report.violations.extend(
        _trend_violations("discrepancy", ns, [r[5] for r in report.rows]))
    report.notes["target"] = e.kind
    report.notes["capacity"] = float(math.exp(e.log_capacity))
    if gap_notes:
        report.notes["height_gap"] = gap_notes
    return report


def run_dynamical_fs(spec: ExperimentSpec, out_dir=None) -> Report:
    """Containment of the family's filled sets in an eps-neighborhood."""
    check_family("dynamical_fs", spec.family)
    e = build_set(spec.set_config, samples=TARGET_SAMPLES)
    cap = float(math.exp(e.log_capacity))
    if cap < 1.0 - 1e-9:
        raise ConfigError(
            f"target capacity {cap:.6g} is below 1: filled sets of integer "
            "polynomials have capacity |lead|^(-1/(d-1)) <= 1, so no member "
            "can shrink into this target")
    delta = float(np.min(green_eval_many(e, e.probe_ring(spec.epsilon))))

    def row(n, poly, atoms, gamma):
        max_dist = float(np.max(e.hull_distance_to_many(atoms)))
        return (int(n), gamma, max_dist, bool(max_dist <= spec.epsilon))

    report = _julia_ladder(spec, e, FS_COLUMNS, row, out_dir)
    report.notes["delta"] = delta
    report.notes["capacity_check"] = {"capacity": cap,
                                      "julia_capacity_bound": 1.0,
                                      "refused": False}
    threshold = next((n for n, gamma, _, _ in report.rows if gamma < delta / 2), None)
    report.notes["threshold_degree"] = threshold
    if threshold is not None:
        for n, _, max_dist, contained in report.rows:
            if n >= threshold and not contained:
                report.violations.append({"kind": "containment", "degree": n,
                                          "max_dist": max_dist, "epsilon": spec.epsilon})
    return report


def run_runaway(spec: ExperimentSpec, out_dir=None) -> Report:
    """Per-degree table for the drift family with unbounded conjugates."""
    check_family("runaway", spec.family)
    lo, hi = spec.degree_range
    if lo < 4 or hi > 14:
        raise ConfigError("drift family degree_range must stay within [4, 14]")
    degrees = (spec.checkpoints if spec.checkpoints is not None
               else tuple(range(lo, hi + 1)))

    def worker(d):
        drift = runaway_drift(d)
        poly = runaway_family(d)
        rs = roots(poly)
        inside = int(np.count_nonzero(np.abs(rs.roots) < 1.0))
        h = float(weil_height(AlgebraicNumber(minpoly=poly, conjugates=rs)).total)
        return (int(d), int(drift), inside, float(rs.max_modulus), h,
                float(math.log(drift) / d))

    report = _run_ladder(spec, RUNAWAY_COLUMNS, degrees, worker, out_dir)
    for d, _, inside, _, h, target in report.rows:
        if inside != d - 1:
            report.violations.append({"kind": "root_count", "degree": d,
                                      "inside": inside, "expected": d - 1})
        if abs(h - target) > 0.1 * target:
            report.violations.append({"kind": "height_band", "degree": d,
                                      "h": h, "target": target})
    ds = [r[0] for r in report.rows]
    report.violations.extend(
        _trend_violations("h", ds, [r[4] for r in report.rows]))
    report.violations.extend(
        _trend_violations("max_modulus", ds, [r[3] for r in report.rows],
                          decreasing=False))
    return report


# --------------------------------------------------------------------------- #
# emission
# --------------------------------------------------------------------------- #


def _cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def emit(report: Report, formats, out_dir) -> list:
    """Write the report under out_dir; returns the paths, MANIFEST last.

    An empty report yields the MANIFEST alone. No timestamps anywhere, so
    reruns with identical config and seed are byte-identical."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    if report.rows:
        if "csv" in formats:
            name = f"{report.name}.csv"
            lines = [",".join(report.columns)]
            lines += [",".join(_cell(v) for v in row) for row in report.rows]
            (out / name).write_text("\n".join(lines) + "\n")
            files.append(name)
        if "json" in formats:
            name = f"{report.name}.json"
            payload = {
                "name": report.name,
                "seed": report.seed,
                "config": report.config,
                "columns": report.columns,
                "rows": report.rows,
                "violations": report.violations,
                "notes": report.notes,
            }
            write_json(out / name, payload)
            files.append(name)
        if "pgm" in formats:
            for fname, ras in report.rasters:
                write_pgm(ras, out / fname)
                files.extend([fname, f"{fname}.json"])
    canon = json.dumps(report.config, sort_keys=True, separators=(",", ":"))
    write_json(out / "MANIFEST.json", {
        "config_hash": hashlib.sha256(canon.encode()).hexdigest(),
        "files": sorted(files),
        "seed": report.seed,
        "version": __version__,
    })
    files.append("MANIFEST.json")
    return [str(out / f) for f in files]
