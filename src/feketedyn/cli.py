"""fekete-dyn: capacities, Green values, Julia rasters, Brolin samples,
sup-norm distances, heights, and configured experiments from the shell.

Polynomials enter as ascending integer coefficients, `c0 c1 ... cd`, from
--poly or --poly-file, never both; sets and experiments from config files in
the flat `key = value` grammar or JSON (see parse_config). Outside input is
refused with ConfigError before any work, and main alone reports it (exit 2).
"""

import argparse
import dataclasses
import json
import math
import pathlib
import sys

from .dynamics import (
    DEFAULT_MAX_ITER,
    DynGreenEvaluator,
    atoms_bbox,
    brolin_sample,
    julia_capacity,
    raster,
    write_pgm,
)
from .harness import (
    RUNNER_KEYS,
    SPEC_KEYS,
    ConfigError,
    build_set,
    check_family,
    check_keys,
    config_int,
    emit,
    parse_config,
    read_poly,
    run_bilu_rumely,
    run_dynamical_fs,
    run_runaway,
    spec_from_config,
)
from .heights import (AlgebraicNumber, GoodReductionError, canonical_height,
                      rumely_height, weil_height)
from .metric import (
    MIN_SIDE_SAMPLES,
    GreenPair,
    klimek_report,
    side_from_map,
    side_from_set,
)
from .polyarith import IntPolynomial
from .potential import CompactSetModel, green_eval_many

# `green` on an orbit still inside the escape radius at --max-iter: no value
UNDECIDED_EXIT = 3

RUNNERS = {
    "bilu_rumely": run_bilu_rumely,
    "dynamical_fs": run_dynamical_fs,
    "runaway": run_runaway,
}


def _add_poly_args(sub):
    """A command's required polynomial source group, to which it may add --config."""
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--poly", help="coefficients 'c0 c1 ... cd', ascending")
    source.add_argument("--poly-file", help="file holding the coefficients")
    return source


def _read_file(path) -> str:
    """The text of a UTF-8 file, less a leading byte-order mark; a missing,
    unreadable or non-UTF-8 one is refused."""
    try:
        return pathlib.Path(path).read_text(encoding="utf-8-sig")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _read_poly(raw: str, what: str = "a map", least: int = 2) -> IntPolynomial:
    """read_poly of inline text, or, when a bare token reads as no
    coefficients, of the file it names."""
    try:
        IntPolynomial.from_text(raw)
    except ValueError:
        if " " not in raw and pathlib.Path(raw).is_file():
            raw = _read_file(raw)
    return read_poly(what, raw, least)


def _resolve_poly(args, what: str = "a map", least: int = 2) -> IntPolynomial:
    """The polynomial of --poly or --poly-file, whichever was given; the text
    of a --poly-file is coefficients, never a path to follow."""
    if args.poly_file is None:
        return _read_poly(args.poly, what, least)
    return read_poly(what, _read_file(args.poly_file), least)


def _set_from_config_path(path) -> CompactSetModel:
    """The set a file describes: the `set` block of an experiment config,
    whose other keys must be experiment keys, or else a bare set block."""
    cfg = parse_config(path)
    e = build_set(cfg.get("set", cfg))
    if "set" in cfg:
        check_keys("experiment config", cfg, SPEC_KEYS)
    return e


# argparse converters: a value they refuse is a usage error

def _point(s: str) -> complex:
    re, _, im = s.partition(",")
    try:
        z = complex(float(re), float(im) if im else 0.0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"want 're,im', got {s!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise argparse.ArgumentTypeError(f"point {s!r} is not finite")
    return z


def _bbox(s: str) -> tuple:
    try:
        re_min, re_max, im_min, im_max = (float(p) for p in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want 're_min,re_max,im_min,im_max', got {s!r}") from None
    if not all(map(math.isfinite, (re_min, re_max, im_min, im_max))):
        raise argparse.ArgumentTypeError(f"bbox {s!r} is not finite")
    if not (re_min < re_max and im_min < im_max):
        raise argparse.ArgumentTypeError(f"degenerate bbox {s!r}")
    return re_min, re_max, im_min, im_max


def _resolution(s: str) -> tuple:
    w, _, h = s.partition(",")
    try:
        res = (int(w), int(h) if h else int(w))
    except ValueError:
        raise argparse.ArgumentTypeError(f"want 'width,height', got {s!r}") from None
    if min(res) < 16:
        raise argparse.ArgumentTypeError(f"resolution {s!r} is below 16x16")
    return res


def _int_at_least(least: int):
    def convert(s: str) -> int:
        if not s.isdecimal() or int(s) < least:
            raise argparse.ArgumentTypeError(f"want an integer >= {least}, got {s!r}")
        return int(s)
    return convert


def _print_value(v: float) -> None:
    print("%.17g" % v)


def _cmd_capacity(args) -> int:
    if args.config is not None:
        _print_value(math.exp(_set_from_config_path(args.config).log_capacity))
    else:
        _print_value(julia_capacity(_resolve_poly(args)))
    return 0


def _cmd_green(args) -> int:
    if args.config is not None:
        if args.max_iter is not None:
            raise ConfigError("--max-iter bounds a map's orbit; a --config set has none")
        _print_value(green_eval_many(_set_from_config_path(args.config), [args.at])[0])
    else:
        max_iter = DEFAULT_MAX_ITER if args.max_iter is None else args.max_iter
        evaluator = DynGreenEvaluator(_resolve_poly(args), max_iter=max_iter)
        vals, undecided = evaluator.green_many([args.at])
        if undecided[0]:
            print("undecided")
            return UNDECIDED_EXIT
        _print_value(vals[0])
    return 0


def _cmd_julia(args) -> int:
    if args.bbox is not None and args.seed is not None:
        raise ConfigError("--seed picks the Brolin atoms that set the bbox; "
                          "with --bbox none are drawn")
    poly = _resolve_poly(args)
    bbox = args.bbox or atoms_bbox(brolin_sample(poly, 512, seed=args.seed or 0).points)
    ras = raster(poly, bbox, args.resolution, max_iter=args.max_iter)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "julia.pgm"
    write_pgm(ras, path)
    print(path)
    print(f"{path}.json")
    return 0


def _cmd_brolin(args) -> int:
    poly = _resolve_poly(args)
    measure = brolin_sample(poly, args.n, seed=args.seed)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "brolin.csv"
    measure.to_csv(path)
    print(path)
    return 0


def _klimek_side(cfg: dict, name: str):
    if name in cfg:
        return side_from_set(build_set(cfg[name]))
    key = f"{name}_poly"
    if key in cfg:
        poly = _read_poly(str(cfg[key]))
        n = config_int("klimek config", "n_atoms", cfg.get("n_atoms", 1024),
                       least=MIN_SIDE_SAMPLES)
        seed = config_int("klimek config", "seed", cfg.get("seed", 0))
        return side_from_map(poly, brolin_sample(poly, n, seed=seed).points)
    raise ConfigError(f"klimek config needs '{name} = {{...}}' or '{key} = ...'")


def _cmd_klimek(args) -> int:
    cfg = parse_config(args.config)
    check_keys("klimek config", cfg, ("left", "right", "left_poly", "right_poly",
                                      "n_atoms", "seed"))
    for name in ("left", "right"):
        if name in cfg and f"{name}_poly" in cfg:
            raise ConfigError(f"klimek config: give '{name} = {{...}}' or "
                              f"'{name}_poly = ...', not both")
    pair = GreenPair(left=_klimek_side(cfg, "left"), right=_klimek_side(cfg, "right"))
    print(json.dumps(klimek_report(pair), indent=2, sort_keys=True))
    return 0


def _cmd_height(args) -> int:
    if args.set is not None and args.kind != "rumely":
        raise ConfigError("--set is the target set of height rumely only")
    if args.dyn is not None and args.kind != "canonical":
        raise ConfigError("--dyn is the map of height canonical only")
    alpha = AlgebraicNumber.from_minpoly(_resolve_poly(args, "a minimal polynomial", 1))
    if args.kind == "weil":
        rep = weil_height(alpha)
    elif args.kind == "rumely":
        e = (_set_from_config_path(args.set) if args.set
             else CompactSetModel.disk(0, 1))
        rep = rumely_height(alpha, e)
    else:
        if not args.dyn:
            raise ConfigError("height canonical needs --dyn <polynomial>")
        rep = canonical_height(_read_poly(args.dyn), alpha)
    if args.json:
        record = {**dataclasses.asdict(rep), "kind": args.kind, "per_place": dict(rep.per_place)}
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        _print_value(rep.total)
    return 0


def _cmd_experiment(args) -> int:
    cfg = parse_config(args.config)
    # the keys a runner reads depend on its family: a user family has no
    # ladder, and a ladder family no user_polys
    family = cfg.get("family", "")
    check_family(args.name, family)
    unread = ("checkpoints", "degree_range") if family == "user" else ("user_polys",)
    check_keys(f"experiment {args.name} with family {family!r}", cfg,
               set(RUNNER_KEYS[args.name]) - set(unread))
    spec = spec_from_config(cfg, seed_override=args.seed)
    report = RUNNERS[args.name](spec, out_dir=args.out)
    for path in emit(report, spec.outputs, args.out):
        print(path)
    if report.violations:
        print(f"violations: {len(report.violations)}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fekete-dyn",
        description="potential theory, polynomial dynamics, and heights")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("capacity", help="logarithmic capacity")
    _add_poly_args(p).add_argument("--config", help="set description file")
    p.set_defaults(fn=_cmd_capacity)

    p = subs.add_parser("green", help="Green function value at a point")
    _add_poly_args(p).add_argument("--config", help="set description file")
    p.add_argument("--at", required=True, type=_point,
                   help="evaluation point 're,im'")
    p.add_argument("--max-iter", type=_int_at_least(0))
    p.set_defaults(fn=_cmd_green)

    p = subs.add_parser("julia", help="filled-set raster as PGM")
    _add_poly_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--bbox", type=_bbox, help="'re_min,re_max,im_min,im_max'")
    p.add_argument("--resolution", type=_resolution, default="256,256",
                   help="'width,height', each at least 16")
    p.add_argument("--max-iter", type=_int_at_least(0), default=DEFAULT_MAX_ITER)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_julia)

    p = subs.add_parser("brolin", help="backward-orbit measure as CSV")
    _add_poly_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=_int_at_least(1), default=1024,
                   help="number of atoms")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_brolin)

    p = subs.add_parser("klimek", help="sup-norm Green distance of two sides")
    p.add_argument("--config", required=True,
                   help="file with left/right side blocks")
    p.set_defaults(fn=_cmd_klimek)

    p = subs.add_parser("height", help="Weil, set, or dynamical height")
    p.add_argument("kind", choices=("weil", "rumely", "canonical"))
    _add_poly_args(p)
    p.add_argument("--set", help="target set config (rumely)")
    p.add_argument("--dyn", help="dynamical polynomial (canonical)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_height)

    p = subs.add_parser("experiment", help="run a configured experiment")
    p.add_argument("name", choices=tuple(RUNNERS))
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_experiment)

    return parser


def _join_signed_values(argv: list[str]) -> list[str]:
    """argv with each spaced value of --at or --bbox that starts with one
    '-' (a negative real part) joined to its option: argparse would take
    `--at -3,0` for two flags, and reads `--at=-3,0` as meant."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--at", "--bbox") and arg.startswith("-") \
                and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_signed_values(argv))
    try:
        return args.fn(args)
    except (ConfigError, GoodReductionError) as exc:
        # outside input refused before any output is written
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
