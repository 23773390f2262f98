"""Command-line surface: synth, build, locate, evaluate, sweep.

Exit codes: 0 on success; 1 on usage errors, every value outside its rule
included, before any file is read or work is done; 2 on data errors (bad
files, missing ground truth, unknown towers and the like).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from typing import Callable, Sequence

from . import bench, gp
from .geo import (
    check_count,
    check_drop_fraction,
    check_keep_fraction,
    check_positive_finite,
    read_tower_locations,
    read_trace,
    unproject,
    write_csv,
    write_tower_locations,
    write_trace,
)
from .radiomap import build_radio_map, load_radio_map, planar_truths, save_radio_map
from .synth import PRESETS, generate_trace, make_preset

USAGE_ERROR = 1
DATA_ERROR = 2


def _checked(kind: type, check: Callable[[object], None]) -> Callable[[str], object]:
    """argparse ``type=``: ``kind(text)``, then the library's rule ``check`` as a usage error."""
    def convert(text: str):
        value = kind(text)  # a ValueError here reads "invalid <kind> value"
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    convert.__name__ = kind.__name__
    return convert


#: Each count option's name and the EstimatorParams field it sets.
_COUNTS = {"ns": "n_samples", "k": "k"}
#: The type of each sweep's --values; the keys are --param's choices.
_SWEEP_VALUES = {
    "grid": _checked(float, functools.partial(check_positive_finite, "grid_length")),
    "ns": _checked(int, functools.partial(check_count, "n_samples")),
    "k": _checked(int, functools.partial(check_count, "k")),
    "towers": _checked(float, check_drop_fraction),
    "density": _checked(float, check_keep_fraction),
}
_SEED = _checked(int, functools.partial(check_count, "seed", minimum=0))


class _Parser(argparse.ArgumentParser):
    """argparse's default usage-error exit code is 2; this CLI reserves 2
    for data errors, so remap usage errors to 1."""

    def error(self, message: str) -> None:  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gsmloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic training/test traces")
    p.add_argument("--preset", required=True, choices=PRESETS)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("build", help="build a radio map (or GP grid) from a trace")
    p.add_argument("--traces", required=True, help="training trace CSV")
    p.add_argument("--grid-length", type=_SWEEP_VALUES["grid"], default=bench.DEFAULT_GRID_M)
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--towers", help="tower_id,lat,lon CSV to embed (cell-ID needs it)")
    p.add_argument("--strip-points", action="store_true", help="drop raw fingerprint points")
    p.add_argument("--kind", choices=("map", "gp"), default="map")
    spacing = _checked(float, functools.partial(check_positive_finite, "spacing"))
    p.add_argument("--spacing", type=spacing, default=bench.PRESET_GP_SPACING_M["rural"],
                   help="GP lattice spacing, kind=gp (default: %(default)g m, the rural preset's)")

    for name, needs_truth, about in (
            ("locate", False, "estimate positions for a trace"),
            ("evaluate", True, "evaluate a technique against ground truth")):
        p = sub.add_parser(name, help=about)
        p.add_argument("--map", required=True, dest="map_path")
        p.add_argument("--scans", required=True, help="trace CSV")
        p.add_argument("--technique", required=True, choices=bench.TECHNIQUES)
        _add_params(p, "the rural preset, whatever preset built the map")
        if needs_truth:
            p.add_argument("--report", help="write the report CSV here")
            p.add_argument("--cdf", help="write the error CDF CSV here")
        else:
            p.add_argument("--out", help="write estimates CSV here (default stdout)")

    p = sub.add_parser("sweep", help="run a parameter sweep on a synthetic preset")
    p.add_argument("--param", required=True, choices=_SWEEP_VALUES)
    p.add_argument("--values", required=True, nargs="+", help="integers for ns and k")
    p.add_argument("--preset", default="rural", choices=PRESETS)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--out", required=True, help="output directory")
    # Sweeps build radio maps, which the GP technique cannot use.
    p.add_argument(
        "--technique", default="probabilistic", choices=[t for t in bench.TECHNIQUES if t != "gp"]
    )
    p.add_argument("--grid-length", type=_SWEEP_VALUES["grid"], default=bench.DEFAULT_GRID_M)
    _add_params(p, "--preset")
    p.set_defaults(subparser=p)  # --values' type depends on --param: checked after parsing
    return parser


def _add_params(p: argparse.ArgumentParser, preset: str) -> None:
    tuned = f"default: the technique's value tuned on {preset}"
    p.add_argument("--ns", type=_SWEEP_VALUES["ns"], help=f"window length in scans ({tuned}); "
                   "hybrid and cellid read only the window's freshest scan, so it does not "
                   "change them")
    p.add_argument("--k", type=_SWEEP_VALUES["k"], help=f"top-K / KNN size ({tuned})")


def _cmd_synth(args: argparse.Namespace) -> int:
    world, routes = make_preset(args.preset, args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_trace(generate_trace(world, routes["train"]), os.path.join(args.out, "train.csv"))
    write_trace(generate_trace(world, routes["test"]), os.path.join(args.out, "test.csv"))
    write_tower_locations(world.tower_locations_geo(), os.path.join(args.out, "towers.csv"))
    print(f"wrote train.csv, test.csv, towers.csv to {args.out}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    scans = read_trace(args.traces)
    if args.kind == "map":
        towers = read_tower_locations(args.towers) if args.towers else None
        radio_map = build_radio_map(
            scans, args.grid_length, tower_locations=towers, strip_points=args.strip_points
        )
        save_radio_map(radio_map, args.out)
        print(f"built radio map: {radio_map.n_cells} cells, {len(radio_map.tower_ids)} towers")
    else:
        origin, xy = planar_truths(scans)
        models = gp.fit_tower_models(scans, origin)
        bounds = (*xy.min(axis=0).tolist(), *xy.max(axis=0).tolist())
        grid = gp.gp_build_grid(models, bounds, args.spacing, origin)
        gp.save_grid(grid, args.out)
        print(f"built GP grid: {grid.n_points} points, {len(grid.towers)} towers")
    return 0


def _load_model(args: argparse.Namespace):
    if args.technique == "gp":
        return gp.load_grid(args.map_path)
    return load_radio_map(args.map_path)


def _cmd_locate(args: argparse.Namespace) -> int:
    model = _load_model(args)
    scans = read_trace(args.scans)
    if not scans:
        raise ValueError(f"{args.scans}: no scans")
    locate = bench.TECHNIQUES[args.technique]

    def rows():
        for i in range(len(scans)):
            est = locate(model, bench.window_at(scans, i, args.params.n_samples), args.params)
            geo = unproject(model.origin, est.location)
            yield repr(scans[i].timestamp), repr(geo.lat), repr(geo.lon)

    write_csv(args.out, ("timestamp", "lat", "lon"), rows())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = _load_model(args)
    scans = read_trace(args.scans)
    report = bench.evaluate(model, scans, args.technique, args.params)
    bench.write_report_csv([report], None)
    if args.report:
        bench.write_report_csv([report], args.report)
    if args.cdf:
        bench.write_cdf_csv(report, args.cdf)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    world, routes = make_preset(args.preset, args.seed)
    train = generate_trace(world, routes["train"])
    test = generate_trace(world, routes["test"])
    params, values = args.params, args.values
    towers = world.tower_locations_geo()
    if args.param == "grid":
        reports = bench.sweep_grid_length(
            train, test, values, params=params, technique=args.technique, tower_locations=towers
        )
    elif args.param == "density":
        reports = bench.sweep_density(
            train, test, values, grid_length=args.grid_length, params=params,
            technique=args.technique, tower_locations=towers, base_seed=args.seed)
    else:
        radio_map = build_radio_map(train, args.grid_length, tower_locations=towers)
        if args.param == "towers":
            reports = bench.sweep_tower_drop(radio_map, test, values, params=params,
                                             technique=args.technique, base_seed=args.seed)
        else:
            reports = bench.sweep_params(radio_map, test, values, technique=args.technique)

    os.makedirs(args.out, exist_ok=True)
    bench.write_report_csv(reports, os.path.join(args.out, "report.csv"))
    for i, report in enumerate(reports):
        bench.write_cdf_csv(report, os.path.join(args.out, f"cdf_{i:03d}.csv"))
    print(f"wrote report.csv and {len(reports)} CDF files to {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "build": _cmd_build,
    "locate": _cmd_locate,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "technique" in args:
        # The preset's tuned parameters for the technique, overridden by --ns/--k.
        tuned = bench.PRESET_PARAMS[getattr(args, "preset", "rural")][args.technique]
        given = {f: getattr(args, o) for o, f in _COUNTS.items() if getattr(args, o) is not None}
        args.params = dataclasses.replace(tuned, **given)
    if args.command == "sweep":
        convert = _SWEEP_VALUES[args.param]
        try:
            args.values = [convert(v) for v in args.values]
        except (ValueError, argparse.ArgumentTypeError) as exc:
            args.subparser.error(f"--param {args.param} takes {convert.__name__} values: {exc}")
        if args.param in _COUNTS:  # one copy of the parameters per value
            args.values = [dataclasses.replace(args.params, **{_COUNTS[args.param]: v})
                           for v in args.values]
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"gsmloc {args.command}: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
