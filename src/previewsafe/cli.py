"""Batch command-line front door.

Subcommands::

    check      nonemptiness verdict for a shift-register problem
    invariant  run Method 1/2 or emit the closed form on a (p-augmented) system
    sweep-c    largest tolerable symmetric disturbance bound per preview time
    bounds     inner/outer volume bounds for preview-time selection
    simulate   supervised lane-keeping rollouts (preview vs no preview)

Exit codes: 0 success/nonempty, 3 empty-result verdict, 2 usage or config
error, 1 internal numerical failure.  Every command is deterministic given
its flags and seed.  Set PREVIEWSAFE_LOG=DEBUG|INFO|... for diagnostics.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import logging
import os
import sys
from typing import Optional

from . import brunovsky as bk
from . import casestudies as cs
from .errors import (
    ConfigError,
    DimensionTooLargeError,
    EmptySetError,
    InvalidParametersError,
    PreviewSafeError,
)
from .geometry import HPolytope, Hyperbox, lift
from .invariance import method1, method2, preview_gain
from .jsonio import dumps_17g, format_float
from .simulation import lane_keeping
from .systems import BrunovskyProblem, augment, config_count, system_from_config

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_EMPTY = 3


def _setup_logging() -> None:
    level = getattr(logging, os.environ.get("PREVIEWSAFE_LOG", "WARNING").upper(), None)
    # Only level names resolve to ints; others (BASIC_FORMAT, _STYLES) fall back.
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level)


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return data


def _emit_flat(data: dict, args) -> None:
    """Write a flat result dict as JSON (default) or two-column CSV."""
    if args.format == "csv":
        lines = ["key,value"]
        for key, val in data.items():
            if isinstance(val, bool):
                val = "true" if val else "false"
            elif isinstance(val, float):
                val = format_float(val)
            lines.append(f"{key},{val}")
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        _write_output(dumps_17g(data), args.out)


def _bundled_config(name: str) -> dict:
    ref = importlib.resources.files("previewsafe") / "configs" / f"{name}.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def _case_system(name: str, preview: int):
    """Canned systems runnable by name; returns (system, method2 seed or None)."""
    if name == "example1":
        return cs.example1_config(p=preview)
    if name == "example4":
        return cs.example4_config(), None
    prob = cs.ScalarPreviewProblem(2.0, 1.0, 1.0, 2.0, max(preview, 1))
    return (prob.system() if name == "example2" else cs.example5_config(prob)), None


def _source(args, default_preview: int):
    """The input that --case or --system names: ``(system, preview, method2
    seed or None, BrunovskyProblem or None)``.  The preview is --preview, else
    the config's own ``preview``, else ``default_preview``; a config with an
    ``A`` is a system config and any other a shift-register problem."""
    data = _load_json(args.system) if args.system else {}
    preview = args.preview
    if preview is None:
        preview = config_count(data.get("preview", default_preview), "preview")
    if not args.system:
        sys_, seed_set = _case_system(args.case, preview)
        return sys_, preview, seed_set, None
    if "A" in data:
        return system_from_config(data)[0], preview, None, None
    try:
        n = config_count(data["n"], "n")
        box = Hyperbox.from_json(data["box"])
        dist = data["disturbance"]
        dist = HPolytope.from_json(dist) if "H" in dist else Hyperbox.from_json(dist)
        problem = BrunovskyProblem.create(n, box, dist, preview)
    except (KeyError, TypeError, ValueError, InvalidParametersError, EmptySetError) as exc:
        raise ConfigError(f"bad shift-register config (n, box, disturbance): {exc!r}") from exc
    return problem.system(), preview, None, problem


def cmd_check(args) -> int:
    if args.system:
        if args.n is not None or args.c is not None or args.box_halfwidth is not None:
            raise ConfigError("--n, --c and --box-halfwidth do not apply with --system")
        problem = _source(args, 0)[3]
        if problem is None:
            raise ConfigError("check reads only the shift-register schema (n, box, disturbance)")
    elif args.n is None or args.c is None:
        raise ConfigError("check needs either --system FILE or --n and --c")
    else:
        box = Hyperbox.cube(args.n, 1.0 if args.box_halfwidth is None else args.box_halfwidth)
        dist = Hyperbox.cube(args.n, args.c)
        problem = BrunovskyProblem.create(args.n, box, dist, args.preview or 0)
    ineq = bk.nonempty_ineq(problem)
    verdict = {"nonempty": ineq, "n": problem.n, "p": problem.p, "test": "inequality"}
    try:
        vert = bk.nonempty_vertex(problem)
        verdict.update(vertex_test=vert, agreement=vert == ineq)
    except DimensionTooLargeError:  # pbar above the vertex cap
        pass
    _emit_flat(verdict, args)
    return EXIT_OK if ineq else EXIT_EMPTY


def cmd_invariant(args) -> int:
    # the flags this mode does not read, refused before any file opens
    if args.closed_form:
        unread = ["--method", "--K", "--max-iter", "--seed-set"]
    elif args.method != 2:
        unread = ["--K", "--seed-set"]
    elif args.case == "example1":  # it brings its own seed
        unread = ["--max-iter", "--seed-set"]
    else:  # Method 1 computes the seed that no --seed-set gives
        unread = ["--max-iter"] if args.seed_set else []
    given = [flag for flag in unread if getattr(args, flag[2:].replace("-", "_")) is not None]
    if given:
        raise ConfigError(f"{', '.join(given)} not read in this mode")
    max_iter = 200 if args.max_iter is None else args.max_iter
    sys_, preview, seed_set, problem = _source(args, 0)
    if args.closed_form:
        if problem is None:
            raise ConfigError("--closed-form applies to shift-register configs only")
        _write_output(dumps_17g(bk.closed_form(problem).to_json()), args.out)
        return EXIT_OK
    aug = augment(sys_, preview).aug
    if args.method == 2:
        if args.seed_set:
            try:
                seed_set = HPolytope.from_json(_load_json(args.seed_set))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad --seed-set polytope (H, h): {exc!r}") from exc
            if seed_set.dim != aug.n:
                raise ConfigError(f"--seed-set needs dimension {aug.n}, got {seed_set.dim}")
        elif seed_set is None:
            seed_set = lift(method1(sys_, max_iter).result, sys_.dist_set, preview)
        report = method2(aug, seed_set, 10 if args.K is None else args.K)
    else:
        report = method1(aug, max_iter)
    _write_output(dumps_17g(report.to_json()), args.out)
    return EXIT_EMPTY if report.result.is_empty else EXIT_OK


def cmd_sweep_c(args) -> int:
    box = Hyperbox.cube(args.n, args.box_halfwidth)
    lines = ["p,largest_c"]
    for p in range(args.p_max + 1):
        lines.append(f"{p},{format_float(bk.largest_c(args.n, p, box))}")
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    sys_, preview, _, _ = _source(args, 1)
    if not 0 <= args.p_low < preview:
        raise ConfigError(f"bounds needs 0 <= --p-low < --preview (got {args.p_low}, {preview})")
    result = preview_gain(
        sys_, args.p_low, preview, seed=args.seed, samples=args.samples, max_iter=args.max_iter,
    )
    _emit_flat(result, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_json(args.system) if args.system else _bundled_config("lane_keeping")
    preview = 5 if args.preview is None else args.preview
    res = lane_keeping(config, p=preview, T=args.T, seed=args.seed, K=args.K,
                       max_iter=args.max_iter)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    summary = {
        "gap_found": res.gap_found,
        "preview": res.p,
        "T": args.T,
        "seed": args.seed,
    }
    if res.gap_found:
        _write_output(res.trace_preview.to_csv(), os.path.join(outdir, "trace_preview.csv"))
        _write_output(res.trace_no_preview.to_csv(), os.path.join(outdir, "trace_no_preview.csv"))
        summary.update(
            trace_preview="trace_preview.csv",
            trace_no_preview="trace_no_preview.csv",
            first_unsafe_preview=res.trace_preview.first_unsafe_step(),
            first_unsafe_no_preview=res.trace_no_preview.first_unsafe_step(),
            supervision_count_preview=res.trace_preview.supervision_count(),
            supervision_count_no_preview=res.trace_no_preview.supervision_count(),
            gap_state=[float(v) for v in res.gap_state],
        )
    _write_output(dumps_17g(summary), os.path.join(outdir, "summary.json"))
    return EXIT_OK if res.gap_found else EXIT_EMPTY


def _at_least(low, kind):
    """An argparse ``type`` that parses a ``kind`` number and rejects one
    below ``low`` (NaN included), so that a bad flag exits 2 at parse time."""

    def parse(text):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


# Shared flag specs; each subcommand declares only the flags it reads.
_FLAGS = {
    "--system": {"help": "system or problem config file (JSON)"},
    "--preview": {"type": _at_least(0, int), "help": "preview time p"},
    "--max-iter": {"type": _at_least(1, int), "default": 200},
    "--seed": {"type": int, "default": 0},
    "--out": {"help": "output path (default stdout)"},
    "--format": {"choices": ["json", "csv"], "default": "json"},
    "--box-halfwidth": {"type": _at_least(0.0, float), "default": 1.0},
    "--K": {"type": _at_least(0, int), "default": 10, "help": "method 2 iteration budget"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="previewsafe",
        description="Controlled invariant sets for linear systems with disturbance preview",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *flags, cases=(), required=True):
        # exact flag names only, so that --seed is not read as --seed-set
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if cases:  # argparse cannot write the usage line of an empty group
            source = p.add_mutually_exclusive_group(required=required)
            source.add_argument("--case", choices=cases, help="canned case name")
            source.add_argument("--system", **_FLAGS["--system"])
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("check", cmd_check, "nonemptiness verdict (shift-register form)",
                "--system", "--preview", "--out", "--format", "--box-halfwidth")
    p.add_argument("--n", type=_at_least(1, int), help="state dimension for --c parametrization")
    p.add_argument("--c", type=_at_least(0.0, float), help="symmetric disturbance halfwidth")
    # None tells an unset flag from its 1.0, which --system would not read
    p.set_defaults(box_halfwidth=None)

    examples = ["example1", "example2", "example4", "example5"]
    p = command("invariant", cmd_invariant, "compute an invariant set",
                "--preview", "--max-iter", "--out", "--K", cases=examples)
    p.add_argument("--method", type=int, choices=[1, 2])
    p.add_argument("--closed-form", action="store_true")
    p.add_argument("--seed-set", help="method 2 seed polytope (JSON)")
    p.set_defaults(K=None, max_iter=None)  # None tells unset from 10 or 200, which some modes do not read

    p = command("sweep-c", cmd_sweep_c, "largest disturbance bound per preview time",
                "--out", "--box-halfwidth")
    p.add_argument("--n", type=_at_least(1, int), required=True)
    p.add_argument("--p-max", type=_at_least(0, int), required=True)

    p = command("bounds", cmd_bounds, "inner/outer preview volume bounds",
                "--preview", "--max-iter", "--seed", "--out", "--format", cases=examples)
    p.add_argument("--p-low", type=int, required=True)
    p.add_argument("--samples", type=_at_least(1, int), default=200_000)

    p = command("simulate", cmd_simulate, "supervised rollouts with/without preview",
                "--preview", "--max-iter", "--seed", "--out", "--K",
                cases=["lane_keeping"], required=False)
    p.add_argument("--T", type=_at_least(0, int), default=100)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors (2) and --help (0) as exit codes
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreviewSafeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
