"""Command-line front end.

Five commands: params, certify, build, eval, verify. Every emitted byte is
a pure function of (config, command, flags): reports are JSON with sorted
keys, tables are CSV with 17-significant-digit floats, and nothing reads
the clock, the locale, or the environment.

Exit codes: 0 success, 1 usage/validation/IO error, 2 certificate or
verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certificates, families, series as series_mod
from .config import Config, load_config, parse_grid
from .errors import (BuildRefusedError, ConfigError, InfeasibleParametersError,
                     PeakFnError)
from .hypothesis import GUARD, HypothesisConstants, derive_constants
from .weights import WeightEngine


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1 in this tool, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="peakfn",
        description="Derive constants, certify inequalities, and verify "
                    "peaking of barrier series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON config file")
        p.add_argument("--out", metavar="PATH",
                       help="write the report here instead of stdout")

    p_params = sub.add_parser("params", help="derive and report constants")
    common(p_params)
    p_params.add_argument("--m-max", type=int, metavar="INT",
                          help="range for the exponent-condition check")

    p_cert = sub.add_parser("certify", help="run the certificate battery")
    common(p_cert)
    p_cert.add_argument("--m-max", type=int, metavar="INT",
                        help="upper index for the per-m certificates")

    p_build = sub.add_parser("build", help="build and save a peak series")
    common(p_build)
    p_build.add_argument("--terms", type=int, metavar="INT",
                         help="head length N")
    p_build.add_argument("--series", metavar="PATH",
                         help="where to write the series file")

    p_eval = sub.add_parser("eval", help="evaluate a series on a grid")
    common(p_eval)
    p_eval.add_argument("--series", metavar="PATH",
                        help="series file produced by build")
    p_eval.add_argument("--grid", metavar="KIND:LO:HI:COUNT",
                        help="evaluation grid")

    p_verify = sub.add_parser("verify", help="certify |F| < 1 on a grid")
    common(p_verify)
    p_verify.add_argument("--series", metavar="PATH",
                          help="series file produced by build")
    p_verify.add_argument("--grid", metavar="KIND:LO:HI:COUNT",
                          help="verification grid")

    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _derive_from_config(cfg: Config):
    h = HypothesisConstants(alpha=cfg.alpha, s=cfg.s, t=cfg.t,
                            A=cfg.A, C=cfg.C)
    return derive_constants(h, D=cfg.D, M=cfg.M, L=cfg.L, m_check=cfg.m_max)


def cmd_params(cfg: Config, m_max, out_path) -> int:
    if m_max is not None:
        cfg = Config(**{**cfg.__dict__, "m_max": int(m_max)})
    consts, report = _derive_from_config(cfg)
    shell_ok = report["first_shell_margin"] > GUARD
    eps_ok = report["eps_condition"]["passed"]
    passed = bool(shell_ok and eps_ok)
    payload = {
        "command": "params",
        "constants": consts.to_dict(),
        "derivation": report,
        "passed": passed,
    }
    _emit(_json_text(payload), out_path)
    return 0 if passed else 2


def cmd_certify(cfg: Config, m_max, out_path) -> int:
    if m_max is None:
        m_max = cfg.m_max
    consts, _ = _derive_from_config(cfg)
    report = certificates.run_all(WeightEngine(consts), m_max=int(m_max))
    payload = {"command": "certify", "m_max": int(m_max)}
    payload.update(report.to_dict())
    _emit(_json_text(payload), out_path)
    return 0 if report.passed else 2


def cmd_build(cfg: Config, terms, series_path, out_path) -> int:
    consts, _ = _derive_from_config(cfg)
    fam = families.family_by_name(cfg.family, consts)
    n = int(terms) if terms is not None else cfg.N
    path = series_path or cfg.series
    if not path:
        raise ConfigError("build needs --series PATH (or 'series' in config)")
    built = series_mod.build(fam, n_terms=n, m_max=cfg.m_max)
    series_mod.save_series(built, path)
    payload = {
        "command": "build",
        "family": fam.name,
        "n_terms": n,
        "series": str(path),
        "normalizer": [built.normalizer.lo, built.normalizer.hi],
        "passed": True,
    }
    _emit(_json_text(payload), out_path)
    return 0


def _load_for_grid(cfg: Config, series_path, grid_arg):
    path = series_path or cfg.series
    if not path:
        raise ConfigError("need --series PATH (or 'series' in config); "
                          "run build first")
    consts, _ = _derive_from_config(cfg)
    ser = series_mod.load_series(path, m_max=cfg.m_max)
    if ser.family.name != cfg.family:
        raise ConfigError(
            f"series file {path!r} is for family {ser.family.name!r}, "
            f"the config names {cfg.family!r}")
    if ser.consts != consts:
        mine, theirs = consts.to_dict(), ser.consts.to_dict()
        differ = [k for k in mine if mine[k] != theirs[k]]
        raise ConfigError(
            f"series file {path!r} was built from other constants than the "
            f"config's: {', '.join(differ)} differ")
    grid = parse_grid(grid_arg) if grid_arg else cfg.grid
    points = families.make_grid(ser.family, *grid.as_tuple())
    return ser, points


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _fmt_point(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real)
    return f"{_fmt(z.real)}{z.imag:+.17g}j"


def cmd_eval(cfg: Config, series_path, grid_arg, out_path) -> int:
    ser, points = _load_for_grid(cfg, series_path, grid_arg)
    lines = ["y,F_re_lo,F_re_hi,F_im_lo,F_im_hi,absF_hi,case,m_of_y"]
    for res in ser.evaluate_many(points):
        lines.append(",".join([
            _fmt_point(res.point),
            _fmt(res.F.re.lo), _fmt(res.F.re.hi),
            _fmt(res.F.im.lo), _fmt(res.F.im.hi),
            _fmt(res.abs_F.hi),
            str(res.case),
            str(res.m_of_y),
        ]))
    _emit("\n".join(lines) + "\n", out_path)
    return 0


def cmd_verify(cfg: Config, series_path, grid_arg, out_path) -> int:
    ser, points = _load_for_grid(cfg, series_path, grid_arg)
    report = ser.verify_peak(points)
    payload = {"command": "verify"}
    payload.update(report)
    _emit(_json_text(payload), out_path)
    return 0 if report["passed"] else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "params":
            return cmd_params(cfg, args.m_max, args.out)
        if args.command == "certify":
            return cmd_certify(cfg, args.m_max, args.out)
        if args.command == "build":
            return cmd_build(cfg, args.terms, args.series, args.out)
        if args.command == "eval":
            return cmd_eval(cfg, args.series, args.grid, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.series, args.grid, args.out)
        parser.error(f"unknown command {args.command!r}")
    except (InfeasibleParametersError, BuildRefusedError) as exc:
        sys.stderr.write(f"peakfn: {exc}\n")
        return 2
    except (PeakFnError, ValueError, OSError) as exc:
        sys.stderr.write(f"peakfn: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
