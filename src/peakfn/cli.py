"""Command-line front end.

Five commands: params, certify, build, eval, verify. Every emitted byte is
a pure function of (config, command, flags): reports are JSON with sorted
keys, tables are CSV with 17-significant-digit floats, and nothing reads
the clock, the locale, or the environment.

Exit codes: 0 success, 1 usage/validation/IO error, 2 certificate or
verification failure.
"""

from __future__ import annotations

import json
import sys

from . import certificates, families, series as series_mod
from .config import Config, load_config, parse_grid
from .errors import (BuildRefusedError, ConfigError, InfeasibleParametersError,
                     PeakFnError)
from .hypothesis import HypothesisConstants, derive_constants
from .weights import WeightEngine

# what build reads where --terms is not given, and eval and verify where
# --grid is not
DEFAULT_TERMS = 100
DEFAULT_GRID = "log:1e-30:1:500"


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
    return derive_constants(h, D=cfg.D, M=cfg.M, L=cfg.L)


def cmd_params(cfg: Config, out) -> int:
    consts, report = _derive_from_config(cfg)
    # every certificate the report carries, the first shell by certify's
    # own relative test
    passed = bool(certificates.check_first_shell(consts)["passed"]
                  and report["eps_condition"]["passed"]
                  and report["L_certificate"]["passed"])
    payload = {
        "command": "params",
        "constants": consts.to_dict(),
        "derivation": report,
        "passed": passed,
    }
    _emit(_json_text(payload), out)
    return 0 if passed else 2


def cmd_certify(cfg: Config, out) -> int:
    consts, _ = _derive_from_config(cfg)
    report = certificates.run_all(WeightEngine(consts))
    payload = {"command": "certify"}
    payload.update(report.to_dict())
    _emit(_json_text(payload), out)
    return 0 if report.passed else 2


def cmd_build(cfg: Config, terms, series, out) -> int:
    if not series:
        raise ConfigError("build needs --series PATH")
    consts, _ = _derive_from_config(cfg)
    fam = families.family_by_name(cfg.family, consts)
    n = DEFAULT_TERMS if terms is None else terms
    built = series_mod.build(fam, n_terms=n)
    series_mod.save_series(built, series)
    payload = {
        "command": "build",
        "family": fam.name,
        "n_terms": n,
        "series": str(series),
        "normalizer": [built.normalizer.lo, built.normalizer.hi],
        "passed": True,
    }
    _emit(_json_text(payload), out)
    return 0


def _load_for_grid(cfg: Config, series_path, grid_arg):
    """The config's series at the head length N that the series file
    names, and the grid's offsets; N is all that is read from the file."""
    if not series_path:
        raise ConfigError("need --series PATH; run build first")
    grid = parse_grid(grid_arg or DEFAULT_GRID)
    consts, _ = _derive_from_config(cfg)
    fam = families.family_by_name(cfg.family, consts)
    ser = series_mod.load_series(series_path, fam)
    return ser, families.make_grid(fam, *grid)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _fmt_point(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real)
    return f"{_fmt(z.real)}{z.imag:+.17g}j"


def cmd_eval(cfg: Config, series, grid, out) -> int:
    ser, points = _load_for_grid(cfg, series, grid)
    lines = ["y,F_re_lo,F_re_hi,F_im_lo,F_im_hi,absF_hi,case,m_of_y"]
    for res in ser.evaluate_many(points):
        lines.append(",".join([
            _fmt_point(ser.family.domain.point(res.point)),
            _fmt(res.F.re.lo), _fmt(res.F.re.hi),
            _fmt(res.F.im.lo), _fmt(res.F.im.hi),
            _fmt(res.abs_F.hi),
            str(res.case),
            str(res.m_of_y),
        ]))
    _emit("\n".join(lines) + "\n", out)
    return 0


def cmd_verify(cfg: Config, series, grid, out) -> int:
    ser, points = _load_for_grid(cfg, series, grid)
    report = ser.verify_peak(points)
    payload = {"command": "verify"}
    payload.update(report)
    _emit(_json_text(payload), out)
    return 0 if report["passed"] else 2


# command -> (handler, help, options); option -> (metavar, help).  main reads
# the command line against this table: building argparse parsers cost every
# invocation about 3 ms, several times the work of params itself
_CONFIG_OUT = {"--config": ("PATH", "JSON config file (required)"),
               "--out": ("PATH", "write the report here instead of stdout")}
_SERIES_IN = ("PATH", "series file produced by build")
_GRID_DEFAULT = f"grid (default {DEFAULT_GRID})"
COMMANDS = {
    "params": (cmd_params, "derive and report constants", _CONFIG_OUT),
    "certify": (cmd_certify, "run the certificate battery", _CONFIG_OUT),
    "build": (cmd_build, "build and save a peak series", {
        **_CONFIG_OUT,
        "--terms": ("INT", f"head length N (default {DEFAULT_TERMS})"),
        "--series": ("PATH", "where to write the series file")}),
    "eval": (cmd_eval, "evaluate a series on a grid", {
        **_CONFIG_OUT, "--series": _SERIES_IN,
        "--grid": ("KIND:LO:HI:COUNT", "evaluation " + _GRID_DEFAULT)}),
    "verify": (cmd_verify, "certify |F| < 1 on a grid", {
        **_CONFIG_OUT, "--series": _SERIES_IN,
        "--grid": ("KIND:LO:HI:COUNT", "verification " + _GRID_DEFAULT)}),
}


def _usage(command) -> str:
    if command is None:
        return f"usage: peakfn [-h] {{{','.join(COMMANDS)}}} ...\n"
    opts = " ".join(f"{o} {meta}" if o == "--config" else f"[{o} {meta}]"
                    for o, (meta, _) in COMMANDS[command][2].items())
    return f"usage: peakfn {command} [-h] {opts}\n"


def _help(command) -> str:
    if command is None:
        about = ("Derive constants, certify inequalities, and verify peaking "
                 "of barrier series.")
        rows = [(name, text) for name, (_, text, _) in COMMANDS.items()]
    else:
        _, about, opts = COMMANDS[command]
        rows = [(f"{o} {meta}", text) for o, (meta, text) in opts.items()]
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    return (f"{_usage(command)}\n{about}\n\n"
            + "".join(f"  {a:<26}{b}\n" for a, b in rows))


def _refuse(command, message):
    # usage problems are exit code 1 in this tool
    sys.stderr.write(f"{_usage(command)}peakfn: error: {message}\n")
    raise SystemExit(1)


def parse_args(argv):
    """Read COMMAND [--opt VALUE | --opt=VALUE]...; return the command and
    its options by name (series for --series), None where not given."""
    if not argv:
        _refuse(None, "the following arguments are required: command")
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        command, rest = None, ["-h"]
    elif command not in COMMANDS:
        _refuse(None, f"invalid command {command!r} (choose from "
                      f"{', '.join(COMMANDS)})")
    if "-h" in rest or "--help" in rest:
        sys.stdout.write(_help(command))
        raise SystemExit(0)
    opts = COMMANDS[command][2]
    args = {o[2:]: None for o in opts}
    i = 0
    while i < len(rest):
        name, eq, value = rest[i].partition("=")
        if name not in opts:
            _refuse(command, f"unrecognized argument: {rest[i]}")
        if not eq:  # a value that starts with "-" needs --opt=VALUE
            i += 1
            if i == len(rest) or rest[i].startswith("-"):
                _refuse(command, f"argument {name}: expected one argument")
            value = rest[i]
        i += 1
        try:
            args[name[2:]] = int(value) if opts[name][0] == "INT" else value
        except ValueError:
            _refuse(command, f"argument {name}: invalid int value: {value!r}")
    if args["config"] is None:
        _refuse(command, "the following arguments are required: --config")
    return command, args


def main(argv=None) -> int:
    command, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = load_config(args.pop("config"))
        return COMMANDS[command][0](cfg, **args)
    except (InfeasibleParametersError, BuildRefusedError) as exc:
        sys.stderr.write(f"peakfn: {exc}\n")
        return 2
    except (PeakFnError, ValueError, OSError) as exc:
        sys.stderr.write(f"peakfn: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
