"""Command-line verification harness.

Subcommands run the named check suites and emit reports as JSON (default),
plain text, or CSV (scaling sweep only).  Exit status: 0 when every check
passes, 1 when any check fails or the engine faults, 2 on usage or
configuration errors.
Identical (config, seed) inputs produce byte-identical JSON output.
A plain command line (the command, the suite, then whole flags, each with
a value that does not start with "-") is read directly; any other line,
``--flag=value``, an abbreviation and ``-h`` among them, goes through
argparse, which is imported only then.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from .contraction import DEFAULT_MODES, J_NILPOTENT, J_ONE, JMode
from .limits import decoupling_check, mass_invariance_check, scaling_sweep
from .matrices import verify_group
from .model import (
    ModelConfig,
    ParameterError,
    beyond_float_range,
    check_su2_invariance,
    check_u1_invariance,
    extract_masses,
    verify_grading,
    verify_matter_radial,
    verify_trace_identity,
)

SWEEP_JS = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3)

# each config key and the flag that sets it
FLAGS = {"g": "g", "gp": "gp", "R": "R", "jmode": "j", "seed": "seed",
         "samples": "samples", "exact": "exact"}

# the flags each command never reads; passing one is a usage error
_COUPLING_FLAGS = ("g", "gp", "R", "exact")
IGNORED_FLAGS = {
    "verify group": _COUPLING_FLAGS + ("seed", "samples"),
    "verify lagrangian": ("j", "samples"),
    "verify gauge": ("samples",),
    "verify trace": ("j",) + _COUPLING_FLAGS + ("seed", "samples"),
    "verify all": ("samples",),
    "masses": ("samples",),
    "eom": ("j", "samples"),
    "sweep": ("j",),
}


class ConfigError(ValueError):
    pass


def _setting(key: str, value):
    """The value of config key ``key``, from the config file or from the
    key's flag: both are read by these rules."""
    if key == "jmode":
        try:
            return JMode.from_text(str(value))
        except ValueError as exc:
            raise ConfigError(f"invalid value for 'jmode': {exc}") from None
    # only exact is a bool, and no other value is one: JSON true is not the number 1
    if isinstance(value, bool) == (key == "exact"):
        # a negative seed is refused: random.Random seeds from abs(seed)
        if key == "exact" or (key in ("seed", "samples") and isinstance(value, int)
                              and (key == "samples" or value >= 0)):
            return value
        if key in ("g", "gp", "R"):
            try:
                return Fraction(value)
            except (ValueError, TypeError, ZeroDivisionError, OverflowError):
                pass
    raise ConfigError(f"invalid value for {key!r}: {value!r}")


def _config_values(path: str | Path) -> dict:
    """The validated values a JSON config file sets, by config key; an
    empty file sets none."""
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
        data = json.loads(text) if text else {}
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ConfigError(f"malformed config {str(path)!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - set(FLAGS))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    return {key: _setting(key, data[key]) for key in FLAGS if key in data}


def _model_config(kwargs: dict) -> ModelConfig:
    try:
        return ModelConfig(**kwargs)
    except ValueError as exc:  # a ParameterError too
        raise ConfigError(str(exc)) from None


def _config_from_args(args) -> tuple[ModelConfig, JMode | None]:
    """The config file's values overridden by the flags, and the mode that
    ``--j`` or the file's ``jmode`` selects (None when neither sets one)."""
    kwargs = _config_values(args.config) if args.config else {}
    for key, flag in FLAGS.items():
        if getattr(args, flag) is not None:
            kwargs[key] = _setting(key, getattr(args, flag))
    # a value the command never reads is not checked against the others
    ignored = IGNORED_FLAGS[_command(args)]
    kwargs = {k: v for k, v in kwargs.items() if FLAGS[k] not in ignored}
    mode = kwargs.pop("jmode", None)
    return _model_config(kwargs), mode


# Each suite takes the selected mode, or None to run every mode.

def _group_suite(cfg: ModelConfig, mode: JMode | None):
    modes = DEFAULT_MODES if mode is None else [mode]
    return [verify_group(m) for m in modes]


def _lagrangian_suite(cfg: ModelConfig, mode: JMode | None):
    return [verify_grading(cfg), verify_matter_radial(cfg)]


def _gauge_suite(cfg: ModelConfig, mode: JMode | None):
    modes = [J_ONE, J_NILPOTENT] if mode is None else [mode]
    return [check_u1_invariance(cfg)] + [check_su2_invariance(m) for m in modes]


def _trace_suite(cfg: ModelConfig, mode: JMode | None):
    return [verify_trace_identity()]


def _all_suite(cfg: ModelConfig, mode: JMode | None):
    reports = []
    for suite in (_group_suite, _lagrangian_suite, _gauge_suite, _trace_suite):
        reports.extend(suite(cfg, mode))
    reports.append(decoupling_check(cfg))
    reports.append(mass_invariance_check(cfg))
    return reports


SUITES = {
    "group": _group_suite,
    "lagrangian": _lagrangian_suite,
    "gauge": _gauge_suite,
    "trace": _trace_suite,
    "all": _all_suite,
}

COMMANDS = {
    "verify": "run a named check suite",
    "masses": "extract the mass spectrum",
    "sweep": "contraction scaling sweep",
    "eom": "base/fiber decoupling of field equations",
}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_reports(reports, args) -> int:
    """Print a report list in the requested format; exit 1 if any check failed."""
    passed = sum(1 for r in reports if r.passed)
    if args.format == "text":
        lines = [r.line() for r in reports]
        lines.append(f"{passed}/{len(reports)} checks passed")
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "reports": [r.as_dict() for r in reports],
            "summary": {
                "total": len(reports),
                "passed": passed,
                "failed": len(reports) - passed,
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    _emit(text, args.out)
    return 0 if passed == len(reports) else 1


# The flags every command takes, each with the keywords argparse registers
# it by; the action "switch" is argparse's BooleanOptionalAction, which adds
# the --no- form.  _add_common registers these and _plain_args reads them.
OPTIONS = {
    "--j": {"help": "contraction mode: 1, iota, or a float"},
    "--g": {"help": "SU(2) coupling (rational like 3 or 3/2)"},
    "--gp": {"help": "U(1) coupling"},
    "--R": {"help": "sphere radius"},
    "--seed": {"type": int},
    "--samples": {"type": int,
                  "help": "random field draws of sweep (default 100, at least 10)"},
    "--exact": {"action": "switch", "default": None},
    "--config": {"help": "JSON config file path"},
    "--out": {"help": "write output to this path"},
    "--format": {"choices": ("json", "text", "csv"), "default": "json"},
}


def _add_common(sub) -> None:
    import argparse

    for flag, spec in OPTIONS.items():
        if spec.get("action") == "switch":
            spec = dict(spec, action=argparse.BooleanOptionalAction)
        sub.add_argument(flag, **spec)


def _plain_args(argv) -> SimpleNamespace | None:
    """The arguments argparse would read from a plain command line, read
    without it; None for any other line.  A plain line is the command, the
    suite next for ``verify``, then only whole flags of ``OPTIONS``, each
    value flag followed by a value that does not start with "-"; a repeated
    flag keeps its last value.  Help, abbreviations, ``--flag=value``,
    ``--``, a value starting with "-", and a bad int or choice are left to
    argparse, so its help, usage lines and errors stay its own."""
    if not argv or argv[0] not in COMMANDS:
        return None
    args = {"command": argv[0]}
    tokens = iter(argv[1:])
    if argv[0] == "verify":
        args["suite"] = next(tokens, None)
        if args["suite"] not in SUITES:
            return None
    args.update((flag[2:], spec.get("default")) for flag, spec in OPTIONS.items())
    for token in tokens:
        flag = "--" + token[5:] if token.startswith("--no-") else token
        spec = OPTIONS.get(flag)
        if spec is None:
            return None
        if spec.get("action") == "switch":
            args[flag[2:]] = flag == token
            continue
        value = next(tokens, "-")
        if flag != token or value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if value not in spec.get("choices", (value,)):
            return None
        args[flag[2:]] = value
    return SimpleNamespace(**args)


def build_parser(argv):
    """The parser for ``argv``.  Every command is listed with its help, but
    only a command named by a token of ``argv`` gets its arguments: argparse
    hands the rest of the line to the one subparser its command token names,
    so no other subparser parses anything."""
    import argparse
    import shutil

    # argparse asks for the terminal width once per formatter; ask once
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="ewverify",
        description="verification suites for the contracted electroweak model",
        formatter_class=formatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text, formatter_class=formatter)
        if name in argv:
            if name == "verify":
                sub.add_argument("suite", choices=sorted(SUITES))
            _add_common(sub)
    return parser


def run(argv) -> int:
    # A run makes no cyclic garbage but its argument parser, so the collector
    # stays off while it runs.  What the run and the imports built lives until
    # the process exits, so the freeze spares the shutdown's final collection
    # a walk of it; the operating system frees it.  The caller's collector
    # state is put back.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _plain_args(argv) or build_parser(argv).parse_args(argv)
        _reject_ignored_flags(args)
        cfg, mode = _config_from_args(args)
        if args.command == "sweep" and cfg.samples < 10:
            raise ConfigError("sweep needs samples >= 10")
        return _dispatch(args, cfg, mode)
    except (ConfigError, ParameterError, OSError) as exc:
        print(f"ewverify: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an engine fault is a failed run, not bad input
        import traceback

        traceback.print_exc(file=sys.stderr)
        print(f"ewverify: internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


def _command(args) -> str:
    return f"verify {args.suite}" if args.command == "verify" else args.command


def _reject_ignored_flags(args) -> None:
    """Reject flags the command cannot honour, before the config is built."""
    command = _command(args)
    if args.format == "csv" and args.command != "sweep":
        raise ConfigError("csv output is only available for the sweep command")
    for flag in IGNORED_FLAGS[command]:
        value = getattr(args, flag)
        if value is not None:
            shown = "no-exact" if value is False else flag
            raise ConfigError(f"--{shown} is not used by {command}")


def _dispatch(args, cfg: ModelConfig, mode: JMode | None) -> int:
    if args.command == "verify":
        return _emit_reports(SUITES[args.suite](cfg, mode), args)

    if args.command == "masses":
        if mode is not None and mode.kind == "numeric":
            raise ConfigError("invalid value for 'jmode': masses reads the spectrum "
                              "at j=1 or j=iota, not at a numeric j")
        try:  # the spectrum is exact; its floats, s among them, may be beyond range
            values = extract_masses(cfg, J_NILPOTENT if mode is None else mode).as_dict()
        except OverflowError:
            raise beyond_float_range("masses", g=cfg.g, gp=cfg.gp, R=cfg.R) from None
        if args.format == "text":
            lines = [f"{k} = {v}" for k, v in values.items() if k != "exact"]
            _emit("\n".join(lines) + "\n", args.out)
        else:
            _emit(json.dumps(values, indent=2) + "\n", args.out)
        return 0

    if args.command == "sweep":
        report = scaling_sweep(SWEEP_JS, cfg.samples, cfg, cfg.seed)
        if args.format == "csv":
            rows = ["j,ratio_f,ratio_h"]
            rows += [f"{j!r},{rf!r},{rh!r}" for j, rf, rh in report.rows()]
            _emit("\n".join(rows) + "\n", args.out)
        elif args.format == "text":
            _emit(
                f"slope_f={report.slope_f:.4f} slope_h={report.slope_h:.4f} "
                f"r2={report.fit_r2:.6f}\n",
                args.out,
            )
        else:
            _emit(json.dumps(report._asdict(), indent=2) + "\n", args.out)
        ok = abs(report.slope_f - 2) <= 0.01 and abs(report.slope_h - 4) <= 0.02
        return 0 if ok else 1

    return _emit_reports([decoupling_check(cfg)], args)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
