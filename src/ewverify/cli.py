"""Command-line verification harness.

Subcommands run the named check suites and emit reports as JSON (default),
plain text, or CSV (scaling sweep only).  Exit status: 0 when every check
passes, 1 when any check fails or the engine faults, 2 on usage or
configuration errors.
Identical (config, seed) inputs produce byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from .contraction import DEFAULT_MODES, J_NILPOTENT, J_ONE, JMode
from .limits import decoupling_check, mass_invariance_check, scaling_sweep
from .matrices import verify_group
from .model import (
    ModelConfig,
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
    """The value ModelConfig takes for config key ``key``, from the config
    file or from the key's flag: both are read by these rules."""
    if key == "jmode":
        try:
            return JMode.from_text(str(value))
        except ValueError as exc:
            raise ConfigError(f"invalid value for 'jmode': {exc}") from None
    # only exact is a bool, and no other value is one: JSON true is not the number 1
    if isinstance(value, bool) == (key == "exact"):
        if key == "exact" or (key in ("seed", "samples") and isinstance(value, int)):
            return value
        if key in ("g", "gp", "R"):
            try:
                return Fraction(value)
            except (ValueError, TypeError, ZeroDivisionError, OverflowError):
                pass
    raise ConfigError(f"invalid value for {key!r}: {value!r}")


def load_config(path: str | Path) -> ModelConfig:
    """Read a JSON config; an empty file means all defaults."""
    return _model_config(_config_values(path))


def _config_values(path: str | Path) -> dict:
    """The validated values a JSON config file sets, by ModelConfig field."""
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
    cfg = _model_config(kwargs)
    return cfg, cfg.jmode if "jmode" in kwargs else None


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


def _add_common(sub) -> None:
    sub.add_argument("--j", help="contraction mode: 1, iota, or a float")
    sub.add_argument("--g", help="SU(2) coupling (rational like 3 or 3/2)")
    sub.add_argument("--gp", help="U(1) coupling")
    sub.add_argument("--R", help="sphere radius")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--samples", type=int,
                     help="random field draws of sweep (default 100, at least 10)")
    sub.add_argument("--exact", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--config", help="JSON config file path")
    sub.add_argument("--out", help="write output to this path")
    sub.add_argument("--format", choices=("json", "text", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewverify",
        description="verification suites for the contracted electroweak model",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify", help="run a named check suite")
    verify.add_argument("suite", choices=sorted(SUITES))
    _add_common(verify)

    masses = commands.add_parser("masses", help="extract the mass spectrum")
    _add_common(masses)

    sweep = commands.add_parser("sweep", help="contraction scaling sweep")
    _add_common(sweep)

    eom = commands.add_parser("eom", help="base/fiber decoupling of field equations")
    _add_common(eom)
    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _reject_ignored_flags(args)
        cfg, mode = _config_from_args(args)
        if args.command == "sweep" and cfg.samples < 10:
            raise ConfigError("sweep needs samples >= 10")
        return _dispatch(args, cfg, mode)
    except (ConfigError, OSError) as exc:
        print(f"ewverify: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an engine fault is a failed run, not bad input
        traceback.print_exc(file=sys.stderr)
        print(f"ewverify: internal error: {exc}", file=sys.stderr)
        return 1


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
        spectrum = extract_masses(cfg)
        if args.format == "text":
            lines = [f"{k} = {v}" for k, v in spectrum.as_dict().items() if k != "exact"]
            _emit("\n".join(lines) + "\n", args.out)
        else:
            _emit(json.dumps(spectrum.as_dict(), indent=2) + "\n", args.out)
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
            _emit(json.dumps(dataclasses.asdict(report), indent=2) + "\n", args.out)
        ok = abs(report.slope_f - 2) <= 0.01 and abs(report.slope_h - 4) <= 0.02
        return 0 if ok else 1

    return _emit_reports([decoupling_check(cfg)], args)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
