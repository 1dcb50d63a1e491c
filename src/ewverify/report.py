"""Verification report records, the one constructor checks build them with,
the witness rule for a nonzero residue, and the timing wrapper that stamps
their duration."""

from __future__ import annotations

import functools
import time
from collections import namedtuple


class VerificationReport(namedtuple("VerificationReport",
                                     "check_name mode passed witness duration_ms",
                                     defaults=(None, 0))):
    """Outcome of one named check.

    Stored: ``check_name``, ``mode``, ``passed``, ``witness`` and
    ``duration_ms``.  Every check decides in exact arithmetic, so the rest
    follows from ``passed``: ``status`` is "pass" or "fail",
    ``decision_path`` is always "exact-symbolic", and ``max_abs_error`` is
    0.0 for a pass and -1.0 for a mismatch (no meaningful magnitude).
    """

    __slots__ = ()

    decision_path = "exact-symbolic"

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def max_abs_error(self) -> float:
        return 0.0 if self.passed else -1.0

    def as_dict(self) -> dict:
        # Timing is left out so identical (config, seed) runs serialize
        # byte-identically.
        return {
            "check_name": self.check_name,
            "mode": self.mode,
            "status": self.status,
            "decision_path": self.decision_path,
            "max_abs_error": self.max_abs_error,
            "witness": self.witness,
        }

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        wit = f" [{self.witness}]" if (self.witness and not self.passed) else ""
        return (
            f"[{mark}] {self.check_name} ({self.mode}) via {self.decision_path}"
            f" in {self.duration_ms} ms{wit}"
        )


def verdict(
    check_name: str, mode: str, failures, witness: str | None = None
) -> VerificationReport:
    """Build a check's report: it passes exactly when ``failures`` is empty.
    A pass keeps ``witness``; a fail joins the failures as its witness."""
    if failures:
        return VerificationReport(check_name, mode, False, "; ".join(failures))
    return VerificationReport(check_name, mode, True, witness)


def witness(residue, label: str | None = None) -> list[str]:
    """The failure a nonzero residue records: its text cut to 200
    characters, after ``label`` when one is given; ``[]`` for zero."""
    if not residue:
        return []
    text = str(residue)[:200]
    return [f"{label}: {text}" if label else text]


def timed(check):
    """Stamp the wall time of ``check`` on the report it returns."""

    @functools.wraps(check)
    def run(*args, **kwargs):
        t0 = time.perf_counter()
        report = check(*args, **kwargs)
        return report._replace(duration_ms=int((time.perf_counter() - t0) * 1000))

    return run
