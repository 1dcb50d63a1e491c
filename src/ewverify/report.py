"""Verification report records, the one constructor checks build them with,
the witness rule for a nonzero residue, and the timing wrapper that stamps
their duration."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check.

    Every check decides in exact arithmetic: ``max_abs_error`` is 0.0 for
    a pass, and -1.0 marks a mismatch (no meaningful magnitude).
    """

    check_name: str
    mode: str
    status: str  # "pass" | "fail"
    decision_path: str  # "exact-symbolic"
    max_abs_error: float
    witness: str | None = None
    duration_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

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

    A pass reports error 0.0 and keeps ``witness``; a fail reports the
    exact-mismatch marker -1.0 and joins the failures as its witness.
    """
    passed = not failures
    return VerificationReport(
        check_name=check_name,
        mode=mode,
        status="pass" if passed else "fail",
        decision_path="exact-symbolic",
        max_abs_error=0.0 if passed else -1.0,
        witness=witness if passed else "; ".join(failures),
    )


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
        return replace(report, duration_ms=int((time.perf_counter() - t0) * 1000))

    return run
