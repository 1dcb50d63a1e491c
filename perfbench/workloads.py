"""Workload jobs and their known answers.

A job is a list of CLI invocations, each of which decides some checks
(verdicts).  Inputs come from the workload seed only.  Job 1 repeats job 0's
inputs so that every run compares the JSON of one (config, seed) pair byte
for byte.  Known answers are computed here in ``Fraction`` arithmetic,
independently of the engine.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("verify-all", "symbolic", "oracle")

# sweep samples in the oracle workload: large enough that evaluating built
# expressions, not building them, takes most of the job
SWEEP_SAMPLES = 500

VERIFY_ALL = (
    ("group-axioms", "j=1"),
    ("group-axioms", "j=iota"),
    ("group-axioms", "j=0.001"),
    ("grading-identity", "g=3, gp=4"),
    ("matter-radial-identity", "g=3, gp=4"),
    ("u1-invariance", "g=3, gp=4"),
    ("su2-invariance", "j=1"),
    ("su2-invariance", "j=iota"),
    ("trace-identity", "all"),
    ("base-fiber-decoupling", "j=iota vs j=1"),
    ("mass-invariance", "j=1 vs j=iota"),
)
# numeric-mode error limits pinned by acceptance criteria 02 and 08; every
# other report of an exact configuration must show an error of exactly 0.0
VERIFY_ALL_LIMITS = {("group-axioms", "j=0.001"): 1e-12, ("trace-identity", "all"): 1e-10}

LAGRANGIAN = (("grading-identity", None), ("matter-radial-identity", None))
GAUGE = (("u1-invariance", None), ("su2-invariance", "j=1"), ("su2-invariance", "j=iota"))
EOM = (("base-fiber-decoupling", "j=iota vs j=1"),)
ORACLE_REL_TOL = 1e-9  # the numeric oracle's documented tolerance
FLOAT_REL_TOL = 1e-12


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    verdicts: int  # checks this invocation decides
    judge: Callable[[int, str], list[str]]  # (exit code, stdout) -> wrong verdicts


@dataclass(frozen=True)
class Job:
    label: str
    invocations: tuple[Invocation, ...]

    @property
    def verdicts(self) -> int:
        return sum(inv.verdicts for inv in self.invocations)


def jobs(workload: str, seed: int):
    """Endless job sequence for a workload; job 1 repeats job 0."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make = {"verify-all": _verify_all_job, "symbolic": _symbolic_job,
            "oracle": _oracle_job}[workload]
    first = make(rng)
    yield first
    yield first
    while True:
        yield make(rng)


# --- verify-all ------------------------------------------------------------

def _verify_all_job(rng: random.Random) -> Job:
    seed = rng.randrange(2**31)
    argv = ("verify", "all", "--seed", str(seed))
    judge = _reports_judge(VERIFY_ALL, VERIFY_ALL_LIMITS, default_limit=0.0)
    return Job(f"seed={seed}", (Invocation(argv, len(VERIFY_ALL), judge),))


# --- symbolic --------------------------------------------------------------

def pythagorean_point(rng: random.Random):
    """(g, gp, s, R) with s = sqrt(g^2 + gp^2) rational, by Euclid's formula."""
    while True:
        m = rng.randint(2, 7)
        n = rng.randint(1, m - 1)
        if (m - n) % 2 == 1 and math.gcd(m, n) == 1:
            break
    scale = Fraction(rng.randint(1, 8), rng.randint(1, 8))
    legs = [m * m - n * n, 2 * m * n]
    rng.shuffle(legs)
    g, gp, s = scale * legs[0], scale * legs[1], scale * (m * m + n * n)
    R = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return g, gp, s, R


def _symbolic_job(rng: random.Random) -> Job:
    g, gp, s, R = pythagorean_point(rng)
    seed = rng.randrange(2**31)
    point = ("--g", str(g), "--gp", str(gp), "--R", str(R), "--seed", str(seed))
    # every identity at a rational point is decided exactly: error 0.0
    return Job(f"g={g} gp={gp} R={R} seed={seed}", (
        Invocation(("verify", "lagrangian") + point, 2, _reports_judge(LAGRANGIAN, {}, 0.0)),
        Invocation(("verify", "gauge") + point, 3, _reports_judge(GAUGE, {}, 0.0)),
        Invocation(("eom",) + point, 1, _reports_judge(EOM, {}, 0.0)),
        Invocation(("masses",) + point, 1, _masses_judge(g, gp, R, s)),
    ))


# --- oracle ----------------------------------------------------------------

def _decimal(rng: random.Random, low: int, high: int) -> str:
    """Random decimal with three places in [low, high] thousandths."""
    v = rng.randint(low, high)
    return f"{v // 1000}.{v % 1000:03d}"


def _oracle_job(rng: random.Random) -> Job:
    g, gp, R = _decimal(rng, 200, 2500), _decimal(rng, 200, 2500), _decimal(rng, 500, 3000)
    seed = rng.randrange(2**31)
    point = ("--no-exact", "--g", g, "--gp", gp, "--R", R, "--seed", str(seed))
    oracle = _reports_judge(LAGRANGIAN, {}, ORACLE_REL_TOL)
    return Job(f"g={g} gp={gp} R={R} seed={seed}", (
        Invocation(("verify", "lagrangian") + point, 2, oracle),
        Invocation(("sweep", "--samples", str(SWEEP_SAMPLES)) + point, 1, _sweep_judge),
        Invocation(("masses",) + point, 1,
                   _masses_judge(Fraction(g), Fraction(gp), Fraction(R), None)),
        Invocation(("eom",) + point, 1, _reports_judge(EOM, {}, 0.0)),
    ))


# --- judges ----------------------------------------------------------------

def _reports_judge(expected, limits, default_limit):
    """Judge a ``verify``/``eom`` JSON report list against known verdicts.

    ``expected`` lists (check, mode) in order; a mode of None matches any
    label.  Every check must pass with an error in [0, limit].
    """
    def judge(rc: int, out: str) -> list[str]:
        try:
            reports = json.loads(out)["reports"]
            keys = [(r["check_name"], r["mode"]) for r in reports]
        except (ValueError, KeyError, TypeError):
            return ["unparsable report"] * len(expected)
        if rc != 0:
            return [f"exit code {rc}"] * len(expected)
        if len(keys) != len(expected) or any(
            name != k[0] or (mode is not None and mode != k[1])
            for (name, mode), k in zip(expected, keys)
        ):
            return [f"reports {keys} differ from {list(expected)}"] * len(expected)
        wrong = []
        for r, key in zip(reports, expected):
            limit = limits.get(key, default_limit)
            err = r["max_abs_error"]
            if r["status"] != "pass":
                wrong.append(f"{key}: status {r['status']}")
            elif not 0.0 <= err <= limit:
                wrong.append(f"{key}: max_abs_error {err} outside [0, {limit}]")
        return wrong
    return judge


def _close(value, exact) -> bool:
    return math.isclose(value, exact, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)


def _masses_judge(g: Fraction, gp: Fraction, R: Fraction, s: Fraction | None):
    """m_W^2 = g^2 R^2/4 and m_Z^2 = (g^2+gp^2) R^2/4 exactly, m_A = 0.

    At a Pythagorean point (``s`` given) the roots, e and cos(theta_W) are
    rational too and are checked exactly.
    """
    m_w_sq = g * g * R * R / 4
    m_z_sq = (g * g + gp * gp) * R * R / 4
    exact_roots = {}
    if s is not None:
        exact_roots = {"m_W": g * R / 2, "m_Z": s * R / 2,
                       "e_charge": g * gp / s, "cos_theta_W": g / s}

    def judge(rc: int, out: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            d = json.loads(out)
            problems = []
            if Fraction(d["exact"]["m_W_sq"]) != m_w_sq:
                problems.append(f"m_W_sq {d['exact']['m_W_sq']} != {m_w_sq}")
            if Fraction(d["exact"]["m_Z_sq"]) != m_z_sq:
                problems.append(f"m_Z_sq {d['exact']['m_Z_sq']} != {m_z_sq}")
            if d["m_A"] != 0.0:
                problems.append(f"m_A {d['m_A']} != 0")
            if not _close(d["m_W"], math.sqrt(m_w_sq)):
                problems.append(f"m_W {d['m_W']} != sqrt({m_w_sq})")
            if not _close(d["m_Z"], math.sqrt(m_z_sq)):
                problems.append(f"m_Z {d['m_Z']} != sqrt({m_z_sq})")
            for name, value in exact_roots.items():
                if Fraction(d["exact"][name]) != value or not _close(d[name], value):
                    problems.append(f"{name} {d['exact'][name]} != {value}")
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unparsable masses output ({exc!r})"]
        return ["; ".join(problems)] if problems else []
    return judge


def _sweep_judge(rc: int, out: str) -> list[str]:
    # The slope fit cannot fail at present (the sweep scales j-independent
    # means by powers of j), so only a crash, a nonzero exit or unusable
    # output counts against the sweep.
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        samples = json.loads(out)["samples"]
    except (ValueError, KeyError, TypeError):
        return ["unparsable sweep output"]
    return [] if samples == SWEEP_SAMPLES else [f"sweep used {samples} samples"]
