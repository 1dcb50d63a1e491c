"""Benchmark for the ewverify CLI: fresh-process jobs with known answers.

Usage (from the repository root):

    python3 perfbench/run.py --workload {verify-all|symbolic|oracle} \
        --seed N --seconds S --trace {0|1}

Every CLI invocation runs in a fresh Python process, so no cache kept in one
interpreter across jobs can show a gain that a CLI user does not get.  Jobs
run one at a time in a closed loop with one client: the next job starts when
the previous one has ended, until S seconds have passed (at least two jobs;
job 1 repeats job 0 and its JSON must match byte for byte).  Every verdict is
judged against a known answer.

With ``--trace 0`` the run prints the end-to-end metrics.  Their times are
in reference seconds: wall time scaled by the CPU speed measured next to it
(see ``Slices``), because a shared CPU's speed drifts by up to 2x within
minutes.  Plain wall times are printed beside them.  With ``--trace 1`` each
job runs untraced and then traced (the traced output must equal the untraced
output), and the run prints the per-layer metrics and the tracing overhead,
also in reference seconds.  The last line of output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import NOTE as TRACE_NOTE
from workloads import WORKLOADS, Job, jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_PROBES = 15  # extra processes per untraced run that only import the CLI
HARD_LIMIT_S = 170.0  # a run never lasts longer than this
MIN_JOBS = 2  # job 1 repeats job 0 for the byte-for-byte comparison
SLICE_S = 0.2  # the child runs this long between speed measurements
REFERENCE_ITERATIONS = 4000
REFERENCE_S = 0.018  # reference_work() on an uncontended Xeon core, Python 3.11
# End-to-end metrics in the final JSON line.  job_s.tail needs eleven jobs,
# which a verify-all run does not reach, and failed_ratio is 0 when all is
# well; both are printed with the others, and failures also appear as
# ``failed`` in the final line.
REPORTED = ("setup_s", "job_s.p50", "verdicts_per_s", "peak_rss_mb")
SWEEP_NOTE = ("sweep verdicts count only a crash or a nonzero exit: its slope "
              "fit cannot fail at present")


@dataclass
class Outcome:
    """One CLI invocation as the parent saw it.

    ``setup_s`` and ``run_s`` are in reference seconds (see ``Slices``);
    the ``raw_`` fields are plain wall time.
    """

    setup_s: float = 0.0
    run_s: float = 0.0
    raw_setup_s: float = 0.0
    raw_run_s: float = 0.0
    rc: int | None = None
    stdout: bytes = b""
    stderr: bytes = b""
    peak_rss_kb: int = 0
    trace: dict | None = None
    problem: str | None = None  # crash or timeout


@dataclass
class JobResult:
    job: Job
    outcomes: list[Outcome]
    wrong: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(o.run_s for o in self.outcomes)

    @property
    def raw_seconds(self) -> float:
        return sum(o.raw_run_s for o in self.outcomes)


def reference_work() -> float:
    """Seconds that one fixed pure-Python computation takes right now.

    Like the engine, it spends its time in ``Fraction`` arithmetic, small
    tuples, sorting and dicts.
    """
    t0 = time.perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, REFERENCE_ITERATIONS):
        q = Fraction(i % 97 + 1, i % 89 + 2)
        total = total + q * q if total.denominator < 10**40 else q
        key = tuple(sorted((i % 7, i % 5, i % 3, i % 11)))
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0


class Slices:
    """Running intervals of one child process, each with the speed after it.

    A CPU shared with other tenants runs the same Python code up to twice as
    slow for seconds at a time, and the two CPUs of a box do not slow
    together.  So the child and this process share one CPU, the child is
    paused every ``SLICE_S`` seconds while ``reference_work`` is timed, and
    each interval is scaled by ``REFERENCE_S / (that time)``.  The result
    is in reference seconds: the wall time the interval would have taken at
    the speed at which ``reference_work`` takes ``REFERENCE_S``.
    """

    def __init__(self):
        self.parts: list[tuple[float, float, float]] = []  # start, end, scale

    def add(self, start: float, end: float) -> None:
        self.parts.append((start, end, REFERENCE_S / reference_work()))

    def split(self, t: float) -> tuple[float, float, float, float]:
        """(raw, reference) seconds before and after time ``t``."""
        raw_before = ref_before = raw_after = ref_after = 0.0
        for start, end, scale in self.parts:
            before = min(max(t - start, 0.0), end - start)
            raw_before += before
            ref_before += before * scale
            raw_after += end - start - before
            ref_after += (end - start - before) * scale
        return raw_before, ref_before, raw_after, ref_after


def read_all(file) -> bytes:
    file.seek(0)
    return file.read()


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # an installed CLI imports cached bytecode, so let the warm-up write it
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, mode: str, argv=()) -> Outcome:
        """Run child.py in a fresh process; time set-up and the run."""
        # unnamed files in the checkout, so that even a killed run leaves nothing
        with tempfile.TemporaryFile(dir=ROOT) as out_f, \
                tempfile.TemporaryFile(dir=ROOT) as err_f, \
                tempfile.TemporaryFile(dir=ROOT) as record_f:
            alive_r, alive_w = os.pipe()  # reads EOF once the child has exited
            try:
                t_spawn = time.monotonic()
                proc = subprocess.Popen(
                    [sys.executable, str(CHILD), str(record_f.fileno()), mode, *argv],
                    cwd=ROOT, env=self.env, stdout=out_f, stderr=err_f,
                    pass_fds=(alive_w, record_f.fileno()),
                )
                os.close(alive_w)
                alive_w = None
                try:
                    slices = self._watch(proc, alive_r, t_spawn)
                finally:
                    if proc.poll() is None:
                        proc.kill()
                    proc.wait()
            finally:
                os.close(alive_r)
                if alive_w is not None:
                    os.close(alive_w)
            out, err, raw_record = map(read_all, (out_f, err_f, record_f))
        if slices is None:
            return Outcome(problem="timed out")
        try:
            record = json.loads(raw_record)
        except ValueError:
            return Outcome(rc=proc.returncode, stdout=out, stderr=err,
                           problem=f"crashed before the CLI was ready: {err[-300:]!r}")
        raw_setup, setup, raw_run, run_ = slices.split(record["t_ready"])
        outcome = Outcome(
            setup_s=setup, run_s=run_, raw_setup_s=raw_setup, raw_run_s=raw_run,
            rc=record["rc"], stdout=out, stderr=err,
            peak_rss_kb=record["peak_rss_kb"], trace=record.get("trace"),
        )
        if outcome.rc is None:
            outcome.problem = f"crashed: {err[-300:]!r}"
        return outcome

    def _watch(self, proc, alive, start: float) -> Slices | None:
        """Run the child in slices until it exits; None if it runs too long."""
        slices = Slices()
        while True:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                return None
            exited, _, _ = select.select([alive], [], [], min(SLICE_S, remaining))
            if exited:
                proc.wait()
                slices.add(start, time.monotonic())
                return slices
            os.kill(proc.pid, signal.SIGSTOP)
            slices.add(start, time.monotonic())
            os.kill(proc.pid, signal.SIGCONT)
            start = time.monotonic()

    def run_job(self, job: Job, modes=("run",)) -> list[JobResult]:
        """Run the job once per mode; each invocation runs in every mode back
        to back, so that paired runs see nearly the same CPU speed."""
        results = [JobResult(job, []) for _ in modes]
        for inv in job.invocations:
            for mode, result in zip(modes, results):
                o = self.spawn(mode, inv.argv)
                result.outcomes.append(o)
                if o.problem is not None:
                    result.wrong += [f"{' '.join(inv.argv)}: {o.problem}"] * inv.verdicts
                else:
                    text = o.stdout.decode("utf-8", errors="replace")
                    result.wrong += [f"{' '.join(inv.argv)}: {w}"
                                     for w in inv.judge(o.rc, text)]
        return results


def mark_mismatches(result: JobResult, reference: JobResult, what: str) -> None:
    """Count every verdict of an invocation whose output differs as wrong."""
    for inv, o, ref in zip(result.job.invocations, result.outcomes, reference.outcomes):
        if o.problem is None and (o.rc, o.stdout) != (ref.rc, ref.stdout):
            result.wrong += [f"{' '.join(inv.argv)}: {what}"] * inv.verdicts


# --- metrics ---------------------------------------------------------------

def tail(values):
    """The highest percentile with at least ten values beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def environment(workload: str, seed: int) -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            if git.returncode == 0:
                commit = git.stdout.strip()
        except OSError:
            commit = "unavailable (no git)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "ewverify").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return (f"environment: python={platform.python_version()} "
            f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} commit={commit} "
            f"src_sha256={digest.hexdigest()[:16]} workload={workload} seed={seed}")


def end_to_end(results, setup, attempted, failed):
    """End-to-end metrics: (name, value, unit, how it was measured)."""
    times = [r.seconds for r in results]
    raw = [r.raw_seconds for r in results]
    busy = sum(times)
    rss = [o.peak_rss_kb / 1024 for r in results for o in r.outcomes if not o.problem]
    rows = [
        ("setup_s", statistics.median(o.setup_s for o in setup), "s",
         f"median of {len(setup)} processes; "
         f"{statistics.median(o.raw_setup_s for o in setup):.4f} s of wall time"),
        ("job_s.p50", statistics.median(times), "s",
         f"median of {len(times)} jobs; {statistics.median(raw):.4f} s of wall time"),
    ]
    t = tail(times)
    rows.append(("job_s.tail", t and t[0], "s",
                 f"p{t[1]:.1f} of {len(times)} jobs" if t else
                 f"n/a: {len(times)} jobs, a tail needs at least 11"))
    rows += [
        ("verdicts_per_s", attempted / busy, "1/s",
         f"{attempted} verdicts in {busy:.3f} s of job time ({sum(raw):.3f} s of wall time)"),
        ("peak_rss_mb", statistics.median(rss) if rss else None, "MB",
         f"median of {len(rss)} job processes"),
        ("failed_ratio", failed / attempted, "ratio", f"{failed} of {attempted} checks"),
    ]
    return rows


def _count(name):
    return lambda t: t["counts"].get(name, 0)


def _prefix(prefix):
    return lambda t: sum(v for k, v in t["counts"].items() if k.startswith(prefix))


def _self(layer):
    return lambda t: t["self_s"].get(layer, 0.0)


def _incl(name):
    return lambda t: t["inclusive_s"].get(name, 0.0)


def _check(name):
    return lambda t: t["check_s"].get(name, 0.0)


def _ratio(num, den):
    return lambda t: t["counts"].get(num, 0) / t["counts"][den] if t["counts"].get(den) else 0.0


CHECK_NAMES = ("group-axioms", "grading-identity", "matter-radial-identity",
               "u1-invariance", "su2-invariance", "trace-identity",
               "base-fiber-decoupling", "mass-invariance", "masses", "scaling-sweep")

# (metric, unit, getter).  Counts and ratios repeat exactly for a seed and are
# taken from job 0; times are medians over the run's traced jobs.
PER_LAYER = [
    ("contraction.cr_ops", "count", _prefix("contraction.ComplexRational.")),
    ("contraction.cs_mul.calls", "count", _count("contraction.ContractionScalar.__mul__")),
    ("contraction.cs_mul.coeff_pairs", "count", _count("contraction.cs_mul.coeff_pairs")),
    ("contraction.reduce.calls", "count", _count("contraction.ContractionScalar.reduce")),
    ("contraction.self_s", "s", _self("contraction")),
    ("matrices.matmul.calls", "count", _count("matrices.Mat2.__matmul__")),
    ("matrices.su2_element.calls", "count", _count("matrices.su2_element")),
    ("matrices.self_s", "s", _self("matrices")),
    ("fields.build.calls", "count", _count("fields.Expression.build")),
    ("fields.build.terms_in", "count", _count("fields.build.terms_in")),
    ("fields.add.calls", "count", _count("fields.Expression.__add__")),
    ("fields.mul.calls", "count", _count("fields.Expression.__mul__")),
    ("fields.substitute.s", "s", _incl("fields.substitute")),
    ("fields.first_order_variation.s", "s", _incl("fields.first_order_variation")),
    ("fields.euler_lagrange.s", "s", _incl("fields.euler_lagrange")),
    ("fields.self_s", "s", _self("fields")),
    ("numeric.equals.calls", "count", _count("numeric.equals")),
    ("numeric.equals.oracle_ratio", "ratio", _ratio("numeric.equals.oracle", "numeric.equals")),
    ("numeric.eval.calls", "count", _count("numeric.eval_expression")),
    ("numeric.eval.products", "count", _count("numeric.eval.products")),
    ("numeric.self_s", "s", _self("numeric")),
    ("model.build_L27.calls", "count", _count("model.build_L27")),
    ("model.build_L27.s", "s", _incl("model.build_L27")),
    ("model.self_s", "s", _self("model")),
    *[(f"check.{c}.s", "s", _check(c)) for c in CHECK_NAMES],
    ("limits.self_s", "s", _self("limits")),
    ("limits.degenerate_redraws", "count", _count("limits.sweep.redraws")),
    ("parser.to_text.calls", "count", _count("parser.to_text")),
    ("parser.self_s", "s", _self("parser")),
    ("cli.self_s", "s", _self("cli")),
]


def job_trace(result: JobResult) -> dict:
    """Sum the tracer summaries of a job's invocations.

    Span times, which are CPU time of the child and so hold no pauses, are
    scaled to reference seconds by their invocation's mean speed (see
    ``Slices``); counts are summed as they are.
    """
    total = {"counts": {}, "self_s": {}, "inclusive_s": {}, "check_s": {}}
    for o in result.outcomes:
        if not o.trace:
            continue
        for key, part in total.items():
            scale = 1 if key == "counts" else o.run_s / o.raw_run_s
            for name, value in (o.trace.get(key) or {}).items():
                part[name] = part.get(name, 0) + value * scale
    return total


def per_layer(traced, untraced):
    """Per-layer metrics from the traced jobs, plus the tracing overhead."""
    summaries = [job_trace(r) for r in traced]
    rows = []
    for name, unit, get in PER_LAYER:
        if unit == "s":
            values = [get(s) for s in summaries]
            rows.append((name, statistics.median(values), unit,
                         f"median of {len(values)} traced jobs"))
        else:
            rows.append((name, get(summaries[0]), unit, "job 0"))
    first = summaries[0]["counts"]
    draws = first.get("limits.sweep.draws", 0)
    pairs = list(zip(traced, untraced))
    raw = statistics.median(t.raw_seconds - u.raw_seconds for t, u in pairs)
    rows.append(("trace.overhead_s", statistics.median(t.seconds - u.seconds for t, u in pairs),
                 "s", f"median over {len(pairs)} job pairs of traced minus untraced job "
                 f"time; {raw:.4f} s of wall time"))
    notes = []
    if draws:
        notes.append(f"limits.degenerate_redraws: {first['limits.sweep.redraws']} "
                     f"redraws out of {draws} draws in job 0")
    return rows, notes


def print_rows(rows) -> None:
    for name, value, unit, how in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>12s} {unit:6s} {how}")


# --- main ------------------------------------------------------------------

def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})  # children inherit this one CPU; see Slices
    try:
        runner = Runner(start + HARD_LIMIT_S)
        warm = runner.spawn("ready")  # byte-compiles the package once
        if warm.problem:
            raise SystemExit(f"perfbench: cannot start the CLI: {warm.problem}")
        setup = [] if trace else [runner.spawn("ready") for _ in range(SETUP_PROBES)]
        measured, traced = [], []
        stop = time.monotonic() + seconds
        for k, job in enumerate(jobs(workload, seed)):
            if k >= (1 if trace else MIN_JOBS) and time.monotonic() >= stop:
                break
            result, *shadow = runner.run_job(job, ("run", "trace") if trace else ("run",))
            if k == 1 and not trace:
                mark_mismatches(result, measured[0], "JSON differs from job 0 (same inputs)")
            measured.append(result)
            for r in shadow:
                mark_mismatches(r, result, "traced output differs from untraced")
                traced.append(r)
            if any(o.problem == "timed out" for r in (measured + traced)[-2:] for o in r.outcomes):
                break
    finally:
        os.sched_setaffinity(0, cpus)

    results = measured + traced
    attempted = sum(r.job.verdicts for r in results)
    failed = sum(min(len(r.wrong), r.job.verdicts) for r in results)
    print(f"ewverify benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print(environment(workload, seed))
    repeat = ("each invocation runs untraced, then traced, and the outputs must match" if trace
              else "job 1 repeats job 0 and the outputs must match")
    print(f"jobs: {len(measured)} (closed loop, one client, a fresh process per CLI "
          f"invocation; {repeat}); {len(results[0].job.invocations)} invocations and "
          f"{results[0].job.verdicts} verdicts per job; job 0: {results[0].job.label}")
    if workload == "oracle":
        print(f"note: {SWEEP_NOTE}")
    for r in results:
        for w in r.wrong:
            print(f"WRONG [{r.job.label}] {w}")
    for o in (o for r in results for o in r.outcomes if o.stderr):
        print(f"stderr: {o.stderr.decode(errors='replace')[-300:]!r}")

    if trace:
        rows, notes = per_layer(traced, measured)
        print("per-layer metrics (traced run):")
        print_rows(rows)
        print(f"note: {TRACE_NOTE}")
        print("note: *_s metrics are in reference seconds: span times (CPU time of the "
              "job process) scaled by the speed measured while the job ran")
        for note in notes:
            print(f"note: {note}")
    else:
        setup = [o for o in setup + [o for r in measured for o in r.outcomes] if not o.problem]
        rows = end_to_end(measured, setup, attempted, failed)
        print("end-to-end metrics (untraced):")
        print_rows(rows)
        rows = [row for row in rows if row[0] in REPORTED]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ewverify" / "cli.py").is_file():
        print(f"perfbench: no ewverify sources under {SRC}", file=sys.stderr)
        return 2
    # turn a termination request into SystemExit so that children are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
