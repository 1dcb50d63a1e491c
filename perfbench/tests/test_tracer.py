"""Tests of the layer tracer and the traced benchmark run.

Run from the repository root with

    python3 -m unittest discover -s perfbench/tests

The traced-run tests start fresh CLI processes and take about a minute and a half.
"""

import contextlib
import importlib
import io
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def ewverify_modules():
    importlib.import_module("ewverify.cli")
    return [m for name, m in sys.modules.items()
            if name == "ewverify" or name.startswith("ewverify.")]


class WrapperBindingTest(unittest.TestCase):
    def setUp(self):
        self.tracer = Tracer().install()
        self.addCleanup(self.tracer.uninstall)

    def test_no_module_keeps_an_original(self):
        originals = {id(fn) for fn in self.tracer.wrapped}
        for module in ewverify_modules():
            for attr, obj in vars(module).items():
                self.assertNotIn(id(obj), originals, f"{module.__name__}.{attr} is unwrapped")

    def test_names_imported_by_name_are_wrapped(self):
        from ewverify import cli, fields, limits, matrices, model

        for importer, owner, name in [
            (limits, fields, "substitute"),
            (model, fields, "first_order_variation"),
            (limits, model, "build_L27"),
            (cli, matrices, "verify_group"),
            (cli, model, "extract_masses"),
            (model, importlib.import_module("ewverify.numeric"), "equals"),
            (sys.modules["ewverify"], fields, "euler_lagrange"),
        ]:
            bound = getattr(importer, name)
            self.assertIs(bound, getattr(owner, name))
            self.assertTrue(hasattr(bound, "__wrapped__"), f"{importer.__name__}.{name}")

    def test_methods_are_wrapped_on_their_classes(self):
        from ewverify.contraction import ComplexRational, ContractionScalar
        from ewverify.fields import Expression
        from ewverify.matrices import Mat2

        self.assertTrue(hasattr(Expression.__dict__["build"].__func__, "__wrapped__"))
        self.assertIs(ComplexRational.__radd__, ComplexRational.__add__)
        for method in (Mat2.__matmul__, ContractionScalar.__mul__,
                       ContractionScalar.reduce, Expression.__add__):
            self.assertTrue(hasattr(method, "__wrapped__"), method.__qualname__)

    def test_uninstall_restores_originals(self):
        from ewverify import fields, limits

        self.tracer.uninstall()
        self.assertIs(limits.substitute, fields.substitute)
        self.assertFalse(hasattr(fields.substitute, "__wrapped__"))
        self.assertFalse(hasattr(fields.Expression.__dict__["build"].__func__, "__wrapped__"))

    def test_self_time_covers_every_layer(self):
        self.assertEqual(set(self.tracer.self_s), set(LAYERS))


def traced_run(workload, seed=7, seconds=0):
    """Untraced jobs and their traced twins (at least one pair); returns the
    result line."""
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(workload, seed, seconds=seconds, trace=True)


class TracedRunTest(unittest.TestCase):
    """Traced verdicts and JSON equal the untraced ones (a difference would
    count as failed), the bypass counts hold, and tracing costs time.

    The overhead's sign is asserted where the test can see it: on
    ``verify-all`` tracing adds about a third and one pair of jobs shows it;
    on ``symbolic`` it adds about 5% with a spread of about 5% per pair, so
    that run lasts 40 s, for about nine pairs.  On ``oracle`` it adds 1-5% with
    a spread of about 10% per pair, which only a run of several minutes
    could resolve, so there it is only reported.
    """

    def check(self, workload, seconds=0):
        result = traced_run(workload, seconds=seconds)
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        return {name: m["value"] for name, m in result["metrics"].items()}

    def test_verify_all(self):
        m = self.check("verify-all")
        self.assertGreater(m["trace.overhead_s"], 0)
        self.assertEqual(m["numeric.eval.calls"], 0)
        self.assertGreater(m["matrices.matmul.calls"], 0)

    def test_symbolic(self):
        m = self.check("symbolic", seconds=40)
        self.assertGreater(m["trace.overhead_s"], 0)
        self.assertEqual(m["numeric.eval.calls"], 0)
        self.assertEqual(m["matrices.matmul.calls"], 0)
        self.assertGreater(m["fields.build.terms_in"], 0)

    def test_oracle(self):
        m = self.check("oracle")
        self.assertEqual(m["matrices.matmul.calls"], 0)
        self.assertGreater(m["numeric.eval.calls"], 0)

    def test_counts_repeat_for_a_seed(self):
        first, second = traced_run("symbolic", seed=3), traced_run("symbolic", seed=3)
        counts = {k for k, v in first["metrics"].items() if v["unit"] in ("count", "ratio")}
        self.assertTrue(counts)
        for name in counts:
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)


if __name__ == "__main__":
    unittest.main()
