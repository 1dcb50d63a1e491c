"""Variational derivatives: free scalar, Maxwell form, mass terms."""

import pytest

from ewverify import ArityError, IndexConflictError, euler_lagrange
from ewverify.fields import UnknownFieldError

from helpers import parse


def test_free_scalar_wave_operator():
    lagrangian = parse("1/2 d[mu]rho d[mu]rho")
    eq = euler_lagrange(lagrangian, "rho")
    assert eq == parse("-d[mu]d[mu]rho")


def test_maxwell_form():
    fmn = parse("d[mu]Aem[nu] - d[nu]Aem[mu]")
    lagrangian = -parse("1/4") * fmn * fmn
    eq = euler_lagrange(lagrangian, "Aem", "nu")
    assert eq == parse("d[mu]d[mu]Aem[nu] - d[mu]d[nu]Aem[mu]")


def test_mass_term():
    lagrangian = parse("7/3 Z[mu] Z[mu]")
    assert euler_lagrange(lagrangian, "Z", "nu") == parse("14/3 Z[nu]")


def test_massive_vector_equation():
    zt = parse("d[mu]Z[nu] - d[nu]Z[mu]")
    lagrangian = -parse("1/4") * zt * zt + parse("1/2") * parse("9 Z[mu] Z[mu]")
    eq = euler_lagrange(lagrangian, "Z", "nu")
    assert eq == parse("d[mu]d[mu]Z[nu] - d[mu]d[nu]Z[mu] + 9 Z[nu]")


def test_conjugate_instances_are_independent():
    lagrangian = parse("conj(phi1) phi1")
    assert euler_lagrange(lagrangian, "phi1") == parse("conj(phi1)")


def test_divergence_factor():
    lagrangian = parse("rho d[mu]B[mu]")
    # d/d(dB) picks the divergence slot: -d[nu](rho)
    assert euler_lagrange(lagrangian, "B", "nu") == parse("-d[nu]rho")


def test_interaction_term_keeps_other_fields():
    lagrangian = parse("g Z[mu] W+[mu] W-[nu] Z[nu]")
    eq = euler_lagrange(lagrangian, "Z", "al")
    assert eq.field_symbols() == {"Z", "Wp", "Wm"}
    assert eq.free_indices() == {"al"}


def test_euler_lagrange_validation():
    with pytest.raises(IndexConflictError):
        euler_lagrange(parse("B[mu]"), "B", "nu")  # not a scalar
    with pytest.raises(ArityError):
        euler_lagrange(parse("Z[mu] Z[mu]"), "Z")  # missing equation index
    with pytest.raises(UnknownFieldError):
        euler_lagrange(parse("rho rho"), "nosuch")


def test_equation_index_collision_is_renamed():
    # 'nu' already appears as a dummy; the result must still be well-formed
    lagrangian = parse("d[nu]Z[mu] d[nu]Z[mu]")
    eq = euler_lagrange(lagrangian, "Z", "nu")
    assert eq.free_indices() == {"nu"}
    assert eq == parse("-2 d[mu]d[mu]Z[nu]")


def test_divergence_factor_with_summed_rest():
    # the rest keeps a summed pair, and the equation index is a canonical
    # dummy name that the derivative must not collide with
    lagrangian = parse("d[al]B[al] A3[be] W1[be]")
    expected = parse("-d[mu]A3[nu] W1[nu] - A3[nu] d[mu]W1[nu]")
    assert euler_lagrange(lagrangian, "B", "mu") == expected
