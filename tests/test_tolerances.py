"""Each named tolerance decides its test exactly at its value.

A candidate, a pair of joint eigenvalues or a chain column is placed 10 %
inside and 10 % outside the threshold, so these tests pin the values of
``orthogonalize.DROP_REL`` (1e-10), ``orthogonalize.INVISIBLE_REL`` (1e-6),
``spectral.DISTINCT_REL`` (1e-8) and ``spaces.ORTHOGONALITY_REL`` (4 eps) as
well as the comparisons that read them.
"""

import numpy as np
import pytest

import gsis
from gsis.spaces import ORTHOGONALITY_REL, KrylovChain


@pytest.mark.parametrize("factor, status", [(1.1, gsis.ADDED), (0.9, gsis.DEPENDENT)])
def test_drop_threshold(factor, status):
    basis = gsis.OrthogonalBasis(3)
    assert basis.try_add(np.array([1.0, 0.0, 0.0])) == gsis.ADDED
    # the remainder after orthogonalization is factor * 1e-10 of a unit-norm candidate
    assert basis.try_add(np.array([1.0, factor * 1e-10, 0.0])) == status


@pytest.mark.parametrize("factor, status", [(1.1, gsis.INVISIBLE), (0.9, gsis.DEPENDENT)])
def test_invisible_threshold(factor, status):
    basis = gsis.OrthogonalBasis(3, np.array([[1.0, 0.0, 0.0]]))
    assert basis.try_add(np.array([1.0, 0.0, 0.0])) == gsis.ADDED
    # the weight cannot see the second coordinate, so the candidate is dropped;
    # its euclidean remainder factor * 1e-6 decides whether it counts as invisible
    assert basis.try_add(np.array([1.0, factor * 1e-6, 0.0])) == status


@pytest.mark.parametrize("factor, distinct", [(1.1, True), (0.9, False)])
def test_distinctness_threshold(factor, distinct):
    # joint eigenvalues (0, 0), (1, 0), (1, eps): diameter 1, smallest gap eps
    eps = factor * 1e-8
    graph = gsis.Graph(3)
    shifts = gsis.ShiftSet((
        gsis.ShiftMatrix(np.diag([0.0, 1.0, 1.0]), graph),
        gsis.ShiftMatrix(np.diag([0.0, 0.0, eps]), graph),
    ))
    decomp = gsis.diagonalize_simultaneously(shifts)
    assert decomp.min_spectral_gap == pytest.approx(eps, rel=1e-6)
    assert decomp.assumption1_holds is distinct
    clusters = [list(g) for g in decomp.groups]
    assert clusters == ([[0], [1], [2]] if distinct else [[0], [1, 2]])


@pytest.mark.parametrize("factor, fallback", [(0.9, None), (1.1, 3)])
def test_orthogonality_threshold(factor, fallback):
    # S maps e0 -> e1 -> e2 -> e3 + c e0.  Level 3's local passes skip e0, so its new
    # column (c, 0, 0, 1) keeps c on e0: the audit reads c exactly, the norm being 1.0
    c = factor * ORTHOGONALITY_REL
    s = np.zeros((4, 4))
    s[1, 0] = s[2, 1] = s[3, 2] = 1.0
    s[0, 2] = c
    chain = KrylovChain([s], [np.eye(4)[0]])
    chain.grow_to(3)
    assert chain.dims == [1, 2, 3, 4] and chain.fallback_level == fallback
    # the audit is kept either way; a level regrown with full passes projects c out
    assert chain.audits == [0.0, 0.0, 0.0, c]
    assert chain.basis[0, 3] == (c if fallback is None else 0.0)
