"""Run the doctests embedded in library modules."""

import doctest

import pytest

import skeinhc.combinatorics
import skeinhc.hecke_clifford
import skeinhc.scalars

MODULES = [skeinhc.scalars, skeinhc.combinatorics, skeinhc.hecke_clifford]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_doctests(module):
    failed, attempted = doctest.testmod(module).failed, None
    assert failed == 0
