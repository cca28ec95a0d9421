"""Every ``nstate selftest`` property as its own pytest case, with the default seed.

Each invariant has a selftest property; the unit tests in the other files
cover the cases the properties do not, and some repeat a property's check on
fixed seeds of their own.
"""

import pytest

from nstate.selftest import CHECKS, run_selftest


@pytest.mark.parametrize("name", [name for name, _ in CHECKS])
def test_property(name):
    [result] = run_selftest(name_filter=name)
    assert result.name == name and result.ok, result.detail
