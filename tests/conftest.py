"""Shared test settings and fixtures.

The hypothesis profile ``ci`` draws every example from a fixed seed
(``derandomize=True``), so a failure in CI reproduces locally with
``python -m pytest --hypothesis-profile=ci``.  Runs without that option
keep hypothesis's default, randomized profile.
"""

import pytest
import scipy.linalg
from hypothesis import settings

from rittcalc import numlin

settings.register_profile("ci", derandomize=True)


@pytest.fixture
def spectra(monkeypatch):
    """The calls to the two roads to a spectrum, ``numlin.eig`` and
    ``scipy.linalg.schur``, counted from here on in the test."""
    calls = {"eig": 0, "schur": 0}
    for module, name in ((numlin, "eig"), (scipy.linalg, "schur")):
        def counted(*args, _call=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls
