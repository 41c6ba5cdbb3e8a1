"""Shared test settings.

The hypothesis profile ``ci`` draws every example from a fixed seed
(``derandomize=True``), so a failure in CI reproduces locally with
``python -m pytest --hypothesis-profile=ci``.  Runs without that option
keep hypothesis's default, randomized profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
