"""Test-run configuration shared by every test module."""

from hypothesis import settings

# Fixed examples and no per-example deadline: every property tests the same
# inputs on every run, however slow the host.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
