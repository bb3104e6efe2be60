"""Hypothesis profiles.  ``--hypothesis-profile=ci`` runs every property
test on the examples derived from its own code, with no deadline, so a
property test cannot pass on one run and fail on the next."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
