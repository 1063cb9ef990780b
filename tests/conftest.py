"""Hypothesis profiles. ``--hypothesis-profile=ci`` derandomizes the
examples and prints a reproduction blob for every failure, so a CI failure
replays locally with the same command."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
