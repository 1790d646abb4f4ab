"""One hypothesis profile for the whole suite: every property test draws the
same examples on every run, and none has a deadline."""

from hypothesis import settings

settings.register_profile("docmrt", derandomize=True, deadline=None)
settings.load_profile("docmrt")
