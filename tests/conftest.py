"""Hypothesis settings shared by every property test: no per-example
deadline, since one example may run a whole model forward or a child
process. Tests set only their own ``max_examples``."""

from hypothesis import settings

settings.register_profile("shadowscan", deadline=None)
settings.load_profile("shadowscan")
