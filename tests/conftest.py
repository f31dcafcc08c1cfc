"""Shared test settings.

Property tests run one fixed Hypothesis profile: no per-example deadline
(shared hosts stall unpredictably) and derandomized example generation, so
every run draws the same examples and a failure reproduces exactly.
"""

from hypothesis import settings

settings.register_profile("hsplab", deadline=None, derandomize=True, max_examples=40)
settings.load_profile("hsplab")
