"""Suite-wide settings: a fixed Hypothesis profile for reproducible property tests."""

from hypothesis import settings

# Derandomized, so every run draws the same examples; no deadline, because a
# shared small machine stalls now and then; no example database on disk.
settings.register_profile("randpress", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("randpress")
