"""Hypothesis settings profiles for the suite.

The suite loads `tier1`: each `@given` test draws the same examples on every
run (`derandomize=True`, no example database), so a Tier-1 verdict is a
function of the tree.  `explore` draws fresh examples on each run and prints
the blob that reproduces a failure; select it on the command line, with a
seed to print and rerun:

    pytest -m hypothesis --hypothesis-profile=explore --hypothesis-seed=SEED

Both profiles leave `max_examples` to the tests' own `@settings`.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")
