import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# every property test runs the same examples on every run, with no time limit
# per example and no example database; each test sets only its max_examples
settings.register_profile("conexa", deadline=None, derandomize=True, database=None)
settings.load_profile("conexa")
