import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and have no deadline, so
# a slow moment on a shared host cannot fail them.
settings.register_profile("nishigraph", derandomize=True, deadline=None)
settings.load_profile("nishigraph")
