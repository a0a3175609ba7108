"""Both spec families live in starlike.py; this name imports that module."""
import sys

from . import starlike

sys.modules[__name__] = starlike
