"""Pose-invariant identity recognition by fusing part-level classifiers.

The package trains one linear classifier per body part on whatever subset of
instances that part fires on, lifts every sparse posterior onto the full
identity set by blending with a dense global posterior, and combines the
lifted posteriors with learned per-part weights. Detection-to-instance
matching, evaluation protocols, and a synthetic benchmark round it out.
"""

from __future__ import annotations

import os

# OpenBLAS reads this once, when numpy first loads it, so it is set before the
# imports below. One BLAS thread per process: the products here are small, a
# second thread spins idle after each threaded product and after each fork,
# and `workers._forked_map` supplies the parallelism. A value the caller set
# is kept, and numpy imported before this package keeps its own threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import data, fusion, geometry, matching, protocols, svm, synth
from .data import *
from .fusion import *
from .geometry import *
from .matching import *
from .protocols import *
from .svm import *
from .synth import *

# Each module's `__all__` is its public API; the package exports their union.
__all__ = [name for module in (data, fusion, geometry, matching, protocols, svm, synth) for name in module.__all__]
