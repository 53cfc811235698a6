"""A fixed reference launch that gauges how fast the machine is right now.

``run.py`` launches this script right before every no-op launch of an
untraced pass and reports its times relative to it.  Its work never
changes and does not touch the ``toeplitz`` package: start an interpreter,
import numpy, and take the eigenvalues of one fixed symmetric matrix.  On a
shared host the speed of the cores drifts by half over minutes; this launch
slows down with it, and the ratio does not.
"""

import numpy as np

SIZE = 500

m = np.random.default_rng(0).standard_normal((SIZE, SIZE))
np.linalg.eigvalsh(m + m.T)
