"""A machine-speed probe that never touches the package.

The host this benchmark was built on changes speed by up to 2.3x over
minutes, and by tens of percent within a second, while CPU time stays
equal to wall time: co-tenants slow the core, not the scheduler.  Wall times
taken minutes apart are therefore not comparable.  The probe times three
fixed kernels just before and just after each round of items: small numpy
calls (the bulk of ``certify``), a pure-Python loop and LAPACK eigensolvers
(the bulk of ``sweep``).  The geometric mean over the kernels of the median
of five repeats tracks most of the slowdown of all three workloads; the
rest is described in README.md.

Timings are reported *at nominal speed*: a wall time multiplied by
``NOMINAL_S / probe``, i.e. the time the item would take on a machine where
the probe takes exactly ``NOMINAL_S``.  On this host the probe read
0.7-1.4 ms, so nominal-speed figures sit within the range of raw ones.
"""

import time

import numpy as np

NOMINAL_S = 1e-3


class SpeedProbe:
    def __init__(self, repeats=5):
        rng = np.random.default_rng(20181808)

        def herm(m):
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            return a + a.conj().T

        self.repeats = repeats
        self.h8, self.h16, self.h96 = herm(8), herm(16), herm(96)
        self.g9 = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        self.p8 = rng.random(8)

    def _numpy_small(self):
        for _ in range(12):
            np.linalg.eigh(self.h8)
            np.linalg.det(self.g9)
            np.prod(np.delete(self.p8, 3))
            _ = self.h8 @ self.h8
            _ = np.abs(self.g9) ** 2

    def _python(self):
        total = 0
        for i in range(20000):
            total += i * i
        table = {}
        for i in range(2000):
            table[i] = str(i)

    def _lapack(self):
        np.linalg.eigvalsh(self.h96)
        np.linalg.eigh(self.h16)

    def seconds(self):
        """Geometric mean over the kernels of the median of the repeats."""
        best = []
        for kernel in (self._numpy_small, self._python, self._lapack):
            runs = []
            for _ in range(self.repeats):
                start = time.perf_counter()
                kernel()
                runs.append(time.perf_counter() - start)
            best.append(float(np.median(runs)))
        return float(np.prod(best) ** (1.0 / len(best)))

    def factor(self):
        """Multiplier that takes a wall time now to nominal speed."""
        return NOMINAL_S / self.seconds()
