"""Host speed: a fixed kernel timed next to every pipeline run.

On a shared machine one pipeline run differs from the next by about 15 %
and the level drifts over minutes, because other tenants share the cores,
caches and memory bandwidth. A fixed kernel that runs no podflow code
slows down with the host in the same way: on a shared 2-core VM its time
correlated with the desk pipeline's at about 0.8, and dividing by it cut
the run-to-run variation from 15 % to 8 %.

``wall_s`` is therefore each run's wall time times
``REFERENCE_S / kernel time``, with the kernel timed just before and just
after the run. It reads in seconds at the speed the host has when the
kernel takes ``REFERENCE_S``. A change to podflow moves the run's time
and not the kernel's, so it moves ``wall_s`` by the same share.
"""

import time

REFERENCE_S = 0.08


class HostSpeed:
    """Fixed inputs of the kernel, built once outside the timing."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        n = 70
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self._laplacian = (sp.kron(line, eye) + sp.kron(eye, line)).tocsc()
        self._dense = np.random.default_rng(0).standard_normal((30, 30))
        self._splu = splu  # bound now, so a tracer installed later is bypassed

    def kernel_s(self):
        """Seconds for one pass: a Python loop, small dense products, sparse LU."""
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i % 7
        m = self._dense
        for _ in range(3000):
            m @ m + m
        for _ in range(3):
            self._splu(self._laplacian)
        return time.perf_counter() - start
