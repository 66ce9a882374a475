"""Fixed work that does not use evobeam, run between the measured children.

Interpreter start, the numpy and scipy imports, a small dense eigensolve,
repeated sparse LU solves and a Python loop: the kinds of work the CLI does.
Its wall time tracks how fast the shared machine runs at that moment.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

rng = np.random.default_rng(0)
a = rng.standard_normal((300, 300))
np.linalg.eigvalsh(a + a.T)
n = 4000
lu = spla.splu(sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)], [-1, 0, 1], format="csc"))
b = np.ones(n)
for _ in range(2000):
    b = lu.solve(b) * 3.0
s = 0.0
for i in range(200000):
    s += i * 0.5
