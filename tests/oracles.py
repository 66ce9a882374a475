"""Independent numerical oracles for the test suite.

The eigensolver here is a hand-rolled cyclic Jacobi iteration so that
coercivity constants asserted in tests do not come from the same LAPACK
routine the library uses.  It only needs to be correct and slow.
"""

import numpy as np


def jacobi_eigvals(S, tol=1e-14, max_sweeps=100):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(S, dtype=float, copy=True)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("need a square matrix")
    if not np.allclose(A, A.T, rtol=0, atol=1e-12 * max(1.0, abs(A).max())):
        raise ValueError("need a symmetric matrix")
    A = 0.5 * (A + A.T)
    scale = max(1.0, abs(A).max())
    for _ in range(max_sweeps):
        # the off-diagonal norm itself: sum(A**2) - sum(diag**2) cancels to
        # roundoff of the whole norm and never falls below the tolerance
        off = np.linalg.norm(A - np.diag(np.diag(A)))
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (A[q, q] - A[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * A[:, p] - s * A[:, q]
                rot_q = s * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = rot_p, rot_q
                rot_p = c * A[p, :] - s * A[q, :]
                rot_q = s * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = rot_p, rot_q
                A[p, q] = A[q, p] = 0.0
    else:
        raise RuntimeError("jacobi sweep limit reached")
    return np.sort(np.diag(A))


def min_coercivity_eig(M0, M1, rho, w):
    """Smallest eigenvalue of rho*M0 + sym_W(M1) in the diag(w) inner product.

    Symmetrizes by similarity with sqrt(w); the Jacobi solver above does the
    eigenvalue work.  Accepts dense or scipy-sparse inputs.
    """
    M0 = np.asarray(M0.todense() if hasattr(M0, "todense") else M0, dtype=float)
    M1 = np.asarray(M1.todense() if hasattr(M1, "todense") else M1, dtype=float)
    w = np.asarray(w, dtype=float)
    sym = 0.5 * (M1 + (1.0 / w)[:, None] * M1.T * w[None, :])
    C = rho * M0 + sym
    sq = np.sqrt(w)
    H = sq[:, None] * C / sq[None, :]
    return jacobi_eigvals(H)[0]


def timoshenko_mms_reference(model, t):
    """The manufactured state u*(t) and source m0 u*'(t) + (M1 + A) u*(t) of
    the unit-coefficient beam family, written out in (x, t) form.

    Each closed form is evaluated in full at every call, spatial and time
    factors together, in the order the library's family writes them; each
    block is sampled at its own points and each trace as sign times its
    field on the one-point array of its endpoint.  Bitwise equality with
    the library shows that sampling the spatial factors once changes no
    value.
    """
    w = 2.0
    p = lambda x: np.pi * (x + 0.5)
    fields = {
        "V1": lambda x, t: np.pi * np.cos(p(x)) * np.cos(w * t + 0.3),
        "eta": lambda x, t: -w * np.sin(p(x)) * np.sin(w * t + 0.3),
        "s": lambda x, t: w * np.sin(p(x)) * np.cos(w * t),
        "V2": lambda x, t: np.pi * np.cos(p(x)) * np.sin(w * t) + np.sin(p(x)) * np.cos(w * t + 0.3),
    }
    rates = {
        "V1": lambda x, t: -w * np.pi * np.cos(p(x)) * np.sin(w * t + 0.3),
        "eta": lambda x, t: -w * w * np.sin(p(x)) * np.cos(w * t + 0.3),
        "s": lambda x, t: -w * w * np.sin(p(x)) * np.sin(w * t),
        "V2": lambda x, t: w * np.pi * np.cos(p(x)) * np.cos(w * t) - w * np.sin(p(x)) * np.sin(w * t + 0.3),
    }
    layout = model.layout

    def sample(family):
        vals = np.zeros(layout.dim)
        for name in layout.field_names():
            vals[layout.slice_of(name)] = family[name](layout.points_of(name), t)
        for name, b in model.traces.items():
            vals[layout.offset_of(name)] = b.sign * float(family[b.field](np.asarray([b.endpoint]), t)[0])
        return vals

    u, du = sample(fields), sample(rates)
    return u, model.m0 * du + (model.M1 + model.A).tocsr() @ u
