"""Coercivity, rho search, and trace-law sign tests.

Eigenvalue assertions are cross-checked against the cyclic Jacobi
implementation in oracles.py rather than trusting the library path that
the package itself uses.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import assume, example, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

import evobeam.wellposed as wellposed
from evobeam.cli import cmd_check, parse_config
from evobeam.core import NumericError, ParameterError, build_grid
from evobeam.scenarios import (
    FullDynamicParams,
    SturmLiouvilleParams,
    TimoshenkoParams,
    make_full_dynamic,
    make_sturm_liouville,
    make_timoshenko_damped,
)
from evobeam.wellposed import (
    NevanlinnaSpec,
    NotCoerciveError,
    coercivity,
    find_rho0,
    nevanlinna_check,
    sparse_symmetric_part,
)
from oracles import jacobi_eigvals, min_coercivity_eig


def test_jacobi_oracle_2x2_exact():
    # [[2,1],[1,2]] has eigenvalues 1 and 3; one rotation kills the
    # off-diagonal entry, so the oracle should land on them to rounding.
    ev = jacobi_eigvals(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert abs(ev[0] - 1.0) < 1e-14
    assert abs(ev[1] - 3.0) < 1e-14


def test_jacobi_oracle_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_symmetric_part_cancels_antisymmetric_coupling():
    grid = build_grid(8)
    model = make_timoshenko_damped(
        grid, TimoshenkoParams(c=0.5, d=0.25, sigma0=1.0)
    )
    S = sparse_symmetric_part(model.M1, model.W).toarray()
    off = S.copy()
    np.fill_diagonal(off, 0.0)
    # the eta <-> V2 coupling is exactly antisymmetric in the weighted
    # product (equal cell weights), so it must vanish without rounding
    assert np.max(np.abs(off)) == 0.0
    diag = np.diag(S)
    sl = model.layout.slice_of("s")
    assert np.allclose(diag[sl], 0.25, rtol=0, atol=0)
    assert diag[model.layout.offset_of("tau_plus")] == 0.5
    mask = np.ones(model.layout.dim, dtype=bool)
    mask[sl] = False
    mask[model.layout.offset_of("tau_plus")] = False
    assert np.max(np.abs(diag[mask])) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 300),
    sigma0=st.floats(-1e3, 1e3, allow_nan=False).filter(lambda s: s != 0.0),
)
@example(n=5, sigma0=0.7)  # (0.7*h)/h is not 0.7 here
def test_beam_symmetric_part_stores_nothing_off_the_diagonal(n, sigma0):
    # the weight ratio of two center slots is exactly 1, so +sigma0 and
    # -sigma0 cancel to an exact zero, which the sparse sum does not store
    model = make_timoshenko_damped(build_grid(n), TimoshenkoParams(c=0.5, sigma0=sigma0))
    S = sparse_symmetric_part(model.M1, model.W).tocoo()
    assert not S.data[S.row != S.col].any()


def test_symmetric_part_is_w_selfadjoint(rng):
    n = 7
    w = rng.uniform(0.5, 2.0, size=n)
    M = rng.standard_normal((n, n))
    S = sparse_symmetric_part(M, w).toarray()
    WS = w[:, None] * S
    assert np.max(np.abs(WS - WS.T)) < 1e-13


def test_symmetric_part_of_a_law_above_half_the_float_range_is_finite():
    # M + M^T overflows here; the halves of M and M^T do not
    M = sp.csr_matrix(np.array([[1e308, 0.0], [1.5e308, -1e308]]))
    S = sparse_symmetric_part(M, np.ones(2)).toarray()
    assert np.array_equal(S, [[1e308, 0.75e308], [0.75e308, -1e308]])


def _dense_symmetric_part(M, w):
    Md = M.toarray() if hasattr(M, "toarray") else np.asarray(M, dtype=float)
    return 0.5 * (Md + Md.T * (w[None, :] / w[:, None]))


_DAMPED_MODELS = {
    "timoshenko_damped": lambda g: make_timoshenko_damped(
        g, TimoshenkoParams(c=0.5, I_tilde=0.1, d=0.25, sigma0=1.0)
    ),
    "dynamic_inertia": lambda g: make_timoshenko_damped(g, TimoshenkoParams(I_tilde=1.0, d=0.25)),
    "full_dynamic": lambda g: make_full_dynamic(
        g, FullDynamicParams(mu_plus=NevanlinnaSpec(1.0, 0.5), nu_minus=NevanlinnaSpec(0.5, 0.25))
    ),
    "sturm_liouville": lambda g: make_sturm_liouville(
        g, SturmLiouvilleParams(q=0.5, s1=0.5, mu_minus=NevanlinnaSpec(1.0, 0.5))
    ),
}


@pytest.mark.parametrize("n", [8, 256])
@pytest.mark.parametrize("name", sorted(_DAMPED_MODELS))
def test_sparse_symmetric_part_matches_dense_formula_bitwise(name, n):
    model = _DAMPED_MODELS[name](build_grid(n))
    S = sparse_symmetric_part(model.M1, model.W)
    ref = _dense_symmetric_part(model.M1, model.W)
    assert np.array_equal(S.toarray(), ref)
    assert np.array_equal(sparse_symmetric_part(model.M1, model.W).toarray(), ref)


def test_sparse_symmetric_part_random_weights_bitwise(rng):
    n = 9
    w = rng.uniform(0.5, 2.0, size=n)
    M = rng.standard_normal((n, n)) * (rng.uniform(size=(n, n)) < 0.4)
    S = sparse_symmetric_part(M, w)
    assert np.array_equal(S.toarray(), _dense_symmetric_part(M, w))


def test_symmetric_part_shape_check():
    with pytest.raises(NumericError):
        sparse_symmetric_part(np.zeros((3, 2)), np.ones(3)).toarray()
    with pytest.raises(NumericError):
        sparse_symmetric_part(np.zeros((4, 4)), np.ones(3)).toarray()


def test_coercivity_diagonal_known_values():
    m0 = np.array([2.0, 2.0, 0.5, 2.0, 2.0])
    M1 = np.zeros((5, 5))
    c0 = coercivity(m0, M1, rho=1.0, W=np.ones(5))
    assert c0 == 0.5
    assert c0 > 0
    assert 1.0 / c0 == 2.0
    oracle = min_coercivity_eig(np.diag(m0), M1, 1.0, np.ones(5))
    assert abs(c0 - oracle) < 1e-13


def test_coercivity_rho_zero_allowed_negative_rejected():
    M1 = np.eye(3)
    c0 = coercivity(np.zeros(3), M1, rho=0.0, W=np.ones(3))
    assert c0 == 1.0
    with pytest.raises(ParameterError):
        coercivity(np.ones(3), M1, rho=-1.0, W=np.ones(3))


def test_coercivity_unsatisfied_has_no_bound():
    c0 = coercivity(np.array([1.0, 0.0]), np.zeros((2, 2)), 1.0, np.ones(2))
    assert not c0 > 0
    assert c0 <= 0.0


def test_coercivity_matches_jacobi_on_assembled_model():
    grid = build_grid(8)
    model = make_timoshenko_damped(
        grid, TimoshenkoParams(c=0.5, I_tilde=0.2, d=0.25, sigma0=1.0)
    )
    rho = 1.0
    c0 = coercivity(model.m0, model.M1, rho, model.W)
    oracle = min_coercivity_eig(
        np.diag(model.m0), model.M1.toarray(), rho, model.W
    )
    assert abs(c0 - oracle) < 1e-11
    assert c0 > 0


def test_coercivity_sturm_liouville_parabolic_closed_form():
    # diagonal material law: c0 is the smallest of rho*r, s1 (eta is
    # algebraic), rho*mu0_- and rho*mu0_+ + mu1_+
    grid = build_grid(16)
    params = SturmLiouvilleParams(
        r=1.0,
        s0=0.0,
        s1=0.5,
        mu_minus=NevanlinnaSpec(1.0, 0.0),
        mu_plus=NevanlinnaSpec(0.5, 0.25),
    )
    model = make_sturm_liouville(grid, params)
    c0 = coercivity(model.m0, model.M1, rho=0.3, W=model.W)
    assert abs(c0 - 0.3) < 1e-14
    oracle = min_coercivity_eig(
        np.diag(model.m0), model.M1.toarray(), 0.3, model.W
    )
    assert abs(c0 - oracle) < 1e-12


def _dense_c0(m0, M1, rho, w):
    S = rho * np.diag(m0) + _dense_symmetric_part(M1, w)
    sq = np.sqrt(w)
    sym = (S * sq[:, None]) / sq[None, :]
    return float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[0])


@pytest.mark.parametrize("n", [8, 256])
@pytest.mark.parametrize("name", sorted(_DAMPED_MODELS))
def test_coercivity_matches_dense_eigvalsh_bitwise(name, n):
    model = _DAMPED_MODELS[name](build_grid(n))
    for rho in (1.0, 2.0**-10):
        c0 = coercivity(model.m0, model.M1, rho, model.W)
        assert c0 == _dense_c0(model.m0, model.M1, rho, model.W)


def _w_selfadjoint(rng, w):
    # w_i M_ij = (B B^T)_ij is symmetric, so M is W-selfadjoint
    B = rng.standard_normal((w.size, w.size))
    return (B @ B.T) / w[:, None]


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.0, 2.0),
)
def test_coercivity_matches_jacobi_on_interleaved_blocks(sizes, seed, rho):
    # blocks of coupled entries on randomly permuted rows, so that each
    # component of the sparse pattern is spread over the whole matrix; the
    # inertia is diagonal, so the coupled W-selfadjoint blocks sit in M1
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    perm = rng.permutation(dim)
    w = rng.uniform(0.5, 2.0, dim)
    m0, M1 = rng.uniform(0.5, 2.0, dim), np.zeros((dim, dim))
    for rows in np.split(perm, np.cumsum(sizes)[:-1]):
        block = _w_selfadjoint(rng, w[rows]) + rng.standard_normal((rows.size, rows.size))
        M1[np.ix_(rows, rows)] = block
    c0 = coercivity(m0, sp.csr_matrix(M1), rho, w)
    assert abs(c0 - min_coercivity_eig(np.diag(m0), M1, rho, w)) <= 1e-12


def _components_c0(m0, M1, rho, W):
    """c0 through connected_components over the whole pattern: the least of
    the diagonals of the one-entry blocks and of each larger block's
    smallest eigenvalue."""
    sq = np.sqrt(W)
    S = sp.coo_matrix(rho * sp.diags(m0) + sparse_symmetric_part(M1, W))
    S.data = S.data * sq[S.row] / sq[S.col]
    S = S.tocsr()
    S = 0.5 * (S + S.T)
    S.eliminate_zeros()
    _, labels = connected_components(S, directed=False)
    sizes = np.bincount(labels)
    single = sizes[labels] == 1
    c0 = float(np.min(S.diagonal()[single])) if single.any() else np.inf
    for k in np.flatnonzero(sizes > 1):
        rows = np.flatnonzero(labels == k)
        c0 = min(c0, float(np.linalg.eigvalsh(S[rows][:, rows].toarray())[0]))
    return c0


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.0, 2.0),
    n_zero=st.integers(0, 2),
    low_single=st.booleans(),
)
def test_coercivity_matches_whole_pattern_components_bitwise(sizes, seed, rho, n_zero, low_single):
    # singleton rows (a size of 1) mixed with W-selfadjoint blocks on
    # randomly permuted rows; n_zero singletons have a zero diagonal, and
    # with low_single another singleton holds the minimum
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    perm = rng.permutation(dim)
    w = rng.uniform(0.5, 2.0, dim)
    m0, M1 = rng.uniform(0.5, 2.0, dim), np.zeros((dim, dim))
    singles = []
    for rows in np.split(perm, np.cumsum(sizes)[:-1]):
        if rows.size == 1:
            singles.append(rows[0])
            M1[rows[0], rows[0]] = rng.standard_normal()
        else:
            M1[np.ix_(rows, rows)] = _w_selfadjoint(rng, w[rows]) + rng.standard_normal((rows.size, rows.size))
    for i in singles[:n_zero]:
        m0[i] = M1[i, i] = 0.0
    if low_single and singles[n_zero:]:
        M1[singles[-1], singles[-1]] = -1e3
    W = w
    c0 = coercivity(m0, sp.csr_matrix(M1), rho, W)
    assert np.float64(c0).tobytes() == np.float64(_components_c0(m0, M1, rho, W)).tobytes()


def _reference_rho0(m0, M1, c_target, W):
    """find_rho0's scan of 2^-10..2^40 and its bisection to 1e-6 relative,
    with c0 through _components_c0; None where no rho in the scan reaches
    c_target."""
    def ok(rho):
        return _components_c0(m0, M1, rho, W) >= c_target

    hit = next((k for k in range(-10, 41) if ok(2.0**k)), None)
    if hit is None:
        return None
    lo, hi = 2.0 ** (hit - 1), 2.0**hit
    while hit > -10 and (hi - lo) / hi > 1e-6:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    c_target=st.floats(1e-3, 1e3),
    n_massless=st.integers(0, 2),
)
def test_find_rho0_on_coupled_laws_matches_a_reference_scan_bitwise(sizes, seed, c_target, n_massless):
    # W-selfadjoint blocks and singletons on randomly permuted rows, as in the
    # whole-pattern test; n_massless rows have no inertia, so that c0 stays
    # bounded in rho and some targets are out of reach
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    perm = rng.permutation(dim)
    w = rng.uniform(0.5, 2.0, dim)
    m0, M1 = rng.uniform(0.5, 2.0, dim), np.zeros((dim, dim))
    for rows in np.split(perm, np.cumsum(sizes)[:-1]):
        M1[np.ix_(rows, rows)] = _w_selfadjoint(rng, w[rows]) + rng.standard_normal((rows.size, rows.size))
    m0[perm[:n_massless]] = 0.0
    ref = _reference_rho0(m0, M1, c_target, w)
    if ref is None:
        with pytest.raises(NotCoerciveError):
            find_rho0(m0, sp.csr_matrix(M1), c_target, w)
    else:
        assert np.float64(find_rho0(m0, sp.csr_matrix(M1), c_target, w)).tobytes() == np.float64(ref).tobytes()


def test_find_rho0_splits_the_law_into_blocks_once(monkeypatch):
    # a pair (0, 1) and a 3-cycle (4, 5, 6) among 12 slots; c0(rho) = rho - 0.5,
    # so the scan and the bisection probe 31 values of rho
    M1 = np.zeros((12, 12))
    for i, j in ((0, 1), (4, 5), (5, 6), (6, 4)):
        M1[i, j] = M1[j, i] = 0.5 if i == 0 else 0.25
    calls = {"connected_components": 0, "sparse_symmetric_part": 0}

    def spy(module, name):
        f = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(csgraph, "connected_components")
    spy(wellposed, "sparse_symmetric_part")
    assert abs(find_rho0(np.ones(12), sp.csr_matrix(M1), 0.3, np.ones(12)) - 0.8) < 1e-6
    assert calls == {"connected_components": 1, "sparse_symmetric_part": 1}


def test_check_eigensolves_no_matrix_larger_than_a_block(monkeypatch):
    cfg = parse_config(
        "[grid]\nn_cells = 256\n\n[scenario]\nname = timoshenko_damped\n"
        "c = 0.5\nI_tilde = 0.1\nd = 0.2\n"
    )
    model = cfg.model
    pattern = sp.diags(abs(model.m0)) + abs(sparse_symmetric_part(model.M1, model.W))
    pattern.eliminate_zeros()
    _, labels = connected_components(pattern, directed=False)
    largest = np.bincount(labels).max()
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    lines, code = cmd_check(cfg)
    assert code == 0 and lines[1].startswith("rho0=")
    assert all(size <= largest for size in sizes)


def test_find_rho0_identity_hits_target_exactly():
    m0 = np.ones(4)
    M1 = np.zeros((4, 4))
    W = np.ones(4)
    # c0(rho) = rho, so the scan lands on the power of two equal to the
    # target and bisection never moves the upper end
    assert find_rho0(m0, M1, 1.0, W) == 1.0
    assert find_rho0(m0, M1, 0.25, W) == 0.25


def test_find_rho0_bisection_interior_target():
    m0 = np.ones(3)
    M1 = -0.3 * np.eye(3)
    W = np.ones(3)
    rho0 = find_rho0(m0, M1, 0.37, W)
    # c0(rho) = rho - 0.3, so the smallest admissible rho is 0.67
    assert rho0 >= 0.67
    assert abs(rho0 - 0.67) < 2e-6
    assert coercivity(m0, M1, rho0, W) >= 0.37
    assert coercivity(m0, M1, 0.67 * (1 - 1e-4), W) < 0.37


def test_find_rho0_failure_and_validation():
    W = np.ones(2)
    with pytest.raises(NotCoerciveError):
        find_rho0(np.array([1.0, 0.0]), np.zeros((2, 2)), 0.1, W)
    with pytest.raises(ParameterError):
        find_rho0(np.ones(2), np.zeros((2, 2)), 0.0, W)


def test_find_rho0_scan_ends_where_the_law_overflows():
    W = np.ones(2)
    # c0 = 0 at every finite rho; rho*1e300 overflows at rho = 2^28, before
    # the scan's end at 2^40, and no larger rho is finite either
    with pytest.raises(NotCoerciveError, match=r"overflows at rho = 268435456\.0 "):
        find_rho0(np.array([1e300, 0.0]), np.zeros((2, 2)), 0.1, W)
    # a law that is not finite at any rho is a numeric fault, not a scan result
    with pytest.raises(NumericError, match="non-finite entries in coercivity operator"):
        find_rho0(np.ones(2), np.diag([np.inf, 0.0]), 0.1, W)


def test_coercivity_of_a_finite_law_near_the_float_range():
    # the symmetrization halves before it adds, so a finite law stays finite
    big = 1.5e308
    assert coercivity(np.array([1.0]), np.zeros((1, 1)), big, np.ones(1)) == big


def test_nevanlinna_spec_validation_and_evaluate():
    with pytest.raises(ParameterError):
        NevanlinnaSpec(0.0, 0.0)
    # negative coefficients are representable; the checker rejects them
    NevanlinnaSpec(-1.0, 0.0)


def test_nevanlinna_check_accepts_admissible_laws():
    assert nevanlinna_check(NevanlinnaSpec(1.0, 0.5))
    assert nevanlinna_check(NevanlinnaSpec(0.0, 1.0))
    assert nevanlinna_check(NevanlinnaSpec(3.0, 0.0))
    assert nevanlinna_check(NevanlinnaSpec(-0.0, 1.0))


def test_nevanlinna_check_rejects_negative_inertia():
    assert not nevanlinna_check(NevanlinnaSpec(-0.1, 0.0))
    assert not nevanlinna_check(NevanlinnaSpec(-0.1, 1.0))
    # below any sampling slack: Im(mu0*z) = mu0*Im(z) < 0 all the same
    assert not nevanlinna_check(NevanlinnaSpec(-5e-324, 0.0))


_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
)


@settings(max_examples=300, deadline=None)
@given(mu0=_finite, mu1=_finite)
def test_nevanlinna_check_is_the_sign_of_mu0(mu0, mu1):
    # Im(mu0*z + mu1) = mu0*Im(z) for real coefficients, so the sign of
    # mu0 decides the whole upper half plane
    assume(mu0 != 0 or mu1 != 0)
    assert nevanlinna_check(NevanlinnaSpec(mu0, mu1)) is (mu0 >= 0)
