import dataclasses
import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdma_fss.phy import (
    McsEntry,
    McsTable,
    _eesm_pairs,
    _envelope,
    compute_sinr,
    db_to_linear,
    default_mcs_table,
    minmse_weights,
    select_mcs_batch,
)

TABLE = default_mcs_table()


# The kernels are batched; these run them on one group, one sample row or
# one beta (the R = 1 case).

def minmse_one(channels, noise, power):
    """Kernel weights of one group: (G, M) channels -> (G, M)."""
    return minmse_weights(np.asarray(channels)[None], noise, power)[0]


def sinr_one(weights, channels, power, noise):
    """Kernel SINR of one group at one CSI sample: (G, M) inputs -> (G,)."""
    h = np.asarray(channels)[None, :, None, :]
    return compute_sinr(np.asarray(weights)[None], h, power, noise)[0, :, 0]


def eesm_batch(samples, betas):
    """Exponential effective SIR mapping of each row of linear SINRs (R, N)
    under each beta (B,) -> (R, B): the library kernel over every (row,
    beta) pair, where select_mcs_batch runs it on the pairs it leaves open."""
    x, lo, hi = _envelope(samples)
    b = np.asarray(betas, dtype=float)
    if (b <= 0).any():
        raise ValueError("beta must be positive")
    r, nb = len(x), len(b)
    return _eesm_pairs(x, lo, hi, np.arange(r).repeat(nb), np.tile(b, r), nb == 1).reshape(r, nb)


def eesm_one(samples, beta):
    return float(eesm_batch(np.asarray(samples, dtype=float)[None], [beta])[0, 0])


def chosen_geff(samples, idx, table=TABLE):
    """Effective SINR of each row of samples (R, N) under the beta of its
    entry idx (R,), the most robust entry's for -1: the library kernel on
    one pair per row. _eesm_pairs sums each column of its (N, P) block on
    its own, so these are the bits select_mcs_batch judged the entry by."""
    x, lo, hi = _envelope(samples)
    betas = table.betas[np.maximum(idx, 0)]
    return _eesm_pairs(x, lo, hi, np.arange(len(x)), betas, len(table.entries) == 1)


def select_rows(samples, table=TABLE):
    """select_mcs_batch's entry per row with its gamma_eff, as one (entry or
    None, gamma_eff) pair per row."""
    idx = select_mcs_batch(samples, table)
    geff = chosen_geff(samples, idx, table)
    return [(table.entries[i] if i >= 0 else None, float(e)) for i, e in zip(idx, geff)]


def select_one(samples, table=TABLE):
    return select_rows(np.asarray(samples, dtype=float)[None], table)[0]


# ---------------------------------------------------------------- minmse

def gaussian_elimination_solve(a, b):
    """Independent dense solver: partial-pivot Gaussian elimination on
    complex matrices, no numpy.linalg."""
    n = a.shape[0]
    m = np.concatenate([a.astype(complex).copy(), b.astype(complex).copy()], axis=1)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r, col]))
        if abs(m[piv, col]) == 0:
            raise ZeroDivisionError("singular")
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
        m[col] = m[col] / m[col, col]
        for r in range(n):
            if r != col and m[r, col] != 0:
                m[r] = m[r] - m[r, col] * m[col]
    return m[:, n:]


def oracle_minmse(channels, noise, power):
    g, m = channels.shape
    h = channels.T
    a = h @ h.conj().T + (g * noise / power) * np.eye(m)
    raw = gaussian_elimination_solve(a, h)
    return (raw / np.linalg.norm(raw, axis=0)).T


def test_minmse_single_member_is_matched_filter():
    rng = np.random.default_rng(0)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w = minmse_one(h[None, :], noise=0.1, power=1.0)
    assert np.allclose(w[0], h / np.linalg.norm(h))


def test_minmse_orthogonal_channels_no_leakage():
    h = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]], dtype=complex)
    w = minmse_one(h, noise=0.01, power=1.0)
    assert abs(np.vdot(w[0], h[1])) < 1e-14
    assert abs(np.vdot(w[1], h[0])) < 1e-14


def test_minmse_matches_gaussian_elimination_oracle():
    rng = np.random.default_rng(123)
    for _ in range(200):
        g, m = 2, 4
        h = rng.standard_normal((g, m)) + 1j * rng.standard_normal((g, m))
        noise = float(rng.uniform(1e-3, 1.0))
        power = float(rng.uniform(0.5, 10.0))
        w = minmse_one(h, noise, power)
        w_ref = oracle_minmse(h, noise, power)
        assert np.abs(w - w_ref).max() < 1e-9 * np.abs(w_ref).max()


def test_minmse_unit_norm_rows():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = int(rng.integers(1, 5))
        h = rng.standard_normal((g, 4)) + 1j * rng.standard_normal((g, 4))
        w = minmse_one(h, 0.05, 2.0)
        assert np.allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-12)


def test_minmse_zero_forcing_limit_when_regularizer_underflows():
    # G sigma^2 / P below the Gram's rounding leaves H H^H + reg I exactly
    # singular for G < M; the weights are then the limit reg -> 0, zero-forcing
    h = np.array([[2.0, 1j, 0.0, 0.0], [0.0, 1.0, -1.0, 0.0]])
    for members in (h[:1], h):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(members.T @ members.conj() + 1e-320 * np.eye(4), members.T)
        w = minmse_one(members, noise=1e-300, power=1e20)
        zf = (members.T @ np.linalg.inv(members.conj() @ members.T)).T  # rows of H (H^H H)^-1
        zf /= np.linalg.norm(zf, axis=1, keepdims=True)
        assert np.allclose(w, zf, atol=1e-12)


def test_minmse_exact_at_extreme_snr():
    # G sigma^2 / P = 2e-320 is far below the rounding of an M x M Gram
    # H H^H, whose solve then returned a weight with |w^H h| = 0.708; the
    # G x G Gram H^H H keeps its full rank, so the weight is h / |h|
    rng = np.random.default_rng(5)
    h = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
    w = minmse_one(h, noise=1e-300, power=1e20)
    assert abs(abs(np.vdot(w[0], h[0])) - np.linalg.norm(h)) < 1e-12


def test_minmse_dependent_members_take_pinv_fallback(monkeypatch):
    # exactly dependent members with the regularizer lost to rounding leave
    # the G x G Gram singular; the pinv fallback still gives finite
    # unit-norm rows, here both along the members' common direction
    d = np.array([[1, 2, 0, 0], [2, 4, 0, 0]], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(d.conj() @ d.T + 2e-320 * np.eye(2), d.conj())
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(a.shape) or pinv(a))
    w = minmse_one(d, noise=1e-300, power=1e20)
    assert calls == [(1, 2, 2)]
    assert np.isfinite(w).all()
    assert np.allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-12)
    assert np.allclose(w, d[0] / np.sqrt(5.0), atol=1e-12)


@pytest.mark.parametrize("zero_first", [True, False])
def test_minmse_zero_member_with_subnormal_regularizer(zero_first):
    # r = G sigma^2 / P = 2e-320 is subnormal: solve overflows 1/r against
    # the zero member's zero row into nan, and in the second member order
    # the nan reaches the partner's weights too; pinv keeps both finite
    zero, h = np.zeros(4, dtype=complex), np.array([1, 2j, 3, 0.5])
    group = np.array([zero, h] if zero_first else [h, zero])
    z, p = (0, 1) if zero_first else (1, 0)
    w = minmse_one(group, noise=1e-300, power=1e20)
    assert np.array_equal(w[z], zero)
    assert np.isfinite(w[p]).all() and abs(np.linalg.norm(w[p]) - 1.0) < 1e-12
    with np.errstate(over="ignore"):  # the partner's SINR overflows to inf
        gamma = sinr_one(w, group, 1e20 / 2, 1e-300)
    assert not np.isnan(gamma).any()


def test_minmse_rejects_oversized_group():
    with pytest.raises(ValueError):
        minmse_one(np.ones((3, 2), dtype=complex), 0.1, 1.0)


def test_minmse_rejects_nonpositive_noise():
    # the regularizer G sigma^2 / P keeps the inversion well posed; zero
    # noise (plain zero-forcing) is not a supported operating point
    h = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
    for noise, power in ((0.0, 1.0), (-0.1, 1.0), (0.1, 0.0)):
        with pytest.raises(ValueError):
            minmse_one(h, noise, power)


def test_kernels_batch_rows_independent():
    # a batch of R groups gives bit for bit what R batch-of-one calls give;
    # grouping stacks subbands and greedy steps into one batch on this
    rng = np.random.default_rng(8)
    cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for r_total, g in ((5, 3), (60, 2), (61, 4)):
        # mildly frequency-selective, so the rows span the MCS ladder
        h = cn(r_total, g, 1, 4) + 0.3 * cn(r_total, g, 7, 4)
        w = minmse_weights(h[:, :, 3, :], 0.2, 9.0)
        gamma = compute_sinr(w, h, 3.0, 0.2)
        idx = select_mcs_batch(gamma.reshape(-1, 7), TABLE)
        geff = chosen_geff(gamma.reshape(-1, 7), idx)
        assert w.shape == (r_total, g, 4) and gamma.shape == (r_total, g, 7)
        for r in range(r_total):
            w_r = minmse_weights(h[r : r + 1, :, 3, :], 0.2, 9.0)
            assert np.array_equal(w_r[0], w[r])
            g_r = compute_sinr(w_r, h[r : r + 1], 3.0, 0.2)
            assert np.array_equal(g_r[0], gamma[r])
            i_r = select_mcs_batch(g_r[0], TABLE)  # the group's g member rows
            e_r = chosen_geff(g_r[0], i_r)
            assert np.array_equal(i_r, idx[r * g : (r + 1) * g])
            assert np.array_equal(e_r, geff[r * g : (r + 1) * g])
        assert len(set(idx.tolist())) > 2  # the rows pick different MCS entries


# ---------------------------------------------------------------- einsum's bits

def einsum_minmse(channels, noise, power):
    """minmse_weights in its G x G form with the Gram product H^H H taken by
    np.einsum. einsum pairs its operands last first, so the plan runs the
    kernel's conj(ch) @ ch.mT. At M = 1 the contracted index is a singleton
    that the plan turns into a multiply, which rounds the diagonal's imag
    part; there einsum's own sum of products rounds as the matmul does."""
    g, m = channels.shape[1:]
    hh = channels.conj()
    a = np.einsum("rhm,rgm->rgh", channels, hh, optimize=m > 1) + g * noise / power * np.eye(g)
    raw = np.empty_like(hh)
    for r in range(len(a)):  # group by group, a singular Gram through pinv
        try:
            raw[r] = np.linalg.solve(a[r], hh[r])
        except np.linalg.LinAlgError:
            raw[r] = np.linalg.pinv(a[r]) @ hh[r]
    raw = raw.conj()
    norms = np.linalg.norm(raw, axis=2, keepdims=True)
    return raw / np.where(norms == 0, 1.0, norms)


def einsum_sinr(weights, channels, power, noise):
    """compute_sinr with its cross products w^H h taken by np.einsum."""
    cross = np.abs(np.einsum("rvm,runm->ruvn", weights.conj(), channels, optimize=True)) ** 2
    ar = np.arange(weights.shape[1])
    signal = cross[:, ar, ar, :]
    return (power * signal) / (noise + power * (cross.sum(axis=2) - signal))


def assert_same_bits(got, want):
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()  # zeros' signs too


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_kernels_keep_einsum_bits(m):
    # the Gram and cross products are the batch matmuls that numpy's einsum
    # runs for them, G = 1 included, so weights and SINRs keep its bits
    rng = np.random.default_rng(m)
    cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for g, r, n in itertools.product(range(1, m + 1), (1, 3, 48), (1, 5, 24)):
        ch, h = cn(r, g, m), cn(r, g, n, m)
        if g > 1:
            ch[0, 1] = 2j * ch[0, 0]  # a rank-deficient group
        ch[-1, 0], h[-1, 0] = 0, 0  # an all-zero member row
        for scale in (np.ones((r, g, 1)), 10.0 ** (8 * rng.integers(-1, 2, size=(r, g, 1)))):
            x, hx = ch * scale, h * scale[..., None]
            w = minmse_weights(x, 1e-3, 10.0)
            assert_same_bits(w, einsum_minmse(x, 1e-3, 10.0))
            assert_same_bits(compute_sinr(w, hx, 2.0, 1e-3), einsum_sinr(w, hx, 2.0, 1e-3))


def reduce_sinr(weights, channels, power, noise):
    """compute_sinr with its interference summed by numpy's own reduction,
    cross.sum(axis=2), over the kernel's cross products in the kernel's
    memory layout (which sets the reduction's order)."""
    (r, g, n, m), wc = channels.shape, weights.conj()
    if g * m > 1:
        prod = (channels.reshape(r, g * n, m) @ wc.mT).reshape(r, g, n, g).transpose(0, 1, 3, 2)
    else:
        prod = channels[:, :, None, :, 0] * wc[:, :, :, None]
    cross = np.abs(prod)
    np.square(cross, out=cross)
    signal = cross.diagonal(axis1=1, axis2=2).mT
    return (power * signal) / (noise + power * (cross.sum(axis=2) - signal))


def test_sinr_interference_keeps_reduction_bits():
    # the interference is summed by whole-array adds in add.reduce's order:
    # a running sum below 8 terms, eight folded partial sums up to 128, two
    # halves above; weights spread over 10^+-8 make any other order show
    rng = np.random.default_rng(20)
    cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    shapes = [(g, r, n) for g in range(1, 21) for r in (1, 3, 48) for n in (1, 5, 24)]
    for g, r, n in shapes + [(130, 1, n) for n in range(1, 6)]:
        w = cn(r, g, g) * 10.0 ** (8 * rng.uniform(-1, 1, size=(r, g, 1)))
        h = cn(r, g, n, g)
        assert_same_bits(compute_sinr(w, h, 2.0, 1e-3), reduce_sinr(w, h, 2.0, 1e-3))


# ---------------------------------------------------------------- Eq. 1 SINR

def test_sinr_single_member_no_interference():
    h = np.array([[1.0, 1.0, 1.0, 1.0]], dtype=complex)  # ||H||^2 = 4
    w = h / np.linalg.norm(h)
    gamma = sinr_one(w, h, power=1.0, noise=1.0)
    assert np.allclose(gamma, [4.0])


def test_sinr_zero_power():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    w = minmse_one(h, 0.1, 1.0)
    gamma = sinr_one(w, h, 0.0, 1.0)
    assert np.allclose(gamma, 0.0)


def oracle_sinr_scalar(weights, channels, power, noise):
    """Term-by-term scalar expansion of the SINR ratio."""
    g = len(weights)
    out = []
    for u in range(g):
        def gain(v):
            acc = 0j
            for i in range(len(weights[v])):
                acc += complex(weights[v][i]).conjugate() * complex(channels[u][i])
            return abs(acc) ** 2
        interference = sum(gain(v) for v in range(g) if v != u)
        out.append(power * gain(u) / (noise + power * interference))
    return out


def test_sinr_matches_scalar_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w = w / np.linalg.norm(w, axis=1, keepdims=True)
        p = float(rng.uniform(0.1, 5.0))
        noise = float(rng.uniform(0.01, 2.0))
        got = sinr_one(w, h, p, noise)
        ref = oracle_sinr_scalar(w, h, p, noise)
        assert np.abs(got - np.array(ref)).max() <= 1e-12 * max(ref)


def test_sinr_rejects_nonpositive_noise():
    h = np.ones((1, 2), dtype=complex)
    with pytest.raises(ValueError):
        sinr_one(h, h, 1.0, 0.0)


def test_sinr_interference_monotone():
    # with fixed weights, adding a member never raises an existing member's SINR
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        w = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        two = sinr_one(w[:2], h[:2], 1.0, 0.5)
        three = sinr_one(w, h, 1.0, 0.5)
        assert three[0] <= two[0] + 1e-12
        assert three[1] <= two[1] + 1e-12


def test_sinr_per_sample_shape():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((2, 7, 3)) + 1j * rng.standard_normal((2, 7, 3))
    w = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    gamma = compute_sinr(w[None], h[None], 1.0, 0.1)
    assert gamma.shape == (1, 2, 7)
    for n in range(7):
        single = sinr_one(w, h[:, n, :], 1.0, 0.1)
        assert np.allclose(single, gamma[0, :, n])


# ---------------------------------------------------------------- EESM

def test_eesm_constant_fixed_point():
    for beta in (0.5, 1.49, 13.8):
        assert eesm_one([3.7, 3.7, 3.7], beta) == pytest.approx(3.7, abs=1e-12)
    # the rounded mean of these rows lies one ulp below their value
    for x, n in ((5.361303269113671, 6), (3.1301539720875793, 3)):
        assert eesm_one([x] * n, 1.49) == x


def test_eesm_single_sample():
    assert eesm_one([11.25], 2.0) == pytest.approx(11.25, abs=1e-12)


def test_eesm_matches_high_precision_oracle():
    beta = 1.49
    with mpmath.workdps(60):
        b = mpmath.mpf("1.49")
        ref = -b * mpmath.log((mpmath.e ** (-1 / b) + mpmath.e ** (-100 / b)) / 2)
    got = eesm_one([1.0, 100.0], beta)
    assert abs(got - float(ref)) < 1e-12 * float(ref)
    assert 1.0 <= got <= 50.5


def test_eesm_rejects_bad_input():
    with pytest.raises(ValueError):
        eesm_one([], 1.0)
    with pytest.raises(ValueError):
        eesm_one([1.0], 0.0)
    with pytest.raises(ValueError):
        eesm_one([-0.5, 1.0], 1.0)


def test_kernels_reject_malformed_input():
    h = np.ones((2, 3), dtype=complex)  # one group, no batch axis
    with pytest.raises(ValueError):
        minmse_weights(h, 0.1, 1.0)
    with pytest.raises(ValueError):
        minmse_weights(np.full((1, 2, 3), np.nan, dtype=complex), 0.1, 1.0)

    w = np.ones((1, 2, 3), dtype=complex)
    ch = np.ones((1, 2, 5, 3), dtype=complex)
    compute_sinr(w, ch, 1.0, 0.1)  # well formed
    bad = [
        (w[0], ch),  # 2-D weights
        (w, ch[:, :, 0, :]),  # 3-D channels
        (w, ch[:, :1]),  # group sizes differ
        (w, ch[:, :, :, :2]),  # antenna counts differ
        (np.ones((2, 2, 3), dtype=complex), ch),  # batch sizes differ
    ]
    for wb, cb in bad:
        with pytest.raises(ValueError):
            compute_sinr(wb, cb, 1.0, 0.1)
    with pytest.raises(ValueError):
        compute_sinr(w, ch, -1.0, 0.1)

    for samples, betas in (
        (np.ones(4), [1.0]),  # 1-D samples
        (np.empty((3, 0)), [1.0]),  # no samples per row
        (np.array([[1.0, -1e-9]]), [1.0]),
        (np.ones((1, 4)), [1.0, 0.0]),
        (np.ones((1, 4)), [-2.0]),
    ):
        with pytest.raises(ValueError):
            eesm_batch(samples, betas)
    with pytest.raises(ValueError):
        select_mcs_batch(np.empty((1, 0)), TABLE)


@given(
    samples=st.lists(st.floats(min_value=0.0, max_value=1e8), min_size=1, max_size=32),
    beta=st.floats(min_value=0.05, max_value=50.0),
)
def test_eesm_jensen_bounds(samples, beta):
    val = eesm_one(samples, beta)
    assert min(samples) <= val <= np.mean(samples)


@given(
    samples=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=16),
    bumps=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=16, max_size=16),
    beta=st.floats(min_value=0.1, max_value=20.0),
)
def test_eesm_pointwise_monotone(samples, bumps, beta):
    bigger = [s + b for s, b in zip(samples, bumps)]
    lo = eesm_one(samples, beta)
    hi = eesm_one(bigger, beta)
    assert hi >= lo - 1e-9 * max(1.0, abs(lo))


def oracle_eesm(samples, beta):
    """-beta ln(mean(exp(-x / beta))) in 60-digit arithmetic."""
    with mpmath.workdps(60):
        b = mpmath.mpf(beta)
        terms = [mpmath.exp(-mpmath.mpf(float(x)) / b) for x in samples]
        return float(-b * mpmath.log(mpmath.fsum(terms) / len(terms)))


def test_eesm_batch_consistent_with_scalar():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 200, size=(20, 9))
    betas = np.array([e.beta for e in TABLE.entries])
    batch = eesm_batch(x, betas)
    for i in range(20):
        for j, beta in enumerate(betas):
            assert batch[i, j] == pytest.approx(oracle_eesm(x[i], beta), rel=1e-12)


# ---------------------------------------------------------------- MCS selection

def test_select_mcs_dominance():
    entry, geff = select_one([1e6, 2e6])
    assert entry is TABLE.entries[-1]


def test_select_mcs_floor():
    entry, geff = select_one([0.1, 0.2])
    assert entry is None
    assert geff == pytest.approx(oracle_eesm([0.1, 0.2], TABLE.entries[0].beta), rel=1e-12)


def oracle_select(samples, table):
    """Exhaustive per-entry evaluation, highest feasible wins."""
    feasible = []
    for e in table.entries:
        geff = oracle_eesm(samples, e.beta)
        if geff >= db_to_linear(e.min_sinr_db):
            feasible.append((e, geff))
    if not feasible:
        return None, oracle_eesm(samples, table.entries[0].beta)
    return max(feasible, key=lambda t: table.entries.index(t[0]))


def test_select_mcs_per_beta_matters():
    # bimodal pair where the per-MCS beta admits a higher entry than a
    # single robust-beta evaluation would
    samples = [30.0, 38.0]
    entry, _ = select_one(samples)
    oracle_entry, _ = oracle_select(samples, TABLE)
    assert entry is oracle_entry
    assert entry.name == "64QAM 1/2"
    geff_low_beta = oracle_eesm(samples, TABLE.entries[0].beta)
    single_beta_choice = None
    for e in reversed(TABLE.entries):
        if geff_low_beta >= db_to_linear(e.min_sinr_db):
            single_beta_choice = e
            break
    assert single_beta_choice.name == "16QAM 3/4"


def test_select_mcs_matches_bruteforce_scan():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        lo = rng.uniform(0, 5, size=n // 2 + 1)
        hi = rng.uniform(5, 400, size=n - n // 2 - 1) if n > 1 else []
        samples = np.concatenate([lo, hi]) if len(hi) else lo
        got_entry, got_geff = select_one(samples)
        ref_entry, ref_geff = oracle_select(samples, TABLE)
        assert got_entry is ref_entry
        assert got_geff == pytest.approx(ref_geff, rel=1e-12)


def test_select_mcs_batch_consistent():
    rng = np.random.default_rng(23)
    x = rng.uniform(0, 300, size=(40, 6))
    batch = select_rows(x)
    for i in range(40):
        assert batch[i] == select_one(x[i])
        entry, geff = oracle_select(x[i], TABLE)
        assert batch[i][0] is entry
        assert batch[i][1] == pytest.approx(geff, rel=1e-12)


@given(
    samples=st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1, max_size=8),
    scale=st.floats(min_value=1.0, max_value=100.0),
)
def test_select_mcs_monotone_under_scaling(samples, scale):
    before, _ = select_one(samples)
    after, _ = select_one([s * scale for s in samples])
    rank = lambda e: -1 if e is None else TABLE.entries.index(e)
    assert rank(after) >= rank(before)


# ---------------------------------------------------------------- envelope pruning

def full_grid_eesm(samples, betas):
    """EESM over every (row, beta) pair in one (R, N, B) exponent block: the
    kernel before MCS selection skipped the entries its row's envelope
    decides. numpy sums the block pairwise over N at B = 1 and row by row
    at B >= 2."""
    x, b = np.asarray(samples, dtype=float), np.asarray(betas, dtype=float)
    lo = x.min(axis=1, keepdims=True)
    hi = x.mean(axis=1, keepdims=True)
    z = np.exp(-(x[:, :, None] - lo[:, :, None]) / b)
    val = lo - b * (np.log(z.sum(axis=1)) - np.log(x.shape[1]))
    return np.maximum(np.minimum(val, hi), lo)


def full_grid_select(samples, table):
    """select_mcs_batch from the full grid: every entry judged by its EESM."""
    thr = np.array([db_to_linear(e.min_sinr_db) for e in table.entries])
    geff = full_grid_eesm(samples, [e.beta for e in table.entries])
    ok = geff >= thr
    idx = np.where(ok.any(axis=1), len(thr) - 1 - ok[:, ::-1].argmax(axis=1), -1)
    return idx, geff[np.arange(len(geff)), np.maximum(idx, 0)]


def exact_db(t):
    """A threshold in dB whose linear value is exactly the integer t."""
    up = down = 10 * math.log10(t)
    for _ in range(8):  # the nearest dB values a few ulps either way
        for db in (up, down):
            if db_to_linear(db) == t:
                return db
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
    raise AssertionError(f"no dB value maps to {t}")


def exact_table(thresholds):
    """MCS table with the default betas and the given integer linear
    thresholds, so sample rows can put their min or mean exactly on one."""
    betas = [e.beta for e in TABLE.entries]
    return McsTable(tuple(
        McsEntry(f"e{k}", exact_db(t), 6 + k, betas[k]) for k, t in enumerate(thresholds)
    ))


def envelope_rows(rng, r, n, thr, shift):
    """r rows of n samples across the ladder; row i is, by (i + shift) % 7,
    all zero, constant at a threshold, an integer row whose min and mean
    are thresholds, a random row whose min is a threshold, random, all inf
    (min inf) or random with a nan."""
    x = rng.exponential(1.0, (r, n)) * 10 ** rng.uniform(-0.5, 2.0, (r, 1))
    for i in range(r):
        k = int(rng.integers(len(thr)))
        t_lo, t_hi = (thr[k - 1], thr[k]) if k else (0.0, thr[k])
        kind = (i + shift) % 7
        if kind == 0:
            x[i] = 0.0
        elif kind == 1:
            x[i] = t_hi
        elif kind == 2:  # t_hi -+ d in pairs, so the sum is exact
            d = rng.integers(0, t_hi - t_lo + 1, size=n // 2)
            d[:1] = t_hi - t_lo
            x[i] = np.concatenate([t_hi - d, t_hi + d, [t_hi] * (n % 2)])
            assert x[i].mean() == t_hi and (n < 2 or x[i].min() == t_lo)
        elif kind == 3:
            x[i] += thr[k] - x[i].min()
            assert x[i].min() == thr[k]
        elif kind == 5:
            x[i] = np.inf
        elif kind == 6:
            x[i, rng.integers(n)] = np.nan
    return x


def assert_same_bits_or_nan(got, want):
    """Equal bits where want is a number, nan where want is nan."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert_same_bits(got[~nan], want[~nan])


@pytest.mark.parametrize("thresholds", [[9], [4, 16], [2, 4, 6, 9, 16, 21, 36]],
                         ids=["1-entry", "2-entry", "7-entry"])
def test_envelope_pruning_keeps_full_grid_bits(thresholds):
    # entries at or below a row's min pass and those above its top fail
    # without an exp; the rest, and every chosen entry, give the full
    # grid's bits, and eesm_batch is the full grid itself. A row whose min
    # is inf or nan gets -1 and a nan effective SINR, as on the full grid.
    table = exact_table(thresholds)
    thr, betas = np.array(thresholds, dtype=float), [e.beta for e in table.entries]
    rng = np.random.default_rng(len(thresholds))
    decided = nonfinite = 0
    for r, n, shift in itertools.product((1, 3, 48), (1, 2, 9, 90, 180), range(7)):
        x = envelope_rows(rng, r, n, thr, shift)
        with np.errstate(invalid="ignore"):  # inf - inf in the exponents
            idx = select_mcs_batch(x, table)
            geff = chosen_geff(x, idx, table)
            want_idx, want_geff = full_grid_select(x, table)
            assert_same_bits_or_nan(eesm_batch(x, betas), full_grid_eesm(x, betas))
        assert_same_bits(idx, want_idx)
        assert_same_bits_or_nan(geff, want_geff)
        lo, top = x.min(axis=1), np.maximum(x.min(axis=1), x.mean(axis=1))
        decided += ((thr <= lo[:, None]) | (thr > top[:, None])).sum()
        nonfinite += (~np.isfinite(lo)).sum()
        assert (idx[~np.isfinite(lo)] == -1).all()
    assert decided > 0 and nonfinite > 0


# ---------------------------------------------------------------- slot capacity

def test_slot_capacity_values():
    # 48 data symbols per slot
    qpsk12 = TABLE.entries[0]
    assert qpsk12.bytes_per_slot == 48 * 2 * 1 // 2 // 8 == 6
    top = TABLE.entries[-1]
    assert top.bytes_per_slot == 48 * 6 * 3 // 4 // 8 == 27


def test_mcs_table_validation():
    with pytest.raises(ValueError):
        McsTable(())
    with pytest.raises(ValueError):
        McsTable((McsEntry("a", 3.0, 6, 1.0), McsEntry("b", 3.0, 9, 1.0)))
    with pytest.raises(ValueError):
        McsTable((McsEntry("a", 3.0, 9, 1.0), McsEntry("b", 5.0, 6, 1.0)))
    with pytest.raises(ValueError):  # EESM under an infinite beta is nan, off its envelope
        McsTable((McsEntry("a", 3.0, 6, math.inf),))


def test_mcs_table_json_roundtrip(tmp_path):
    path = tmp_path / "mcs.json"
    path.write_text(json.dumps({"entries": [dataclasses.asdict(e) for e in TABLE.entries]}))
    back = McsTable.from_json(path)
    assert back == TABLE
