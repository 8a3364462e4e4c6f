import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdma_fss.phy import (
    McsEntry,
    McsTable,
    compute_sinr,
    db_to_linear,
    default_mcs_table,
    eesm_batch,
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


def eesm_one(samples, beta):
    return float(eesm_batch(np.asarray(samples, dtype=float)[None], [beta])[0, 0])


def select_one(samples, table=TABLE):
    return select_mcs_batch(np.asarray(samples, dtype=float)[None], table)[0]


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
    # a batch of R groups gives exactly what R batch-of-one calls give
    rng = np.random.default_rng(8)
    h = rng.standard_normal((5, 3, 7, 4)) + 1j * rng.standard_normal((5, 3, 7, 4))
    w = minmse_weights(h[:, :, 3, :], 0.2, 9.0)
    gamma = compute_sinr(w, h, 3.0, 0.2)
    assert w.shape == (5, 3, 4) and gamma.shape == (5, 3, 7)
    for r in range(5):
        w_r = minmse_weights(h[r : r + 1, :, 3, :], 0.2, 9.0)
        assert np.allclose(w_r[0], w[r], rtol=1e-13, atol=0)
        g_r = compute_sinr(w_r, h[r : r + 1], 3.0, 0.2)
        assert np.allclose(g_r[0], gamma[r], rtol=1e-12, atol=0)


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
    batch = select_mcs_batch(x, TABLE)
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


def test_mcs_table_json_roundtrip(tmp_path):
    path = tmp_path / "mcs.json"
    TABLE.to_json(path)
    back = McsTable.from_json(path)
    assert back == TABLE
