"""Unit tests for the DVFS frequency model."""

import numpy as np
import pytest

from repro.hw.cpu import DvfsModel


def make(num=4, jitter=0.0, seed=0):
    return DvfsModel(num_cpus=num, fmax_mhz=2400.0, fmin_mhz=1200.0, jitter_mhz=jitter, seed=seed)


class TestDynamics:
    def test_starts_at_fmin(self):
        assert np.allclose(make().freqs_mhz, 1200.0)

    def test_converges_to_fmax_under_load(self):
        m = make()
        for _ in range(50):
            m.step([1.0] * 4, dt=0.5)
        assert np.allclose(m.freqs_mhz, 2400.0, atol=1.0)

    def test_falls_back_to_fmin_when_idle(self):
        m = make()
        for _ in range(50):
            m.step([1.0] * 4, dt=0.5)
        for _ in range(50):
            m.step([0.0] * 4, dt=0.5)
        assert np.allclose(m.freqs_mhz, 1200.0, atol=1.0)

    def test_partial_load_intermediate_frequency(self):
        m = make()
        for _ in range(100):
            m.step([0.6] * 4, dt=0.5)
        # schedutil: 1.25 * 2400 * 0.6 = 1800
        assert np.allclose(m.freqs_mhz, 1800.0, atol=5.0)

    def test_governor_headroom_clamps_at_fmax(self):
        m = make()
        for _ in range(100):
            m.step([0.9] * 4, dt=0.5)
        assert np.all(m.freqs_mhz <= 2400.0)

    def test_per_core_independence(self):
        m = make()
        for _ in range(100):
            m.step([1.0, 0.0, 1.0, 0.0], dt=0.5)
        f = m.freqs_mhz
        assert f[0] > f[1]
        assert f[2] > f[3]


class TestJitter:
    def test_jitter_produces_spread_of_right_magnitude(self):
        m = make(num=64, jitter=100.0, seed=1)
        for _ in range(100):
            m.step([1.0] * 64, dt=0.5)
        # Under full load clamping halves the visible spread; just require
        # the paper-scale ballpark: tens of MHz.
        assert 10.0 < m.std_mhz() < 200.0

    def test_zero_jitter_is_deterministic(self):
        a, b = make(seed=1), make(seed=2)
        for _ in range(10):
            a.step([0.5] * 4, dt=0.5)
            b.step([0.5] * 4, dt=0.5)
        assert np.allclose(a.freqs_mhz, b.freqs_mhz)

    def test_jitter_never_escapes_bounds(self):
        m = make(jitter=500.0, seed=3)
        for _ in range(200):
            m.step([0.5] * 4, dt=0.5)
            assert np.all(m.freqs_mhz >= 1200.0)
            assert np.all(m.freqs_mhz <= 2400.0)


class TestFrequencyDomains:
    def test_domain_cores_share_frequency(self):
        m = DvfsModel(8, 2400.0, 1200.0, domain_size=4, seed=1, jitter_mhz=50.0)
        for _ in range(50):
            m.step([1.0] * 8, dt=0.5)
        f = m.freqs_mhz
        assert np.allclose(f[:4], f[0])
        assert np.allclose(f[4:], f[4])

    def test_hot_core_drags_domain_up(self):
        m = DvfsModel(8, 2400.0, 1200.0, domain_size=4)
        for _ in range(60):
            m.step([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], dt=0.5)
        f = m.freqs_mhz
        # whole first domain follows its single busy core
        assert np.allclose(f[:4], 2400.0, atol=5.0)
        assert np.allclose(f[4:], 1200.0, atol=5.0)

    def test_domain_must_divide_core_count(self):
        with pytest.raises(ValueError):
            DvfsModel(6, 2400.0, 1200.0, domain_size=4)
        with pytest.raises(ValueError):
            DvfsModel(8, 2400.0, 1200.0, domain_size=0)

    def test_chiclet_uses_ccx_domains(self):
        from repro.hw.nodespecs import CHETEMI, CHICLET

        assert CHICLET.freq_domain_size == 4
        assert CHETEMI.freq_domain_size == 1

    def test_domain_jitter_moves_whole_domains(self):
        m = DvfsModel(8, 2400.0, 1200.0, domain_size=4, jitter_mhz=100.0, seed=2)
        for _ in range(30):
            m.step([0.5] * 8, dt=0.5)
        f = m.freqs_mhz
        assert f[0] == f[3]
        # two domains carry independent noise: they differ (w.h.p.)
        assert f[0] != f[4]


class TestValidation:
    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            make().step([1.0] * 3, dt=0.5)

    def test_util_out_of_range(self):
        with pytest.raises(ValueError):
            make().step([1.5] * 4, dt=0.5)
        with pytest.raises(ValueError):
            make().step([-0.5] * 4, dt=0.5)

    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            DvfsModel(0, 2400, 1200)
        with pytest.raises(ValueError):
            DvfsModel(1, 1000, 1200)
        with pytest.raises(ValueError):
            DvfsModel(1, 2400, 1200, jitter_mhz=-1)

    def test_freqs_view_read_only(self):
        m = make()
        with pytest.raises(ValueError):
            m.freqs_mhz[0] = 0.0


def clip_reference_step(m: DvfsModel, util, dt: float) -> np.ndarray:
    """``DvfsModel.step`` as first written, with ``np.clip``: the model
    now spells the clamps with np.minimum/np.maximum and must agree."""
    from repro.hw.cpu import GOVERNOR_HEADROOM, TRACKING_RATE

    util = np.clip(np.asarray(util, dtype=np.float64), 0.0, 1.0)
    if m.domain_size > 1:
        util = np.repeat(util.reshape(-1, m.domain_size).max(axis=1), m.domain_size)
    target = np.clip(GOVERNOR_HEADROOM * m.fmax_mhz * util, m.fmin_mhz, m.fmax_mhz)
    m._freqs += (1.0 - np.exp(-TRACKING_RATE * dt)) * (target - m._freqs)
    if m.jitter_mhz > 0:
        noise = np.repeat(
            m._rng.normal(0.0, m.jitter_mhz, m.num_cpus // m.domain_size), m.domain_size
        )
        m._freqs = np.clip(m._freqs + noise * np.sqrt(min(dt, 1.0)), m.fmin_mhz, m.fmax_mhz)
    return m._freqs


class TestMatchesClipReference:
    @pytest.mark.parametrize("jitter,domain", [(0.0, 1), (30.0, 1), (30.0, 4)])
    def test_bit_identical(self, jitter, domain):
        a = DvfsModel(8, 2400.0, 1200.0, jitter_mhz=jitter, seed=5, domain_size=domain)
        b = DvfsModel(8, 2400.0, 1200.0, jitter_mhz=jitter, seed=5, domain_size=domain)
        rng = np.random.default_rng(1)
        for dt in (0.5, 1.0, 0.1, 2.0) * 5:
            util = rng.random(8) * rng.choice([0.0, 0.3, 1.0])
            a.step(util, dt)
            clip_reference_step(b, util, dt)
            assert a.freqs_mhz.tobytes() == b._freqs.tobytes()
            assert a.mean_mhz() == float(np.mean(b._freqs))
