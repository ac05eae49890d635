"""Benchmark plants: direct evaluation of the uncertainty maps against
independently coded formulas, structural checks, and the wrappers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdinv import (
    AssumptionConstants,
    ControllerSpec,
    QuadrotorConfig,
    SimConfig,
    UncertainPlant,
    bound_report,
    build_core,
    controllability_rank,
    dead_zone,
    delayed_input_lti,
    f16_rollyaw,
    hsu_siso,
    quadrotor_attitude,
    synthetic_lti,
)

from conftest import sample_constants


class TestConstants:
    def test_validation(self):
        with pytest.raises(ValueError):
            AssumptionConstants(l_hu_low=0.0)
        with pytest.raises(ValueError):
            AssumptionConstants(l_hu_low=2.0, l_hu_high=1.0)
        with pytest.raises(ValueError):
            AssumptionConstants(k_sigma=-1.0)

    def test_defaults_ok(self):
        c = AssumptionConstants()
        assert c.l_hu_low == 1.0 and c.d_sigma == 0.0


class TestSisoBenchmark:
    def test_shapes_and_controllability(self):
        p = hsu_siso()
        assert (p.n, p.m) == (3, 1)
        assert controllability_rank(p.A0, p.B) == 3

    def test_input_map_oracle(self):
        # independent evaluation of (0.5 + 0.3 sin u + e^{0.2|cos u|}) u
        p = hsu_siso()
        for u in (-2.0, -0.3, 0.0, 1.0, 4.0):
            want = (0.5 + 0.3 * np.sin(u) + np.exp(0.2 * abs(np.cos(u)))) * u
            got = p.h(0.0, np.array([u]), np.zeros(3))
            np.testing.assert_allclose(got, [want], atol=1e-14)

    def test_disturbance_oracle(self):
        p = hsu_siso()
        x = np.array([0.5, -1.0, 2.0])
        want = (0.3 + 0.2 * np.cos(0.5)) * np.linalg.norm(x) - 0.5 * np.sin(-1.0)
        np.testing.assert_allclose(p.sigma(0.0, x), [want], atol=1e-14)
        np.testing.assert_allclose(p.sigma(3.0, np.zeros(3)), [0.0], atol=1e-14)

    def test_input_gain_bounds(self):
        # dh/du stays within [0.5 - 0.3 + e^0 - slope terms, ...]; sample
        # a fine grid and check the published-range sanity 0.2 <= h(u)/u
        p = hsu_siso()
        us = np.linspace(-10, 10, 2001)
        us = us[np.abs(us) > 1e-6]
        ratio = np.array([p.h(0.0, np.array([u]), np.zeros(3))[0] / u for u in us])
        assert np.all(ratio > 0.2)


class TestF16Benchmark:
    def test_shapes_and_controllability(self):
        p = f16_rollyaw()
        assert (p.n, p.m) == (4, 2)
        assert controllability_rank(p.A0, p.B) == 4

    def test_zero_point_value(self):
        # at x = 0, u = 0 the aileron channel reduces to D1 cos(-w1) sin(-w2) + D2
        # = 0 + D2 and the rudder channel to D3 cos(-w3) sin(-w4) + D4 plus
        # the tanh offset terms
        p = f16_rollyaw()
        h0 = p.h(0.0, np.zeros(2), np.zeros(4))
        f1_want = (
            np.tanh(7.0) + np.tanh(-7.0)
            + 0.295 * np.cos(-1.6) * np.sin(0.0)
            - 0.0865
        )
        f2_want = (
            np.tanh(2.7) + np.tanh(-2.7)
            + 0.055 * np.cos(1.9) * np.sin(0.0)
            - 0.007
        )
        np.testing.assert_allclose(h0, [f1_want, f2_want], atol=1e-12)
        np.testing.assert_allclose(h0, [-0.0865, -0.007], atol=1e-12)

    def test_printed_form_vs_corrected(self):
        # the two variants differ only through the second tanh argument of
        # the rudder channel
        pp = f16_rollyaw(f2_typo_fix=False)
        pc = f16_rollyaw(f2_typo_fix=True)
        u = np.array([0.5, -1.0])
        x = np.array([0.1, 0.0, 0.2, -0.1])
        hp = pp.h(0.0, u, x)
        hc = pc.h(0.0, u, x)
        np.testing.assert_allclose(hp[0], hc[0], atol=1e-14)
        beta = x[0]
        gauss2 = (1 - 0.3) * np.exp(-(beta**2) / (2 * 0.25**2)) + 0.3
        diff = gauss2 * (np.tanh(u[1] - 2.7) - np.tanh(u[0] - 2.7))
        np.testing.assert_allclose(hc[1] - hp[1], diff, atol=1e-12)

    def test_sigma_is_zero(self):
        p = f16_rollyaw()
        np.testing.assert_allclose(p.sigma(1.0, np.ones(4)), np.zeros(2))

    def test_input_slope_near_unity(self):
        # away from the tanh shoulders dh_i/du_i ~ 1 (the direct term);
        # sampled diagnostic must land in a broad [0.5, 2] band
        est = sample_constants(f16_rollyaw(), u_scale=2.0, x_scale=0.2, grid=4)
        assert 0.5 < est["l_hu_low_est"] < 2.0
        assert est["l_hu_high_est"] < 3.0


class TestQuadrotor:
    def test_structure(self):
        p = quadrotor_attitude()
        assert (p.n, p.m) == (9, 3)
        assert controllability_rank(p.A0, p.B) == 9
        # three decoupled channels: A0 is block diagonal 3x3 blocks
        A = p.A0
        for i in range(9):
            for j in range(9):
                if i // 3 != j // 3:
                    assert A[i, j] == 0.0

    def test_per_channel_spectrum(self):
        p = quadrotor_attitude()
        w = np.sort(np.linalg.eigvals(p.A0).real)
        want = np.sort([-15.0, -3.0, -1.0] * 3)
        np.testing.assert_allclose(w, want, atol=1e-8)

    def test_inner_gain_is_the_published_one_at_omega_15(self):
        Kbar = quadrotor_attitude().meta["Kbar"]
        for i in range(3):
            assert np.array_equal(Kbar[3 * i:3 * i + 3, i:i + 1], [[-3.0], [-4.2], [-4.0 / 15.0]])
        assert np.count_nonzero(Kbar) == 9

    @pytest.mark.parametrize("omega", [5.0, 20.0, 100.0])
    def test_channel_spectrum_follows_omega(self, omega):
        p = quadrotor_attitude(QuadrotorConfig(omega=omega))
        for i in range(3):
            w = np.sort(np.linalg.eigvals(p.A0[3 * i:3 * i + 3, 3 * i:3 * i + 3]))
            np.testing.assert_allclose(w, [-omega, -3.0, -1.0], rtol=1e-12)

    def test_no_mismatch_when_inertia_known(self):
        p = quadrotor_attitude()
        u = np.array([0.1, -0.2, 0.3])
        np.testing.assert_allclose(p.h(0.0, u, np.zeros(9)), u, atol=1e-14)
        np.testing.assert_allclose(p.sigma(0.0, np.ones(9)), np.zeros(3), atol=1e-14)

    def test_scaled_inertia_closed_form(self):
        # J = 1.3 J0: h = u/1.3 and sigma = (1/1.3 - 1) Kbar^T x
        cfg = QuadrotorConfig(J_true=1.3 * np.diag([0.03, 0.03, 0.04]))
        p = quadrotor_attitude(cfg)
        u = np.array([1.0, 2.0, -3.0])
        np.testing.assert_allclose(p.h(0.0, u, np.zeros(9)), u / 1.3, atol=1e-12)
        x = np.arange(9.0)
        Kbar = p.meta["Kbar"]
        want = (1.0 / 1.3 - 1.0) * (Kbar.T @ x)
        np.testing.assert_allclose(p.sigma(0.0, x), want, atol=1e-12)

    def test_constants_match_sampler(self):
        # J = 1.3 J0: G = I / 1.3, so l_hu_low = l_hu_high = 1/1.3 and
        # k_sigma = l_sigma_x = (1 - 1/1.3) ||Kbar^T||
        p = quadrotor_attitude(QuadrotorConfig(J_true=1.3 * np.diag([0.03, 0.03, 0.04])))
        c = p.constants
        est = sample_constants(p, u_scale=10.0)
        assert c.l_hu_low == pytest.approx(est["l_hu_low_est"], rel=1e-6)
        assert c.l_hu_high == pytest.approx(est["l_hu_high_est"], rel=1e-6)
        k_sigma = (1.0 - 1.0 / 1.3) * np.linalg.norm(p.meta["Kbar"].T, 2)
        assert c.k_sigma == c.l_sigma_x == pytest.approx(k_sigma, rel=1e-12)
        assert c.l_ht == c.delta_sigma == c.l_sigma_t == c.d_sigma == 0.0
        assert est["l_ht_est"] == est["sigma_t_est"] == est["sigma_at_zero_est"] == 0.0

    def test_indefinite_input_gain_carries_no_constants(self):
        # an SPD J_true whose G = J^-1 J0 has an indefinite symmetric part
        J0 = np.diag([0.01, 1.0, 0.01])
        J_true = np.array([[0.02, 0.0, 0.0], [0.0, 1.0, 0.09], [0.0, 0.09, 0.01]])
        G = np.linalg.solve(J_true, J0)
        assert np.linalg.eigvalsh((G + G.T) / 2)[0] == pytest.approx(-18.66, abs=0.01)
        assert quadrotor_attitude(QuadrotorConfig(J0=J0, J_true=J_true)).constants is None

    def test_rounding_keeps_constants_ordered(self):
        # G = I / 1.3 up to rounding, which here puts lambda_min(sym G) above ||G||
        J0 = np.array([[0.03, 0.005, 0.001], [0.005, 0.01, 0.002], [0.001, 0.002, 0.01]])
        G = np.linalg.solve(1.3 * J0, J0)
        assert np.linalg.eigvalsh((G + G.T) / 2)[0] > np.linalg.norm(G, 2)
        c = quadrotor_attitude(QuadrotorConfig(J0=J0, J_true=1.3 * J0)).constants
        assert c.l_hu_low == c.l_hu_high == pytest.approx(1.0 / 1.3, rel=1e-12)

    def test_bad_inertia_rejected(self):
        with pytest.raises(ValueError, match=r"^J0 must be positive definite$"):
            QuadrotorConfig(J0=np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"^J_true must be positive definite$"):
            QuadrotorConfig(J_true=-np.diag([0.03, 0.03, 0.04]))


class TestSynthetic:
    def test_constants_closed_form(self):
        p = synthetic_lti(g=2.0, S=np.array([[0.1, -0.2]]), d_amp=0.3, d_freq=4.0)
        c = p.constants
        s_norm = np.linalg.norm([[0.1, -0.2]], 2)
        assert c.l_hu_low == c.l_hu_high == 2.0
        np.testing.assert_allclose(c.k_sigma, s_norm, atol=1e-12)
        np.testing.assert_allclose(c.l_sigma_x, s_norm, atol=1e-12)
        np.testing.assert_allclose(c.delta_sigma, 0.3, atol=1e-12)
        np.testing.assert_allclose(c.d_sigma, 1.2, atol=1e-12)
        assert c.l_ht == 0.0 and c.l_sigma_t == 0.0

    def test_maps(self):
        p = synthetic_lti(g=2.0, S=np.array([[0.1, -0.2]]), d_amp=0.3, d_freq=4.0)
        np.testing.assert_allclose(p.h(0.0, np.array([1.5]), None), [3.0])
        x = np.array([1.0, 2.0])
        t = 0.7
        want = 0.1 * 1.0 - 0.2 * 2.0 + 0.3 * np.sin(4.0 * t)
        np.testing.assert_allclose(p.sigma(t, x), [want], atol=1e-14)

    def test_sampled_estimates_respect_declared_bounds(self):
        # the finite-difference sampler is a lower bound on the suprema,
        # so it must not exceed the declared closed-form constants
        p = synthetic_lti(g=1.5, S=np.array([[0.05, 0.05]]), d_amp=0.1, d_freq=1.0)
        est = sample_constants(p)
        assert est["l_hu_low_est"] == pytest.approx(1.5, rel=1e-4)
        assert est["l_hu_high_est"] == pytest.approx(1.5, rel=1e-4)
        assert est["l_ht_est"] < 1e-6
        assert est["sigma_t_est"] <= p.constants.d_sigma + 1e-6

    def test_bad_gain_rejected(self):
        with pytest.raises(ValueError):
            synthetic_lti(g=0.0)


class TestWrappers:
    def test_dead_zone_zeroes_small_inputs(self):
        p = dead_zone(0.1)(synthetic_lti(g=1.0))
        np.testing.assert_allclose(p.h(0.0, np.array([0.05]), None), [0.0])
        np.testing.assert_allclose(p.h(0.0, np.array([0.5]), None), [0.5])
        np.testing.assert_allclose(p.h(0.0, np.array([-0.09]), None), [0.0])
        np.testing.assert_allclose(p.h(0.0, np.array([0.1]), None), [0.1])
        assert "deadzone" in p.name

    def test_dead_zone_width_positive(self):
        with pytest.raises(ValueError):
            dead_zone(0.0)

    def test_dead_zone_drops_constants(self):
        # h has slope 0 on |u| < mu, so the wrapped plant's l_hu_low no longer holds
        assert synthetic_lti().constants is not None
        assert dead_zone(0.1)(synthetic_lti()).constants is None

    def test_delayed_plant_flags(self):
        p = delayed_input_lti(0.05, g=1.0)
        assert p.input_delay == 0.05
        assert p.constants is None
        with pytest.raises(ValueError):
            delayed_input_lti(-1.0)


NAN = float("nan")
INF = float("inf")


def _eta_at(core, epsilon):
    return bound_report(core, synthetic_lti().constants).eta(epsilon)


class TestNanParameters:
    """A non-finite number fails as_float in the constructor that owns it,
    before any range check; NaN fails the positive check of eta (a `<= 0`
    test would let it through)."""

    @pytest.mark.parametrize("make, message", [
        (lambda core: delayed_input_lti(NAN), "^tau must be finite, not nan$"),
        (lambda core: synthetic_lti(g=NAN), "^g must be finite, not nan$"),
        (lambda core: dead_zone(NAN), "^mu must be finite, not nan$"),
        (lambda core: QuadrotorConfig(omega=NAN), "^omega must be finite, not nan$"),
        (lambda core: AssumptionConstants(l_hu_low=NAN), "^l_hu_low must be finite, not nan$"),
        (lambda core: AssumptionConstants(l_hu_high=NAN), "^l_hu_high must be finite, not nan$"),
        (lambda core: ControllerSpec(core, NAN, -1.0, 1.0), "^epsilon must be finite, not nan$"),
        (lambda core: _eta_at(core, NAN), "positive"),
    ], ids=["delay_tau", "synthetic_g", "dead_zone_mu", "quadrotor_omega", "l_hu_low",
            "l_hu_high", "controller_epsilon", "eta_epsilon"])
    def test_nan_raises(self, synthetic_core, make, message):
        with pytest.raises(ValueError, match=message):
            make(synthetic_core)

    @pytest.mark.parametrize("u_min, u_max, message", [
        ([NAN], [1.0], r"^u_min must be finite, not \[nan\]$"),
        ([0.0], [NAN], r"^u_max must be finite, not \[nan\]$"),
    ], ids=["u_min", "u_max"])
    def test_nan_bound_raises(self, synthetic_core, u_min, u_max, message):
        with pytest.raises(ValueError, match=message):
            ControllerSpec(synthetic_core, 0.1, u_min, u_max)

    @pytest.mark.parametrize("value", [INF, -INF], ids=["inf", "-inf"])
    @pytest.mark.parametrize("make, name", [
        (lambda core, v: delayed_input_lti(v), "tau"),
        (lambda core, v: synthetic_lti(g=v), "g"),
        (lambda core, v: dead_zone(v), "mu"),
        (lambda core, v: QuadrotorConfig(omega=v), "omega"),
        (lambda core, v: AssumptionConstants(l_hu_low=v), "l_hu_low"),
        (lambda core, v: AssumptionConstants(l_hu_high=v), "l_hu_high"),
        (lambda core, v: ControllerSpec(core, v, -1.0, 1.0), "epsilon"),
        (lambda core, v: ControllerSpec(core, 0.1, v, 1.0), "u_min"),
        (lambda core, v: ControllerSpec(core, 0.1, 0.0, v), "u_max"),
    ], ids=["delay_tau", "synthetic_g", "dead_zone_mu", "quadrotor_omega", "l_hu_low",
            "l_hu_high", "controller_epsilon", "u_min", "u_max"])
    def test_infinite_raises(self, synthetic_core, make, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, not {value!r}$"):
            make(synthetic_core, value)


def _synthetic_core():
    plant = synthetic_lti()
    return build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])


class TestBoolParameters:
    """A bool is not a number (JSON true reads as 1), and f2_typo_fix is only a bool."""

    @pytest.mark.parametrize("make", [
        lambda: synthetic_lti(g=True),
        lambda: synthetic_lti(d_amp=True),
        lambda: synthetic_lti(d_freq=np.True_),
        lambda: dead_zone(True),
        lambda: delayed_input_lti(True),
        lambda: QuadrotorConfig(omega=True),
        lambda: SimConfig(dt=True, t_final=1.0, x0=[0.0, 0.0]),
        lambda: ControllerSpec(_synthetic_core(), 0.1, -1.0, True),
        lambda: synthetic_lti(S=[[True, False]]),
        lambda: QuadrotorConfig(J0=np.eye(3, dtype=bool)),
        lambda: AssumptionConstants(l_ht=True),
    ], ids=["synthetic_g", "synthetic_d_amp", "synthetic_d_freq", "dead_zone_mu", "delay_tau",
            "quadrotor_omega", "sim_dt", "controller_u_max", "synthetic_S", "quadrotor_J0",
            "constants_l_ht"])
    def test_bool_number_raises(self, make):
        with pytest.raises(ValueError, match="must be a number"):
            make()

    @pytest.mark.parametrize("flag", ["false", 1, 0.0, None])
    def test_f16_flag_must_be_bool(self, flag):
        with pytest.raises(ValueError, match="f2_typo_fix must be true or false"):
            f16_rollyaw(f2_typo_fix=flag)

    def test_integer_number_and_numpy_bool_flag_stay_valid(self):
        assert synthetic_lti(g=1).constants.l_hu_low == 1
        # the numpy flag swaps in delta_r like True: f2 differs from the printed form
        u, x = np.array([0.5, -1.0]), np.array([0.1, 0.2, 0.3, 0.4])
        flagged = f16_rollyaw(f2_typo_fix=np.True_).h(0.0, u, x)
        np.testing.assert_array_equal(flagged, f16_rollyaw(f2_typo_fix=True).h(0.0, u, x))
        assert flagged[1] != f16_rollyaw(f2_typo_fix=False).h(0.0, u, x)[1]


class TestPlantInterface:
    @pytest.mark.parametrize("A0, B", [
        (np.eye(2), np.array([1.0, 0.0])),  # B must be 2-D
        (np.eye(3), np.array([[0.0], [1.0]])),  # A0 must be n x n for n = len(B)
    ])
    def test_shapes_follow_B(self, A0, B):
        with pytest.raises(ValueError, match=r"^B must be n x m and A0 n x n$"):
            UncertainPlant("bad", A0, B, lambda t, u, x: u, lambda t, x: np.zeros(1))

    def test_determinism(self):
        p1, p2 = hsu_siso(), hsu_siso()
        u, x = np.array([0.7]), np.array([0.1, 0.2, 0.3])
        assert p1.h(1.0, u, x) == p2.h(1.0, u, x)
        assert p1.sigma(1.0, x) == p2.sigma(1.0, x)


_SYNTH = dict(g=1.5, S=np.array([[0.3, -0.7]]), d_amp=0.4, d_freq=2.0)


class TestRowContract:
    """h and sigma on N rows return (N, m), and row i is the one-sample call."""

    # each plant with the maps whose batched form is a matrix product
    @pytest.mark.parametrize("plant, matmul_maps", [
        pytest.param(hsu_siso(), (), id="siso"),
        pytest.param(f16_rollyaw(f2_typo_fix=False), (), id="f16_printed"),
        pytest.param(f16_rollyaw(f2_typo_fix=True), (), id="f16_fixed"),
        pytest.param(quadrotor_attitude(QuadrotorConfig(J_true=1.3 * np.diag([0.03, 0.03, 0.04]))),
                     ("sigma",), id="quadrotor_payload"),
        pytest.param(synthetic_lti(**_SYNTH), ("sigma",), id="synthetic"),
        pytest.param(dead_zone(0.5)(synthetic_lti(**_SYNTH)), ("sigma",), id="deadzone"),
        pytest.param(delayed_input_lti(0.05, **_SYNTH), ("sigma",), id="delay"),
    ])
    @settings(max_examples=25, deadline=None)
    @given(n_rows=st.integers(min_value=1, max_value=20),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_rows_match_one_sample_calls(self, plant, matmul_maps, n_rows, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 20.0, n_rows)
        u = rng.uniform(-6.0, 6.0, (n_rows, plant.m))
        x = rng.uniform(-3.0, 3.0, (n_rows, plant.n))
        for label, batched, single in (
            ("h", plant.h(t, u, x), [plant.h(t[i], u[i], x[i]) for i in range(n_rows)]),
            ("sigma", plant.sigma(t, x), [plant.sigma(t[i], x[i]) for i in range(n_rows)]),
        ):
            single = np.array(single)
            assert batched.shape == single.shape == (n_rows, plant.m)
            if label in matmul_maps:
                # a batched product may round differently: bound it by the largest entry
                scale = np.max(np.abs(single))
                assert np.max(np.abs(batched - single)) <= 1e-15 * scale
            else:
                np.testing.assert_array_equal(batched, single)
