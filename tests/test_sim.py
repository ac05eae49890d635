"""Closed-loop integrator, metrics, and CSV export."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from asdinv import cli, sim
from asdinv import (
    ConfigError,
    NonFiniteState,
    SimConfig,
    Trace,
    build_core,
    dead_zone,
    delayed_input_lti,
    energy_index,
    export_csv,
    make_controller,
    metrics,
    simulate,
    synthetic_lti,
)

from conftest import shipped, spec_for


def reference_simulate(plant, spec, cfg, with_decomposition=False):
    """Plain RK4 of the closed loop: every stage, and every recorded sample,
    evaluates the controller, PI from its textbook formulas and the observer
    from its quadruple (H s + D x, F s + Gx x + Gu u).

    Returns (Trace fields as a dict, blow-up time or None).
    """
    core, eps = spec.core, spec.epsilon
    n, m, dt = core.n, core.m, cfg.dt
    Ct, CtB, lam = core.C.T, core.CtB, core.lam_diag
    CtB_inv = np.linalg.inv(CtB)
    Kp = (1.0 / eps) * CtB_inv @ Ct
    Ki = (1.0 / eps) * CtB_inv @ np.diag(lam) @ Ct
    ctrl = make_controller(spec)
    q = m if spec.realization_kind == "pi_closed" else 2 * m
    nq, nqm = n + q, n + q + m
    hist = []  # u at every step point

    def output(t, s):
        x, c = s[:n], s[n:nq]
        if spec.realization_kind == "pi_closed":
            uu = -Kp @ x - c
        else:
            uu = ctrl.H @ c + ctrl.D @ x
        u = np.minimum(np.maximum(uu, spec.u_min), spec.u_max)
        return u, bool(np.any(u != uu))

    def deriv(t, s):
        x, c = s[:n], s[n:nq]
        u = output(t, s)[0]
        tq = t - plant.input_delay
        if plant.input_delay == 0:
            u_h = u
        elif tq <= 0.0:
            u_h = np.zeros(m)
        else:
            i = tq / dt
            i0 = min(int(i), len(hist) - 1)
            i1 = min(i0 + 1, len(hist) - 1)
            u_h = hist[i0] * (1 - (i - i0)) + hist[i1] * (i - i0)
        hv, sv = plant.h(t, u_h, x), plant.sigma(t, x)
        if spec.realization_kind == "pi_closed":
            dc = Ki @ x
        else:
            dc = ctrl.F @ c + ctrl.Gx @ x + ctrl.Gu @ u
        ds = [A0 @ x + B @ (hv + sv), dc, -lam * s[nq:nqm] + CtB @ u]
        if with_decomposition:
            ds.append(-lam * s[nqm:] + CtB @ (-u + hv - core.K.T @ x + sv))
        return np.concatenate(ds)

    A0, B = plant.A0, plant.B
    s = np.zeros(nqm + (m if with_decomposition else 0))
    s[:n] = cfg.x0
    if with_decomposition:
        s[nqm:] = Ct @ cfg.x0
    u0, sat0 = output(0.0, s)
    hist.append(u0)
    rows, us, sats, ts = [s.copy()], [u0], [sat0], [0.0]
    blowup_time = None
    for k in range(int(round(cfg.t_final / dt))):
        t = k * dt
        k1 = deriv(t, s)
        k2 = deriv(t + dt / 2, s + (dt / 2) * k1)
        k3 = deriv(t + dt / 2, s + (dt / 2) * k2)
        k4 = deriv(t + dt, s + dt * k3)
        s = s + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = (k + 1) * dt
        if not np.all(np.isfinite(s)) or np.max(np.abs(s)) > 1e12:
            blowup_time = t
            break
        u, sat = output(t, s)
        hist.append(u)
        if (k + 1) % cfg.record_stride == 0:
            rows.append(s.copy())
            us.append(u)
            sats.append(sat)
            ts.append(t)
    S = np.array(rows)
    X = S[:, :n]
    fields = dict(t=np.array(ts), x=X, u=np.array(us), y=X @ core.C, d_hat=X @ core.C - S[:, nq:nqm],
                  sat=np.array(sats, dtype=bool), y_p=S[:, nq:nqm],
                  y_s=S[:, nqm:] if with_decomposition else None)
    return fields, blowup_time


def delay_case(tau):
    plant = delayed_input_lti(tau, g=1.0, S=np.array([[0.05, 0.05]]), d_amp=0.1, d_freq=1.0)
    core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
    cfg = SimConfig(dt=1e-3, t_final=0.5, x0=np.array([1.0, 0.0]), record_stride=3)
    return plant, spec_for(core, 0.02, -2.0, 2.0), cfg


ORACLE_CASES = {name: (lambda name=name: shipped(name, "sim.t_final=0.5")) for name in cli.BUNDLED}
ORACLE_CASES["delay_tau_half_dt"] = lambda: delay_case(5e-4)
ORACLE_CASES["delay_tau_0.05"] = lambda: delay_case(0.05)
# the delay ring's edge: tau an exact multiple of dt (20 * 1e-3 == 0.02), one ulp
# either side of it, and a non-integer multiple above 10 steps
ORACLE_CASES["delay_tau_20dt"] = lambda: delay_case(0.02)
ORACLE_CASES["delay_tau_20dt_minus_ulp"] = lambda: delay_case(np.nextafter(0.02, 0.0))
ORACLE_CASES["delay_tau_20dt_plus_ulp"] = lambda: delay_case(np.nextafter(0.02, 1.0))
ORACLE_CASES["delay_tau_12.3dt"] = lambda: delay_case(0.0123)


def stride_case(extra):
    """siso (saturated at t = 0) recording every nsteps + extra steps."""
    plant, spec, cfg = shipped("siso", "sim.t_final=0.5")
    return plant, spec, dataclasses.replace(cfg, record_stride=round(cfg.t_final / cfg.dt) + extra)


# the loop's first and last passes: rows at t = 0 and t_final, then the t = 0 row only
ORACLE_CASES["siso_stride_nsteps"] = lambda: stride_case(0)
ORACLE_CASES["siso_stride_nsteps_plus_1"] = lambda: stride_case(1)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0, t_final=1.0, x0=np.zeros(2))
        with pytest.raises(ValueError):
            SimConfig(dt=2.0, t_final=1.0, x0=np.zeros(2))
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, t_final=1.0, x0=np.zeros(2), record_stride=0)

    def test_times_stored_as_float(self):
        # a JSON integer such as --set sim.t_final=3 is recorded as 3.0
        cfg = SimConfig(dt=1, t_final=3, x0=[0.0])
        assert type(cfg.dt) is float and type(cfg.t_final) is float
        assert (cfg.dt, cfg.t_final) == (1.0, 3.0)

    @pytest.mark.parametrize("x0", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
    def test_non_finite_x0_rejected(self, x0):
        with pytest.raises(ValueError, match="x0 must be finite"):
            SimConfig(dt=1e-3, t_final=0.1, x0=x0)

    def test_record_size_limit(self):
        # round(t_final/dt) // record_stride + 1 rows, at most 10**7
        SimConfig(dt=1e-3, t_final=1e4 - 1e-3, x0=np.zeros(2))
        SimConfig(dt=1e-3, t_final=2e4, x0=np.zeros(2), record_stride=3)
        for t_final, dt, stride in ((1e4, 1e-3, 1), (2e4, 1e-3, 2), (0.1, 1e-300, 1), (1e300, 1e-300, 1)):
            with pytest.raises(ValueError, match="recorded samples"):
                SimConfig(dt=dt, t_final=t_final, x0=np.zeros(2), record_stride=stride)


    @pytest.mark.parametrize("dt, t_final", [(0.3, 1.0), (0.6, 1.0), (1e-3, 1.0005), (0.25, 1.0 + 1e-6)])
    def test_t_final_off_the_step_grid_rejected(self, dt, t_final):
        # simulate runs round(t_final/dt) steps, so these would end at the wrong time
        with pytest.raises(ValueError, match="is not a whole number of dt"):
            SimConfig(dt=dt, t_final=t_final, x0=np.zeros(2))

    @pytest.mark.parametrize("dt, t_final", [(1e-3, 3.0), (1e-3, 0.2), (0.1, 0.3), (5e-3, 40.0)])
    def test_t_final_on_the_step_grid_up_to_round_off_accepted(self, dt, t_final):
        # 3.0 / 1e-3 = 2999.9999999999995 and 0.2 / 1e-3 = 200.00000000000003: round-off only
        SimConfig(dt=dt, t_final=t_final, x0=np.zeros(2))


class TestBlowupCheck:
    """sim._bounded against the exact test max|s| <= 1e12."""

    @pytest.mark.parametrize("s", [
        np.zeros(5),
        np.array([0.0, 1e12, -3.0]),
        np.array([-1e12, 1.0]),
        np.array([1.0, np.nextafter(1e12, np.inf)]),
        np.full(21, 0.999e12),  # s.s far above 1e24, yet not blown up
        np.array([1.0, np.nan]),
        np.array([np.inf, 0.0]),
        np.array([0.0, -np.inf]),
        np.array([1.0, 1e200]),  # s.s overflows
    ])
    def test_matches_exact_test(self, s):
        with np.errstate(over="ignore"):
            got = sim._bounded(s)
        assert got == (np.abs(s).max() <= 1e12)


class TestSimulate:
    def test_zero_initial_state_stays_zero(self, synthetic_core):
        # no exogenous disturbance and x0 = 0: the loop is at equilibrium
        plant = synthetic_lti(g=1.0, d_amp=0.0)
        cfg = SimConfig(dt=1e-3, t_final=1.0, x0=np.zeros(2))
        plain_core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
        tr = simulate(plant, spec_for(plain_core, 0.1, -10, 10), cfg)
        assert np.max(np.abs(tr.x)) < 1e-14
        assert np.max(np.abs(tr.u)) < 1e-14

    def test_grid_and_stride(self, siso_trace):
        t = siso_trace.t
        assert t[0] == 0.0
        np.testing.assert_allclose(np.diff(t), 1e-2, atol=1e-12)
        assert len(siso_trace) == 2001

    def test_shapes(self, siso_trace):
        N = len(siso_trace)
        assert siso_trace.x.shape == (N, 3)
        assert siso_trace.u.shape == (N, 1)
        assert siso_trace.y.shape == (N, 1)
        assert siso_trace.d_hat.shape == (N, 1)
        assert siso_trace.sat.shape == (N,)
        assert siso_trace.sat.dtype == bool

    def test_output_column_consistency(self, siso_trace, siso_core):
        np.testing.assert_allclose(siso_trace.y, siso_trace.x @ siso_core.C, atol=1e-12)

    def test_saturation_respected(self, siso_trace):
        assert np.max(np.abs(siso_trace.u)) <= 5.0 + 1e-12
        assert np.any(siso_trace.sat)  # the siso scenario does saturate early

    def test_determinism_bit_identical(self, synthetic_plant, synthetic_core):
        cfg = SimConfig(dt=1e-3, t_final=1.0, x0=np.array([1.0, 0.0]))
        a = simulate(synthetic_plant, spec_for(synthetic_core, 0.01, -100, 100), cfg)
        b = simulate(synthetic_plant, spec_for(synthetic_core, 0.01, -100, 100), cfg)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)

    def test_step_halving_convergence(self, synthetic_plant, synthetic_core):
        # smooth unsaturated loop: halving dt changes the final state well
        # below the acceptance comparison tolerance
        spec = spec_for(synthetic_core, 0.05, -1000, 1000)
        x0 = np.array([1.0, 0.0])
        f = {}
        for dt in (1e-3, 5e-4):
            cfg = SimConfig(dt=dt, t_final=2.0, x0=x0, record_stride=int(1e-3 / dt * 100))
            f[dt] = simulate(synthetic_plant, spec, cfg).x[-1]
        assert np.max(np.abs(f[1e-3] - f[5e-4])) < 1e-6

    @pytest.mark.parametrize("plant, dts, band", [
        (synthetic_lti(g=1.0, S=np.array([[0.05, 0.05]]), d_amp=0.1, d_freq=1.0),
         (8e-3, 4e-3, 2e-3), (12.0, 20.0)),
        # tau is a multiple of each dt; one RK4 step spans the jump of
        # u(t - tau) at t = tau, so the delayed loop is first order (ratio 3)
        (delayed_input_lti(0.05, g=1, S=[[0.05, 0.05]], d_amp=0.1, d_freq=1),
         (2e-3, 1e-3, 5e-4), (2.7, 3.3)),
    ], ids=["synthetic", "delay"])
    def test_rk4_order(self, plant, dts, band):
        # global error ratio between dt and dt/2 against dt/4: near 2^4 = 16 at fourth order
        core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
        spec = spec_for(core, 0.05, -1000, 1000)
        x0 = np.array([1.0, 0.0])
        finals = {}
        for dt in dts:
            cfg = SimConfig(dt=dt, t_final=2.0, x0=x0, record_stride=int(2.0 / dt))
            finals[dt] = simulate(plant, spec, cfg).x[-1]
        e_coarse = np.linalg.norm(finals[dts[0]] - finals[dts[2]])
        e_fine = np.linalg.norm(finals[dts[1]] - finals[dts[2]])
        ratio = e_coarse / e_fine
        assert band[0] <= ratio <= band[1]

    @pytest.mark.parametrize("wrap, band", [
        # u crosses |u| = 0.1 about 100 times in 5 s, and each RK4 step across the
        # kink of h makes an O(dt) local error; the step-to-step ratios of
        # test_rk4_order swing between 1.5 and 10 here, a fitted slope does not
        (dead_zone(0.1), (1.0, 2.5)),
        # the same loop without the dead zone, as a check that the fit sees fourth order
        (lambda plant: plant, (3.0, 5.0)),
    ], ids=["deadzone", "synthetic"])
    def test_error_slope(self, wrap, band):
        # slope of log ||x_dt(2) - x_ref(2)|| against log dt, reference 4x finer than the finest dt
        plant = wrap(synthetic_lti(g=1.0, S=np.array([[0.05, 0.05]]), d_amp=0.1, d_freq=1.0))
        core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
        spec = spec_for(core, 0.05, -1000, 1000)

        def final(dt):
            cfg = SimConfig(dt=dt, t_final=2.0, x0=np.array([1.0, 0.0]), record_stride=round(2.0 / dt))
            return simulate(plant, spec, cfg).x[-1]

        dts = np.array([8e-3, 4e-3, 2e-3, 1e-3, 5e-4])
        ref = final(dts[-1] / 4)
        errors = [np.linalg.norm(final(dt) - ref) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert band[0] <= slope <= band[1]

    def test_decomposition_identity(self, siso_trace):
        y = siso_trace.y
        err = np.max(np.abs(siso_trace.y_p + siso_trace.y_s - y))
        assert err <= 1e-6 * np.max(np.abs(y))

    def test_disturbance_estimate_tracks(self, synthetic_trace, synthetic_core, synthetic_plant):
        # with a small filter constant the estimate converges to the true
        # lumped disturbance signal y_s (the secondary output)
        tail = slice(len(synthetic_trace) // 2, None)
        err = np.max(np.abs(synthetic_trace.d_hat[tail] - synthetic_trace.y_s[tail]))
        scale = max(np.max(np.abs(synthetic_trace.y_s[tail])), 1e-9)
        assert err < 0.05 * scale

    def test_divergence_raises_with_truncated_trace(self):
        # the filter constant puts a closed-loop mode near -1/epsilon =
        # -5000; with dt = 1e-3 that is far outside the RK4 stability
        # interval and the integrator blows up
        plant = synthetic_lti(g=1.0, d_amp=0.0)
        core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
        spec = spec_for(core, 2e-4, -1e15, 1e15)
        cfg = SimConfig(dt=1e-3, t_final=1.0, x0=np.array([1.0, 0.0]))
        with pytest.warns(UserWarning, match="RK4 may be unstable"), pytest.raises(NonFiniteState) as exc:
            simulate(plant, spec, cfg)
        assert exc.value.blowup_time is not None
        assert exc.value.trace is not None
        assert len(exc.value.trace) >= 1

    def test_dimension_mismatch_rejected(self, siso_core):
        plant = synthetic_lti()
        cfg = SimConfig(dt=1e-3, t_final=0.1, x0=np.zeros(2))
        with pytest.raises(ValueError):
            simulate(plant, spec_for(siso_core, 0.1, -5, 5), cfg)

    def test_x0_of_another_length_rejected(self, siso_plant, siso_core):
        cfg = SimConfig(dt=1e-3, t_final=0.1, x0=np.zeros(2))
        with pytest.raises(ValueError, match=r"^x0 must have length 3$"):
            simulate(siso_plant, spec_for(siso_core, 0.1, -5, 5), cfg)

    def test_delayed_input_uses_past_u(self):
        tau = 0.05
        plant = delayed_input_lti(tau, g=1.0, d_amp=0.0)
        core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
        cfg = SimConfig(dt=1e-3, t_final=0.04, x0=np.array([1.0, 0.0]))
        tr = simulate(plant, spec_for(core, 0.2, -100, 100), cfg)
        # before t = tau the plant sees u = 0, so x evolves like the
        # uncontrolled A0 x: x1(t) = 1, x2(t) = 0
        np.testing.assert_allclose(tr.x[-1], [1.0, 0.0], atol=1e-9)


class TestOracle:
    """The integrator against the plain reference above, bit for bit."""

    @pytest.mark.parametrize("decomposition", [False, True])
    @pytest.mark.parametrize("kind", ["pi_closed", "observer"])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_bit_identical(self, case, kind, decomposition):
        plant, spec, cfg = ORACLE_CASES[case]()
        spec = dataclasses.replace(spec, realization_kind=kind)
        want, blowup_time = reference_simulate(plant, spec, cfg, decomposition)
        assert blowup_time is None
        tr = simulate(plant, spec, cfg, with_decomposition=decomposition)
        for name, ref in want.items():
            got = getattr(tr, name)
            assert (got is None) if ref is None else np.array_equal(got, ref), name

    def test_divergence_bit_identical(self):
        plant = synthetic_lti(g=1.0, d_amp=0.0)
        core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
        spec = spec_for(core, 2e-4, -1e15, 1e15)
        cfg = SimConfig(dt=1e-3, t_final=1.0, x0=np.array([1.0, 0.0]), record_stride=7)
        want, blowup_time = reference_simulate(plant, spec, cfg)
        with pytest.warns(UserWarning, match="RK4 may be unstable"), pytest.raises(NonFiniteState) as exc:
            simulate(plant, spec, cfg)
        assert blowup_time is not None
        assert exc.value.blowup_time == blowup_time
        for name, ref in want.items():
            got = getattr(exc.value.trace, name)
            assert (got is None) if ref is None else np.array_equal(got, ref), name


def counting(plant, counts):
    """The plant with call counters on h and sigma."""

    def h(t, u, x):
        counts["h"] += 1
        return plant.h(t, u, x)

    def sigma(t, x):
        counts["sigma"] += 1
        return plant.sigma(t, x)

    return dataclasses.replace(plant, h=h, sigma=sigma)


class TestCallCounts:
    """h, sigma and the controller derivative run exactly four times per RK4 step."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = dict(h=0, sigma=0, unsat_output=0, derivative=0)
        make_controller = sim.make_controller

        def counted_controller(spec):
            ctrl = make_controller(spec)
            for name in ("unsat_output", "derivative"):
                def method(*args, _fn=getattr(ctrl, name), _name=name):
                    counts[_name] += 1
                    return _fn(*args)
                setattr(ctrl, name, method)
            return ctrl

        monkeypatch.setattr(sim, "make_controller", counted_controller)
        return counts

    def check(self, counts, steps):
        assert counts["h"] == counts["sigma"] == counts["derivative"] == 4 * steps
        assert 4 * steps <= counts["unsat_output"] <= 4 * steps + 1

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("case", ["siso", "delay_tau_half_dt"])
    def test_normal_run(self, counts, case, stride):
        plant, spec, cfg = ORACLE_CASES[case]()
        cfg = dataclasses.replace(cfg, record_stride=stride)
        simulate(counting(plant, counts), dataclasses.replace(spec, realization_kind="observer"),
                 cfg, with_decomposition=True)
        self.check(counts, round(cfg.t_final / cfg.dt))

    def test_diverging_run(self, counts):
        plant = synthetic_lti(g=1.0, d_amp=0.0)
        core = build_core(plant.A0, plant.B, [-0.5, -1.0], [-1.0])
        cfg = SimConfig(dt=1e-3, t_final=1.0, x0=np.array([1.0, 0.0]))
        with pytest.warns(UserWarning, match="RK4 may be unstable"), pytest.raises(NonFiniteState) as exc:
            simulate(counting(plant, counts), spec_for(core, 2e-4, -1e15, 1e15), cfg)
        self.check(counts, round(exc.value.blowup_time / cfg.dt))


class TestStiffnessGuard:
    """simulate warns when dt times the spectral radius of the nominal loop reaches 2.5."""

    def test_filter_pole_warns(self):
        # the filter pole near -1/epsilon = -5000 gives dt * rho = 5 at dt = 1e-3
        plant, spec, cfg = shipped("synthetic", "sim.t_final=0.002")
        spec = dataclasses.replace(spec, epsilon=2e-4)
        assert cfg.dt == 1e-3
        with pytest.warns(UserWarning, match="RK4 may be unstable"):
            simulate(plant, spec, cfg)

    @pytest.mark.parametrize("name", cli.BUNDLED)
    def test_bundled_scenarios_do_not_warn(self, name):
        plant, spec, cfg = shipped(name, "sim.t_final=0.01")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(plant, spec, cfg)

    @pytest.mark.parametrize("kind", ["pi_closed", "observer"])
    def test_guard_reads_the_running_controller(self, realization_calls, kind):
        # each run builds the controller it runs from its spec's quadruple; the guard reads
        # the spec's closed realization, which the first run closes once
        plant, spec, cfg = shipped("siso", "sim.t_final=0.01")
        run_spec = dataclasses.replace(spec, realization_kind=kind)
        simulate(plant, run_spec, cfg)
        simulate(plant, run_spec, cfg)
        assert len(realization_calls) == 3
        assert all(k == kind and s is run_spec for k, s in realization_calls)

    def test_gains_near_the_float_limit_warn_and_do_not_raise(self):
        # every epsilon that ControllerSpec accepts down to its overflow refusal, on
        # every bundled scenario, both realizations, with and without y_s: where the
        # guard's block overflows (B @ D, in 46 runs on each quadrotor) rho is inf,
        # and each two-step run returns or diverges, with no numpy error escaping
        runs, inf_warnings = 0, 0
        for name in cli.BUNDLED:
            plant, spec, cfg = shipped(name)
            cfg = dataclasses.replace(cfg, t_final=2 * cfg.dt)
            for epsilon in np.logspace(-305, -310, 51):
                for kind in ("pi_closed", "observer"):
                    try:
                        run_spec = dataclasses.replace(spec, epsilon=epsilon, realization_kind=kind)
                    except ValueError:  # the gains overflow
                        continue
                    for decomposed in (False, True):
                        runs += 1
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always")
                            try:
                                simulate(plant, run_spec, cfg, decomposed)
                            except NonFiniteState:
                                pass
                        inf_warnings += any("dt*rho(nominal loop) = inf" in str(w.message) for w in caught)
        assert (runs, inf_warnings) == (772, 92)


class TestNonFiniteGuard:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_raises_at_first_step_after_bad_sigma(self, synthetic_plant, synthetic_core, bad):
        base = synthetic_plant.sigma

        def sigma(t, x):
            return base(t, x) if t <= 0.1 else np.full(1, bad)

        plant = dataclasses.replace(synthetic_plant, sigma=sigma)
        cfg = SimConfig(dt=1e-3, t_final=0.5, x0=np.array([1.0, 0.0]))
        with pytest.raises(NonFiniteState) as exc:
            simulate(plant, spec_for(synthetic_core, 0.05, -1000, 1000), cfg)
        # the step from t = 0.1 is the first with a stage after 0.1 s
        assert exc.value.blowup_time == 101 * cfg.dt
        tr = exc.value.trace
        assert len(tr) == 101 and tr.t[-1] == 0.1
        assert np.all(np.isfinite(tr.x)) and np.all(np.isfinite(tr.u))


class TestMetrics:
    def test_energy_for_sampled_sine(self):
        # total variation of sin over one period is 4
        t = np.linspace(0.0, 2 * np.pi, 20001)
        u = np.sin(t)[:, None]
        tr = Trace(t=t, x=np.zeros((len(t), 1)), u=u, y=u, d_hat=u,
                   sat=np.zeros(len(t), dtype=bool))
        E = energy_index(tr)
        assert abs(E[-1] - 4.0) < 1e-3
        assert np.all(np.diff(E) >= 0)

    def test_energy_monotone_on_real_trace(self, siso_trace):
        E = energy_index(siso_trace)
        assert np.all(np.diff(E) >= 0)
        assert E[0] == 0.0

    def test_energy_needs_two_samples(self):
        z = np.zeros((1, 1))
        tr = Trace(t=np.zeros(1), x=z, u=z, y=z, d_hat=z,
                   sat=np.zeros(1, dtype=bool))
        with pytest.raises(ValueError, match=r"^energy index needs at least two samples$"):
            energy_index(tr)

    def test_metrics_need_a_sample(self):
        z = np.zeros((0, 1))
        tr = Trace(t=np.zeros(0), x=z, u=z, y=z, d_hat=z, sat=np.zeros(0, dtype=bool))
        with pytest.raises(ValueError, match=r"^empty trace$"):
            metrics(tr)

    def test_metrics_fields(self, siso_trace):
        m = metrics(siso_trace)
        assert m.sup_tail < 1e-2
        assert m.max_abs_u[0] <= 5.0 + 1e-12
        assert 0.0 < m.sat_fraction < 1.0
        assert m.time_to_threshold is not None
        assert m.energy > 0

    def test_time_to_threshold_none_when_never_settles(self):
        t = np.linspace(0, 1, 11)
        x = np.ones((11, 1))
        u = np.zeros((11, 1))
        tr = Trace(t=t, x=x, u=u, y=u, d_hat=u, sat=np.zeros(11, dtype=bool))
        assert metrics(tr).time_to_threshold is None


class TestCsv:
    def test_schema_and_roundtrip(self, siso_trace, tmp_path):
        path = tmp_path / "trace.csv"
        export_csv(siso_trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,u1,y1,dhat1,sat"
        assert len(lines) == len(siso_trace) + 1
        data = np.genfromtxt(path, delimiter=",", names=True)
        np.testing.assert_allclose(data["t"], siso_trace.t, atol=0)
        np.testing.assert_allclose(data["x2"], siso_trace.x[:, 1], atol=0)
        np.testing.assert_allclose(data["u1"], siso_trace.u[:, 0], atol=0)
        np.testing.assert_allclose(data["sat"], siso_trace.sat.astype(float), atol=0)

    def test_bytes_match_per_row_formatter(self, siso_trace, tmp_path):
        path = tmp_path / "trace.csv"
        export_csv(siso_trace, path)
        tr = siso_trace
        lines = ["t,x1,x2,x3,u1,y1,dhat1,sat\n"]
        for k in range(len(tr)):
            row = [tr.t[k]] + list(tr.x[k]) + list(tr.u[k]) + list(tr.y[k]) + list(tr.d_hat[k])
            lines.append(",".join(repr(float(v)) for v in row) + f",{int(tr.sat[k])}\n")
        assert path.read_bytes() == "".join(lines).encode()


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_delay_history_does_not_grow_with_horizon(self):
        plant, spec, cfg = delay_case(0.05)
        runs = [dataclasses.replace(cfg, t_final=t_final, record_stride=1000) for t_final in (2.0, 20.0)]
        simulate(plant, spec, cfg)  # first-call allocations stay out of the peaks
        short, long = (traced_peak(simulate, plant, spec, run) for run in runs)
        assert abs(long - short) < 64 * 1024

    def test_record_byte_budget(self):
        # quadrotor observer with y_s: dim = 9 + 6 + 3 + 3, so (21 + 3) * 8 + 1 = 193 bytes
        # a row; 9e6 + 1 rows (under SimConfig's 10**7 cap) take 1 737 000 193 > 2**30 bytes
        plant, spec, cfg = shipped("quadrotor")
        spec = dataclasses.replace(spec, realization_kind="observer")
        cfg = dataclasses.replace(cfg, dt=1e-3, t_final=9000.0, record_stride=1)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as exc:
                simulate(plant, spec, cfg, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == ("bad 'sim' section: 9000001 recorded samples take 1737000193 bytes, "
                                  "over the 1073741824-byte budget; raise record_stride or shorten t_final")
        assert peak < 2**20  # refused before the recording arrays exist

    def test_export_csv_streams_rows(self, tmp_path):
        rows, n, m = 20_000, 9, 3  # 1 + n + 3m = 19 columns, as the quadrotor's trace
        rng = np.random.default_rng(0)
        tr = Trace(t=np.arange(rows) * 1e-3, x=rng.standard_normal((rows, n)),
                   u=rng.standard_normal((rows, m)), y=rng.standard_normal((rows, m)),
                   d_hat=rng.standard_normal((rows, m)), sat=rng.random(rows) < 0.5)
        assert traced_peak(export_csv, tr, tmp_path / "trace.csv") <= 1.5 * rows * 19 * 8


class TestEntryTime:
    t = np.array([0.5, 0.6, 0.7, 0.8, 0.9, 1.0])

    def test_all_inside_gives_first_time(self):
        assert sim.entry_time(self.t, np.ones(6, dtype=bool)) == 0.5

    def test_last_sample_outside_gives_none(self):
        assert sim.entry_time(self.t, np.array([True] * 5 + [False])) is None

    def test_leave_and_reenter_gives_last_entry(self):
        inside = np.array([True, True, False, False, True, True])
        assert sim.entry_time(self.t, inside) == 0.9
