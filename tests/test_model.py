import dataclasses
import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from duffing_qubit import (
    PhysicalParams,
    ScaledParams,
    bath_j,
    physical_from_scaled,
    planck,
    scale_params,
)


# the largest float whose expm1 is finite; past it there are no thermal quanta
EXPM1_EDGE = 709.782712893384


def squid_scale_params(f_0=2.0e-7):
    """SQUID-flavored reference set: GHz oscillator, drive 2% below resonance."""
    omega_0 = 2 * math.pi * 1.8e9
    m = 3.0e-13
    return PhysicalParams(
        m=m,
        omega_0=omega_0,
        omega_f=0.98 * omega_0,
        gamma_s=m * omega_0**2 / 24.0,
        f_0=f_0,
        kappa=0.3 * 0.02 * omega_0,
        temperature=0.04,
        omega_c=20.0 * omega_0,
    )


class TestPlanck:
    def test_zero_temperature(self):
        assert planck(1e9, 0.0) == 0.0

    def test_occupation_one_at_log_two(self):
        # hbar*omega/kB*T = ln 2  ->  n = 1/(2 - 1) = 1
        omega = 1e9
        temperature = hbar * omega / (k_B * math.log(2.0))
        assert math.isclose(planck(omega, temperature), 1.0, rel_tol=1e-12)

    def test_classical_limit(self):
        # n approaches kB*T/(hbar*omega) within 1% once hbar*omega/kB*T <= 0.02
        omega = 1e8
        temperature = hbar * omega / (k_B * 0.02)
        n = planck(omega, temperature)
        assert abs(n / (k_B * temperature / (hbar * omega)) - 1.0) < 0.01

    def test_monotonic_in_omega_and_temperature(self):
        omegas = np.linspace(1e8, 1e10, 30)
        values = [planck(w, 0.05) for w in omegas]
        assert all(a > b for a, b in zip(values, values[1:]))
        temps = np.linspace(0.01, 1.0, 30)
        values = [planck(1e9, t) for t in temps]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("omega", [0.0, -1e9])
    def test_rejects_nonpositive_frequency(self, omega):
        with pytest.raises(ValueError):
            planck(omega, 0.1)


class TestScaleParams:
    def test_no_drive_means_zero_intensity(self):
        s = scale_params(squid_scale_params(f_0=0.0))
        assert s.beta == 0.0

    def test_beta_quadratic_in_drive(self):
        s1 = scale_params(squid_scale_params(f_0=1.0e-7))
        s2 = scale_params(squid_scale_params(f_0=2.0e-7))
        assert s2.beta == 4.0 * s1.beta

    def test_against_extended_precision(self):
        p = squid_scale_params()
        s = scale_params(p)
        with mpmath.workdps(50):
            mpf = mpmath.mpf
            d = abs(mpf(p.omega_f) - mpf(p.omega_0))
            beta = 3 * mpf(p.gamma_s) * mpf(p.f_0) ** 2 / (
                2 * (mpf(p.m) * mpf(p.omega_f) * d) ** 3
            )
            lam = 3 * mpf(hbar) * mpf(p.gamma_s) / (
                2 * mpf(p.m) ** 2 * mpf(p.omega_f) ** 2 * d
            )
            c_res = mpmath.sqrt(2 * mpf(p.m) * mpf(p.omega_f) * d / (3 * mpf(p.gamma_s)))
            assert abs(s.beta / float(beta) - 1.0) < 1e-13
            assert abs(s.lambda_s / float(lam) - 1.0) < 1e-13
            assert abs(s.c_res / float(c_res) - 1.0) < 1e-13
        assert math.isclose(s.kappa_scaled, p.kappa / p.detuning, rel_tol=1e-15)
        assert math.isclose(s.n_bar, planck(p.omega_f, p.temperature), rel_tol=1e-15)

    def test_rescaling_invariance(self):
        # m -> a*m, gamma_s -> a^2*gamma_s, f_0 -> sqrt(a)*f_0 leaves both
        # beta and lambda_s unchanged at fixed frequencies
        p = squid_scale_params()
        s = scale_params(p)
        for alpha in (2.0, 7.5, 0.3):
            q = PhysicalParams(
                m=alpha * p.m,
                omega_0=p.omega_0,
                omega_f=p.omega_f,
                gamma_s=alpha**2 * p.gamma_s,
                f_0=math.sqrt(alpha) * p.f_0,
                kappa=p.kappa,
                temperature=p.temperature,
                omega_c=p.omega_c,
            )
            t = scale_params(q)
            assert math.isclose(t.beta, s.beta, rel_tol=1e-12)
            assert math.isclose(t.lambda_s, s.lambda_s, rel_tol=1e-12)

    def test_round_trip_from_scaled(self):
        p = physical_from_scaled(0.14, 0.25, 3e-3, 0.8, detuning=2e7)
        s = scale_params(p)
        assert math.isclose(s.beta, 0.14, rel_tol=1e-12)
        assert math.isclose(s.kappa_scaled, 0.25, rel_tol=1e-12)
        assert math.isclose(s.lambda_s, 3e-3, rel_tol=1e-12)
        assert math.isclose(s.n_bar, 0.8, rel_tol=1e-12)
        assert math.isclose(s.scale, 2e7, rel_tol=1e-12)


class TestScaledParamsDomain:
    """ScaledParams takes the domain rules of ``model``: beta and n_bar finite
    and non-negative, every other field finite and positive."""

    VALID = dict(beta=0.12, kappa_scaled=0.3, lambda_s=1e-3, n_bar=0.5, scale=1.0, c_res=1.0)
    OUT_OF_RANGE = dict(beta=-1e-300, kappa_scaled=0.0, lambda_s=-1.0, n_bar=-0.5,
                        scale=0.0, c_res=-2.0)

    def test_valid_and_edge_values_are_accepted(self):
        assert ScaledParams(**self.VALID).fluctuation_area == 1e-3 * 2.0
        ScaledParams(**{**self.VALID, "beta": 0.0, "n_bar": 0.0})

    @pytest.mark.parametrize("name", sorted(VALID))
    @pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "out of range"])
    def test_each_field_refuses_a_bad_value(self, name, kind):
        value = self.OUT_OF_RANGE[name] if kind == "out of range" else float(kind)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ScaledParams(**{**self.VALID, name: value})


class TestPhysicalParamsValidation:
    def test_rejects_drive_above_resonance(self):
        p = squid_scale_params()
        with pytest.raises(ValueError):
            PhysicalParams(
                m=p.m, omega_0=p.omega_0, omega_f=1.02 * p.omega_0,
                gamma_s=p.gamma_s, f_0=p.f_0, kappa=p.kappa,
                temperature=p.temperature, omega_c=p.omega_c,
            )

    @pytest.mark.parametrize("field", ["m", "gamma_s", "omega_f", "kappa"])
    def test_rejects_nonpositive(self, field):
        p = squid_scale_params()
        values = dict(
            m=p.m, omega_0=p.omega_0, omega_f=p.omega_f, gamma_s=p.gamma_s,
            f_0=p.f_0, kappa=p.kappa, temperature=p.temperature, omega_c=p.omega_c,
        )
        values[field] = 0.0
        with pytest.raises(ValueError):
            PhysicalParams(**values)

    def test_rejects_low_cutoff(self):
        p = squid_scale_params()
        with pytest.raises(ValueError):
            PhysicalParams(
                m=p.m, omega_0=p.omega_0, omega_f=p.omega_f, gamma_s=p.gamma_s,
                f_0=p.f_0, kappa=p.kappa, temperature=p.temperature,
                omega_c=0.5 * p.omega_0,
            )


def ohmic_params():
    """An oscillator whose Ohmic bath has kappa = 1e7 rad/s, m = 1e-12 kg and
    its cutoff at 2e10 rad/s."""
    return dataclasses.replace(squid_scale_params(), m=1e-12, kappa=1e7, omega_c=2e10)


class TestBath:
    def test_ohmic_values(self):
        p = ohmic_params()
        assert bath_j(p, -1.0) == 0.0
        assert bath_j(p, 2e10) == 0.0
        assert bath_j(p, 2e10 * (1 + 1e-12)) == 0.0
        half = bath_j(p, 0.5e10)
        assert type(half) is float
        assert math.isclose(half, hbar * 1e-12 * 1e7 * 1e10, rel_tol=1e-15)

    def test_ohmic_nonnegative_and_zero_outside(self):
        p = ohmic_params()
        grid = np.linspace(-2e10, 3e10, 501)
        j = bath_j(p, grid)
        assert j.shape == grid.shape
        assert np.all(j >= 0.0)
        assert np.all(j[(grid <= 0) | (grid >= 2e10)] == 0.0)
        inside = (grid > 0) & (grid < 2e10)
        np.testing.assert_allclose(j[inside], 2.0 * hbar * p.m * p.kappa * grid[inside],
                                   rtol=1e-15)


class TestConstants:
    def test_literals_equal_scipy_constants(self):
        import scipy.constants

        from duffing_qubit import model
        assert model.hbar == scipy.constants.hbar
        assert model.k_B == scipy.constants.k

    def test_package_does_not_import_scipy(self):
        import subprocess
        import sys
        code = ("import sys, duffing_qubit.cli; "
                "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def omega_at(x: float, temperature: float) -> float:
    """An omega at which planck's argument hbar omega / kB T is exactly ``x``."""
    from duffing_qubit import model

    omega = x * model.k_B * temperature / model.hbar
    for _ in range(100):
        got = model.hbar * omega / (model.k_B * temperature)
        if got == x:
            return omega
        omega = math.nextafter(omega, math.inf if got < x else -math.inf)
    raise AssertionError(f"no omega gives x = {x!r}")


class TestPlanckArrays:
    def test_array_equals_scalar_calls(self):
        omega = np.geomspace(1e7, 1e13, 61)
        swept = planck(omega, 0.05)
        assert swept.shape == omega.shape
        assert swept.tolist() == [planck(w, 0.05) for w in omega.tolist()]
        assert type(planck(1e9, 0.05)) is float

    def test_no_overflow_at_low_temperature(self):
        assert planck(1e10, 1e-9) == 0.0
        assert planck(np.array([1e10, 1e12]), 1e-9).tolist() == [0.0, 0.0]

    def test_each_value_is_the_reciprocal_of_math_expm1(self):
        # at the neighbours of the largest x = hbar omega / kB T whose expm1
        # is finite (0.0 past it), at subnormal x and on a sweep, a sweep and
        # one call per point give the bits of 1.0 / np.expm1(x), with the
        # ufunc called on each x alone
        from duffing_qubit import model

        def reference(omega, temperature):
            with np.errstate(over="ignore"):
                return 1.0 / float(np.expm1(model.hbar * omega / (model.k_B * temperature)))

        edge = EXPM1_EDGE
        with np.errstate(over="ignore"):
            assert math.isfinite(np.expm1(edge))
            assert np.expm1(math.nextafter(edge, math.inf)) == math.inf
        near = [edge]
        for toward in (0.0, math.inf):
            near += [math.nextafter(edge, toward), math.nextafter(math.nextafter(edge, toward),
                                                                toward)]
        cases = [(np.array([omega_at(x, 1.0) for x in near]), 1.0),
                 (np.geomspace(1e-288, 1e-270, 37), 1e10),  # subnormal x
                 (np.geomspace(1e5, 1e16, 301), 0.05),
                 # x log-uniform on about [0.015, 700], where numpy's SIMD
                 # expm1 rounds differently from libm on some values
                 (np.exp(np.random.default_rng(0).uniform(18.4, 29.2, 2000)), 0.05)]
        assert sorted(model.hbar * w / model.k_B for w in cases[0][0]) == sorted(near)
        x = model.hbar * cases[1][0] / (model.k_B * 1e10)
        assert np.all(x > 0.0) and np.any(x < np.finfo(float).tiny)
        for omega, temperature in cases:
            expected = [reference(w, temperature) for w in omega.tolist()]
            assert planck(omega, temperature).tolist() == expected
            assert [planck(w, temperature) for w in omega.tolist()] == expected

    def test_an_argument_that_underflows_to_zero_is_an_arithmetic_error(self):
        # hbar omega underflows to 0, and 1 / expm1(0) has no value: a scalar,
        # a 1-element array and a point of a sweep raise alike
        for omega in (1e-300, np.array([1e-300]), np.array([1e9, 1e-300])):
            with pytest.raises(FloatingPointError):
                planck(omega, 1.0)

    @pytest.mark.parametrize("temperature", [-1.0, math.nan, math.inf])
    def test_rejects_bad_temperature(self, temperature):
        with pytest.raises(ValueError):
            planck(1e9, temperature)

    def test_rejects_nonpositive_frequency_in_array(self):
        with pytest.raises(ValueError, match="-5"):
            planck(np.array([1e9, -5.0, 0.0]), 0.1)


class TestPhysicalParamsFinite:
    @pytest.mark.parametrize("field", ["m", "omega_0", "gamma_s", "f_0", "kappa",
                                       "temperature", "omega_c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite(self, field, value):
        p = squid_scale_params()
        values = dict(
            m=p.m, omega_0=p.omega_0, omega_f=p.omega_f, gamma_s=p.gamma_s,
            f_0=p.f_0, kappa=p.kappa, temperature=p.temperature, omega_c=p.omega_c,
        )
        values[field] = value
        with pytest.raises(ValueError, match="finite"):
            PhysicalParams(**values)


# the numpy functions the library evaluates over arrays, each with its
# mpmath reference and the libm function of the same value (``math.cbrt``
# is new in Python 3.11)
UFUNCS = {"log": np.log, "expm1": np.expm1, "arccos": np.arccos, "cbrt": np.cbrt,
          "cos": np.cos, "hypot": np.hypot}
MPMATH = {"log": mpmath.log, "expm1": mpmath.expm1, "arccos": mpmath.acos,
          "cbrt": lambda x: mpmath.sign(x) * mpmath.cbrt(abs(x)), "cos": mpmath.cos,
          "hypot": mpmath.hypot}
LIBM = {"log": math.log, "expm1": math.expm1, "arccos": math.acos,
        "cbrt": getattr(math, "cbrt", None), "cos": math.cos, "hypot": math.hypot}


@functools.lru_cache(maxsize=None)
def ufunc_domain(name: str) -> tuple[np.ndarray, np.ndarray]:
    """The edge values and 10^5 seeded values of the domain on which the
    library calls ``UFUNCS[name]``, as (number of arguments, n) arrays: ln of
    a rate ratio (log-uniform, and near 1, where it is an effective
    temperature far above hbar omega_q/kB) or NaN; expm1 of hbar omega/kB T
    up to the last finite value, or inf; arccos of a clipped cosine; the cube
    root of a finite value of either sign; cos of theta minus the seeds'
    phase shifts, on [-4 pi/3, pi/3]; hypot of SI-like splittings w and
    transverse terms delta, and pairs whose hypot overflows."""
    rng = np.random.default_rng(30)
    edge = EXPM1_EDGE
    below, above = math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)
    if name == "log":
        edges = [math.nan, 5e-324, 1.0, edge, below, above, 1.7e308, math.inf]
        drawn = np.exp(np.concatenate([rng.uniform(-700.0, 700.0, 50_000),
                                       rng.uniform(-0.1, 0.1, 50_000)]))
    elif name == "expm1":
        edges, drawn = [math.inf, 5e-324, 1.0, edge, below], rng.uniform(5e-324, edge, 100_000)
    elif name == "arccos":
        edges, drawn = [0.0, 5e-324, -5e-324, 1.0, -1.0], rng.uniform(-1.0, 1.0, 100_000)
    elif name == "cbrt":
        edges = [0.0, 5e-324, 1.0, edge, below, above, 1.7e308]
        edges += [-x for x in edges]
        drawn = np.exp(rng.uniform(-745.0, 709.0, 100_000))
        drawn[1::2] *= -1.0
    elif name == "cos":
        edges = [-4.0 * math.pi / 3.0, -math.pi, 0.0, math.pi / 3.0]
        drawn = np.random.default_rng(29).uniform(-4.0 * math.pi / 3.0, math.pi / 3.0, 100_000)
        drawn[:4] = edges
    else:
        edges = np.array([[3.0, 4.0], [1e10, 0.0], [5e-324, 5e-324], [1e10, 5e8],
                          [1.7e308, 1.0], [1.7e308, 1.7e308]]).T
        rng = np.random.default_rng(31)
        drawn = np.stack([np.exp(rng.uniform(math.log(1e8), math.log(1e12), 100_000)),
                          np.exp(rng.uniform(math.log(1e5), math.log(1e11), 100_000))])
    return np.atleast_2d(edges), np.atleast_2d(drawn)


def longdouble_ulps(got: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """|got - exact| in ulps of a double in the binade of the long-double
    ``exact``; where ``exact`` rounds to NaN or an infinity, ``got`` must be
    that value."""
    with np.errstate(over="ignore"):
        nearest = exact.astype(float)
    finite = np.isfinite(nearest)
    assert np.array_equal(got[~finite], nearest[~finite], equal_nan=True)
    got, exact = got[finite].astype(np.longdouble), exact[finite]
    exponent = np.where(exact == 0.0, -1074, np.frexp(exact)[1] - 53)
    return np.abs(got - exact) / np.ldexp(np.longdouble(1.0), np.maximum(exponent, -1074))


def mpmath_ulps(got: float, exact: mpmath.mpf) -> float:
    """|got - exact| in ulps of a double in the binade of ``exact``; 0 where
    ``got`` is the double nearest a NaN, infinite or overflowing ``exact``."""
    nearest = float(exact)
    if not math.isfinite(nearest) or exact == 0:
        return 0.0 if got == nearest or math.isnan(got) and math.isnan(nearest) else math.inf
    ulp = mpmath.ldexp(1, max(mpmath.frexp(exact)[1] - 53, -1074))
    return float(abs(mpmath.mpf(got) - exact) / ulp)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


class TestUfuncAccuracy:
    """The accuracy contract of the numpy functions the library evaluates:
    each value within 1 ulp of the exact one, and an array call with the
    bits of one call per value, so that a sweep equals per-point calls."""

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                        reason="long double is no wider than double here; the mpmath "
                               "check covers each function")
    @pytest.mark.parametrize("name", UFUNCS)
    def test_within_one_ulp_of_long_double(self, name):
        ufunc = UFUNCS[name]
        x = np.concatenate(ufunc_domain(name), axis=1)
        with np.errstate(over="ignore"):
            got = ufunc(*x)
            exact = ufunc(*x.astype(np.longdouble))
        assert longdouble_ulps(got, exact).max() <= 1.0

    @pytest.mark.parametrize("name", UFUNCS)
    def test_within_one_ulp_of_mpmath(self, name):
        edges, drawn = ufunc_domain(name)
        x = np.concatenate([edges, drawn[:, ::200]], axis=1)
        with np.errstate(over="ignore"):
            got = UFUNCS[name](*x).tolist()
        with mpmath.workdps(40):
            off = [mpmath_ulps(y, MPMATH[name](*map(mpmath.mpf, args)))
                   for y, args in zip(got, x.T.tolist())]
        assert max(off) <= 1.0, x[:, np.argmax(off)]

    @pytest.mark.parametrize("name", UFUNCS)
    def test_an_array_call_has_the_bits_of_its_0d_calls(self, name):
        # every length up to two SIMD widths and a tail, over the edge values
        # and the values on which numpy and libm round differently here
        ufunc, libm = UFUNCS[name], LIBM[name]
        edges, drawn = ufunc_domain(name)
        probe = edges
        if libm is not None:
            expected = np.fromiter(map(libm, *drawn.tolist()), float, drawn.shape[1])
            differ = drawn[:, bits(ufunc(*drawn)) != bits(expected)]
            probe = np.concatenate([edges, differ[:, :40]], axis=1)
        with np.errstate(over="ignore"):
            single = np.array([ufunc(*map(np.asarray, args)) for args in probe.T])
            assert np.array_equal(bits([ufunc(*args) for args in probe.T.tolist()]),
                                  bits(single))
            for size in range(1, 18):
                for start in range(0, probe.shape[1], size):
                    part = probe[:, start:start + size]
                    assert np.array_equal(bits(ufunc(*part)),
                                          bits(single[start:start + size])), part

    @pytest.mark.parametrize("name, args", [("log", (0.0,)), ("log", (-1.0,)),
                                            ("expm1", (710.0,)), ("arccos", (2.0,)),
                                            ("cos", (math.inf,)), ("hypot", (1.7e308, 1.7e308))])
    def test_a_scalar_and_a_one_element_array_raise_alike(self, name, args):
        with np.errstate(all="raise"):
            for call in (args, tuple(map(np.asarray, args)), [np.array([a]) for a in args]):
                with pytest.raises(FloatingPointError):
                    UFUNCS[name](*call)
