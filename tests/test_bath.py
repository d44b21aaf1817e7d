import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants

import floquetdd
from floquetdd.bath import (
    BOHR_RADIUS,
    C_LIGHT,
    E_A0 as PINNED_E_A0,
    E_CHARGE,
    EPS0,
    HBAR,
    K_BOLTZMANN,
    AtomGeometry,
    BathParams,
    _XI_SERIES_THRESHOLD,
    _xi_cos_minus_sin,
    gamma_pair,
    gamma_single,
    gamma_thermal_pair,
    gamma_thermal_single,
    omega_dd,
)

E_A0 = constants.e * constants.physical_constants["Bohr radius"][0]
RYDBERG = AtomGeometry(separation=40e-6, dipole_mag=1000 * E_A0, theta_d=np.pi / 2)
VACUUM = BathParams(temperature=0.0)


def geometry_at(xi, omega=1e10, theta=np.pi / 2, dipole=1000 * E_A0):
    return AtomGeometry(separation=xi * constants.c / omega, dipole_mag=dipole, theta_d=theta)


class TestGammaSingle:
    def test_cubic_scaling(self):
        assert gamma_single(2e10, RYDBERG) == pytest.approx(8 * gamma_single(1e10, RYDBERG))

    def test_zero_frequency(self):
        assert gamma_single(0.0, RYDBERG) == 0.0

    def test_hand_computed_value(self):
        # mu^2 w^3 / (3 pi eps0 hbar c^3) at w = 1e10 rad/s, mu = 1000 e a0:
        # worked out by hand with CODATA values to 3.0315e-4 / s.
        assert gamma_single(1e10, RYDBERG) == pytest.approx(3.0315e-4, rel=1e-3)

    def test_even_in_omega(self):
        assert gamma_single(-1e10, RYDBERG) == gamma_single(1e10, RYDBERG)


class TestGammaPair:
    def test_small_separation_limit(self):
        geom = AtomGeometry(separation=1e-12, dipole_mag=1000 * E_A0, theta_d=0.3)
        ratio = gamma_pair(1e10, geom) / gamma_single(1e10, geom)
        assert ratio == pytest.approx(1.0, rel=1e-8)

    def test_magic_angle_leaves_only_transverse_term(self):
        theta = math.acos(1 / math.sqrt(3))
        omega = 1e10
        for xi in (0.3, 2.0, 9.0):
            geom = geometry_at(xi, theta=theta)
            prefactor = geom.dipole_mag**2 * omega**3 / (
                2 * np.pi * constants.epsilon_0 * constants.hbar * constants.c**3
            )
            expected = prefactor * (2.0 / 3.0) * math.sin(xi) / xi
            assert gamma_pair(omega, geom) == pytest.approx(expected, rel=1e-10)

    def test_against_high_precision_closed_form(self):
        # Oracle: the same closed form evaluated with 50-digit arithmetic.
        omega = 1e10
        geom = geometry_at(10.0)
        mp.mp.dps = 50
        xi = mp.mpf(omega) * mp.mpf(repr(geom.separation)) / mp.mpf(repr(constants.c))
        # theta = pi/2 so cos^2(theta) = 0 in both angular factors
        bracket = mp.sin(xi) / xi + (mp.cos(xi) / xi**2 - mp.sin(xi) / xi**3)
        prefactor = (
            mp.mpf(repr(geom.dipole_mag)) ** 2
            * mp.mpf(omega) ** 3
            / (
                2
                * mp.pi
                * mp.mpf(repr(constants.epsilon_0))
                * mp.mpf(repr(constants.hbar))
                * mp.mpf(repr(constants.c)) ** 3
            )
        )
        expected = float(prefactor * bracket)
        assert gamma_pair(omega, geom) == pytest.approx(expected, rel=1e-12)

    def test_series_and_direct_agree_at_crossover(self):
        xi = _XI_SERIES_THRESHOLD
        direct = xi * math.cos(xi) - math.sin(xi)
        assert _xi_cos_minus_sin(xi) == pytest.approx(direct, rel=1e-8)
        # and the series stays the branch actually used just below
        assert _xi_cos_minus_sin(xi * 0.999) == pytest.approx(
            0.999 * xi * math.cos(0.999 * xi) - math.sin(0.999 * xi), rel=1e-8
        )

    def test_collective_never_exceeds_single(self):
        omega = 1e10
        for xi in np.geomspace(1e-3, 50, 120):
            for theta in np.linspace(0.0, np.pi, 25):
                geom = geometry_at(xi, theta=theta)
                single = gamma_single(omega, geom)
                assert single - abs(gamma_pair(omega, geom)) >= -1e-12 * single

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            AtomGeometry(separation=0.0, dipole_mag=1.0, theta_d=0.0)
        with pytest.raises(ValueError):
            AtomGeometry(separation=1.0, dipole_mag=-1.0, theta_d=0.0)
        with pytest.raises(ValueError):
            AtomGeometry(separation=1.0, dipole_mag=1.0, theta_d=4.0)


class TestOmegaDd:
    def test_near_field_limit(self):
        geom = AtomGeometry(separation=1e-9, dipole_mag=1000 * E_A0, theta_d=np.pi / 2)
        static = geom.dipole_mag**2 / (
            4 * np.pi * constants.epsilon_0 * constants.hbar * geom.separation**3
        )
        assert omega_dd(1e4, geom) == pytest.approx(static, rel=1e-8)

    def test_static_value_at_zero_frequency(self):
        geom = AtomGeometry(separation=1e-6, dipole_mag=1000 * E_A0, theta_d=0.2)
        static = (
            geom.dipole_mag**2
            * (1 - 3 * math.cos(0.2) ** 2)
            / (4 * np.pi * constants.epsilon_0 * constants.hbar * geom.separation**3)
        )
        assert omega_dd(0.0, geom) == pytest.approx(static, rel=1e-12)

    def test_rydberg_endpoint_value(self):
        # Closing example: ~96 kHz (quoted as 9.6e4 / s) for 1000 e a0 dipoles
        # 40 um apart at 1e10 rad/s.
        value = omega_dd(1e10, RYDBERG)
        assert abs(value - 9.6e4) / 9.6e4 < 0.2

    def test_even_function(self):
        for omega in np.linspace(1e8, 5e10, 7):
            assert omega_dd(-omega, RYDBERG) == omega_dd(omega, RYDBERG)

    def test_sign_flips_with_tilt(self):
        # near field: positive for transverse dipoles, negative for parallel
        close = AtomGeometry(separation=1e-7, dipole_mag=1000 * E_A0, theta_d=np.pi / 2)
        along = AtomGeometry(separation=1e-7, dipole_mag=1000 * E_A0, theta_d=0.0)
        assert omega_dd(1e10, close) > 0
        assert omega_dd(1e10, along) < 0


class TestThermalRates:
    def test_vacuum(self):
        assert gamma_thermal_pair(-1e10, RYDBERG, VACUUM) == 0.0
        assert gamma_thermal_pair(1e10, RYDBERG, VACUUM) == gamma_pair(1e10, RYDBERG)
        assert gamma_thermal_single(1e10, RYDBERG, VACUUM) == gamma_single(1e10, RYDBERG)

    def test_zero_frequency_vanishes(self):
        for temperature in (0.0, 1.0, 300.0):
            bath = BathParams(temperature=temperature)
            assert gamma_thermal_single(0.0, RYDBERG, bath) == 0.0

    @given(
        nu=st.floats(1e6, 1e12),
        temperature=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=60)
    def test_detailed_balance(self, nu, temperature):
        bath = BathParams(temperature=temperature)
        down = gamma_thermal_single(nu, RYDBERG, bath)
        up = gamma_thermal_single(-nu, RYDBERG, bath)
        x = constants.hbar * nu / (constants.k * temperature)
        if x < 700 and up > 0.0:
            assert up / down == pytest.approx(math.exp(-x), abs=1e-12, rel=1e-12)

    def test_small_frequency_continuity(self):
        bath = BathParams(temperature=300.0)
        # rate ~ nu^3 * (kT / hbar nu) ~ nu^2 stays finite and tends to zero
        a = gamma_thermal_single(1e-3, RYDBERG, bath)
        b = gamma_thermal_single(1e-4, RYDBERG, bath)
        assert 0.0 < b < a < 1e-20
        assert a / b == pytest.approx(100.0, rel=1e-6)
        assert gamma_thermal_single(1e-200, RYDBERG, bath) == 0.0
        # hbar |nu| / kT underflows to zero here: the limit, not 0 / 0
        for nu in (1e-300, -1e-300):
            assert gamma_thermal_single(nu, RYDBERG, BathParams(temperature=1.0)) == 0.0
            assert gamma_thermal_pair(nu, RYDBERG, BathParams(temperature=1.0)) == 0.0

    @given(
        xis=st.lists(st.floats(0.0, 40.0), max_size=12),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=12, max_size=12),
        temperature=st.sampled_from([0.0, 0.05, 300.0]),
    )
    @settings(max_examples=60)
    def test_array_call_equals_scalar_calls(self, xis, signs, temperature):
        # nu = 0 and xi on both sides of the small-xi series threshold are
        # always present; the rest is drawn.
        thr = _XI_SERIES_THRESHOLD
        xi = np.array([0.0, 0.5 * thr, 2.0 * thr, 1.0, *xis])
        sign = np.array([1.0, -1.0, -1.0, 1.0, *signs[: len(xis)]])
        geom = geometry_at(1.0, omega=1e10, theta=0.7)
        nus = sign * xi * 1e10
        bath = BathParams(temperature=temperature)
        for fn, extra in (
            (gamma_single, ()),
            (gamma_pair, ()),
            (omega_dd, ()),
            (gamma_thermal_single, (bath,)),
            (gamma_thermal_pair, (bath,)),
        ):
            scalars = [fn(float(nu), geom, *extra) for nu in nus]
            assert all(type(v) is float for v in scalars)
            np.testing.assert_array_max_ulp(fn(nus, geom, *extra), np.array(scalars), maxulp=0)
        # and both equal the libm forms the rates are defined with: pow for
        # |nu|^3 and expm1 for the occupation
        denominator = 3.0 * np.pi * constants.epsilon_0 * constants.hbar * constants.c**3
        for nu in nus:
            single = geom.dipole_mag**2 * abs(float(nu)) ** 3 / denominator
            assert gamma_single(float(nu), geom) == single
            x = constants.hbar * abs(float(nu)) / (constants.k * max(temperature, 1e-300))
            if nu < 0.0 and temperature > 0.0 and 1e-12 <= x <= 700.0:
                assert gamma_thermal_single(float(nu), geom, bath) == single / math.expm1(x)

    def test_occupation(self):
        with pytest.raises(ValueError):
            BathParams(temperature=-1.0)


class TestGeometryPositions:
    def test_from_positions_derives_angle(self):
        geom = AtomGeometry.from_positions(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]], dipole_mag=1.0, dipole_axis=[1.0, 0.0, 0.0]
        )
        assert geom.separation == pytest.approx(3.0)
        assert geom.theta_d == pytest.approx(np.pi / 2)
        tilted = AtomGeometry.from_positions(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]], dipole_mag=1.0, dipole_axis=[0.0, 0.0, -2.0]
        )
        assert tilted.theta_d == pytest.approx(0.0)


class TestConstants:
    def test_pinned_codata_values(self):
        assert HBAR == 1.0545718176461565e-34
        assert EPS0 == 8.8541878188e-12
        assert C_LIGHT == 299792458.0
        assert K_BOLTZMANN == 1.380649e-23
        assert E_CHARGE == 1.602176634e-19
        assert BOHR_RADIUS == 5.29177210544e-11
        assert PINNED_E_A0 == 8.478353619788951e-30
        # the SI fixes these four exactly, so every CODATA release agrees
        assert (HBAR, C_LIGHT, K_BOLTZMANN, E_CHARGE) == (
            constants.hbar,
            constants.c,
            constants.k,
            constants.e,
        )

    def test_import_loads_no_scipy(self):
        src = str(Path(floquetdd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, floquetdd; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
