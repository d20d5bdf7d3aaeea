import math

import numpy as np
import pytest

from qcra import finmodel
from qcra.finmodel import GciModel, coded_rotation_angle, linearize, normal_cdf, normal_pdf, normal_quantile, pd_approx, pd_exact

PAPER_P0, PAPER_RHO = 0.25, 0.027


def mpmath_linearization(p0, rho):
    """Independent high-precision oracle for (alpha, beta, psi)."""
    import mpmath as mp

    with mp.workdps(50):
        p0, rho = mp.mpf(p0), mp.mpf(rho)
        cdf = lambda x: mp.erfc(-x / mp.sqrt(2)) / 2
        pdf = lambda x: mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
        quantile = mp.findroot(lambda x: cdf(x) - p0, -0.5)
        psi = quantile / mp.sqrt(1 - rho)
        beta = mp.asin(mp.sqrt(cdf(psi)))
        alpha = (-(1 / mp.sqrt(1 - cdf(psi))) * (1 / (2 * mp.sqrt(cdf(psi))))
                 * pdf(psi) * mp.sqrt(rho) / mp.sqrt(1 - rho))
        return float(alpha), float(beta), float(psi)


class TestNormalFunctions:
    def test_cdf_at_zero(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_pdf_at_zero(self):
        assert normal_pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_quantile_quarter(self):
        assert normal_quantile(0.25) == pytest.approx(-0.67448975, abs=1e-8)

    def test_quantile_cdf_roundtrip(self):
        # right of x ~ 5.3 the double rounding of Phi(x) toward 1 caps what any
        # inverse can recover (scipy's ndtri(ndtr(6.0)) shows the same ~1e-8)
        for x in np.linspace(-6, 6, 241):
            err = abs(normal_quantile(normal_cdf(float(x))) - x)
            assert err < (1e-9 if x <= 5.3 else 5e-8)

    def test_cdf_monotone(self):
        xs = np.linspace(-8, 8, 400)
        vals = [normal_cdf(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_pdf_is_cdf_derivative(self):
        h = 1e-6
        for x in (-3.0, -1.0, 0.0, 0.5, 2.5):
            fd = (normal_cdf(x + h) - normal_cdf(x - h)) / (2 * h)
            assert fd == pytest.approx(normal_pdf(x), abs=1e-9)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                normal_quantile(bad)

    def test_cdf_against_mpmath(self):
        import mpmath as mp

        for x in np.linspace(-6, 6, 61):
            ref = float(mp.erfc(-mp.mpf(float(x)) / mp.sqrt(2)) / 2)
            assert normal_cdf(float(x)) == pytest.approx(ref, rel=1e-13, abs=1e-300)


class TestLinearize:
    def test_zero_correlation(self):
        alpha, beta, psi = linearize(0.3, 0.0)
        assert alpha == 0.0
        assert psi == pytest.approx(normal_quantile(0.3), abs=1e-12)
        assert beta == pytest.approx(math.asin(math.sqrt(0.3)), abs=1e-12)

    def test_paper_instance_against_oracle(self):
        alpha, beta, psi = linearize(PAPER_P0, PAPER_RHO)
        ref_alpha, ref_beta, ref_psi = mpmath_linearization(PAPER_P0, PAPER_RHO)
        assert alpha == pytest.approx(ref_alpha, abs=1e-9)
        assert beta == pytest.approx(ref_beta, abs=1e-9)
        assert psi == pytest.approx(ref_psi, abs=1e-9)
        assert beta == pytest.approx(0.5202, abs=5e-5)
        assert alpha == pytest.approx(-0.0610, abs=5e-5)

    def test_half_half_simplification(self):
        alpha, beta, psi = linearize(0.5, 0.5)
        assert psi == pytest.approx(0.0, abs=1e-12)
        assert beta == pytest.approx(math.pi / 4, abs=1e-12)
        assert alpha == pytest.approx(-normal_pdf(0.0), abs=1e-12)

    def test_construction_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p0 = float(rng.uniform(0.01, 0.99))
            rho = float(rng.uniform(0.0, 0.95))
            _, beta, psi = linearize(p0, rho)
            assert math.sin(beta) ** 2 == pytest.approx(normal_cdf(psi), abs=1e-12)

    def test_rho_one_rejected(self):
        with pytest.raises(ValueError):
            linearize(0.25, 1.0)
        with pytest.raises(ValueError):
            linearize(0.0, 0.1)


class TestPdFunctions:
    model = GciModel(PAPER_P0, PAPER_RHO, 1000.0, 2, 1.0)

    def test_anchor_point(self):
        assert pd_approx(self.model, 0.0) == pytest.approx(pd_exact(self.model, 0.0), abs=1e-15)
        assert pd_exact(self.model, 0.0) == pytest.approx(normal_cdf(self.model.psi), abs=1e-15)
        assert pd_exact(self.model, 0.0) == pytest.approx(0.2471, abs=5e-5)

    def test_linearization_gap_at_grid_edges(self):
        # the first-order fit is anchored at z = 0; at z = +-1 the gap is ~1.1e-3
        for z in (-1.0, 1.0):
            gap = abs(pd_approx(self.model, z) - pd_exact(self.model, z))
            assert gap == pytest.approx(1.10e-3, abs=1e-4)

    def test_slope_matches_finite_difference(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(50):
            m = GciModel(float(rng.uniform(0.02, 0.9)), float(rng.uniform(0.0, 0.9)),
                         1.0, 2, 1.0)
            g = lambda z: math.asin(math.sqrt(pd_exact(m, z)))
            fd = (g(h) - g(-h)) / (2 * h)
            assert fd == pytest.approx(m.alpha, abs=1e-6)

    def test_monotone_decreasing_in_z(self):
        zs = np.linspace(-4, 4, 81)
        vals = [pd_exact(self.model, float(z)) for z in zs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_range(self):
        for z in np.linspace(-6, 6, 25):
            assert 0.0 < pd_exact(self.model, float(z)) < 1.0
            assert 0.0 < pd_approx(self.model, float(z)) < 1.0


class TestCodedRotation:
    model = GciModel(PAPER_P0, PAPER_RHO, 1000.0, 2, 1.0)

    def test_grid_endpoints(self):
        assert self.model.z_of_code(0) == pytest.approx(-1.0)
        assert self.model.z_of_code(3) == pytest.approx(1.0)

    def test_zero_slope(self):
        m = GciModel(0.4, 0.0, 1.0, 2, 1.0)
        for code in range(4):
            assert coded_rotation_angle(m, code) == pytest.approx(2 * m.beta, abs=1e-15)

    def test_top_code_identity(self):
        angle = coded_rotation_angle(self.model, 3)
        assert angle == pytest.approx(2 * (self.model.alpha + self.model.beta), abs=1e-12)

    def test_grid_identity_all_codes(self):
        for code in range(4):
            lhs = self.model.alpha_tilde * code + self.model.beta_tilde
            rhs = self.model.alpha * self.model.z_of_code(code) + self.model.beta
            assert lhs == pytest.approx(rhs, abs=1e-12)
        half_angle = coded_rotation_angle(self.model, 2) / 2
        assert math.sin(half_angle) ** 2 == pytest.approx(
            pd_approx(self.model, self.model.z_of_code(2)), abs=1e-12)

    def test_code_out_of_range(self):
        with pytest.raises(ValueError):
            coded_rotation_angle(self.model, 4)
        with pytest.raises(ValueError):
            coded_rotation_angle(self.model, -1)


class TestModelValidation:
    def test_json_roundtrip(self):
        m = GciModel(0.25, 0.027, 1000.0, 2, 1.0)
        back = GciModel.from_dict(m.to_dict())
        assert back == m

    def test_field_checks(self):
        with pytest.raises(ValueError):
            GciModel(1.2, 0.1, 1.0, 2, 1.0)
        with pytest.raises(ValueError):
            GciModel(0.2, -0.1, 1.0, 2, 1.0)
        with pytest.raises(ValueError):
            GciModel(0.2, 0.1, -1.0, 2, 1.0)
        with pytest.raises(ValueError):
            GciModel(0.2, 0.1, 1.0, 2, 0.0)

    def test_factor_register_fits_the_simulator(self):
        assert GciModel(0.2, 0.1, 1.0, 11, 1.0).n_z == 11
        for n_z in (0, 12, 10**300):
            with pytest.raises(ValueError, match="n_z"):
                GciModel(0.2, 0.1, 1.0, n_z, 1.0)

    @pytest.mark.parametrize("data", [
        [0.25, 0.027, 1000.0, 2, 1.0],
        {"p0": "0.25", "rho": 0.027, "lgd": 1000.0, "n_z": 2, "z_max": 1.0},
        {"p0": 0.25, "rho": 0.027, "lgd": None, "n_z": 2, "z_max": 1.0},
        {"p0": 0.25, "rho": 0.027, "lgd": float("nan"), "n_z": 2, "z_max": 1.0},
        {"p0": 0.25, "rho": 0.027, "lgd": 1000.0, "n_z": True, "z_max": 1.0},
        {"p0": 0.25, "rho": 0.027, "lgd": 1000.0, "n_z": 2, "z_max": float("inf")},
    ])
    def test_from_dict_rejects_wrong_json_types(self, data):
        with pytest.raises(ValueError):
            GciModel.from_dict(data)
