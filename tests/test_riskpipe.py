import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcra import noise, riskpipe
from qcra.cli import PAPER_GCI
from qcra.finmodel import GciModel


def brute_force_cvar(losses, pdf, level):
    """Mean of the worst (1 - level) probability mass, taken atom by atom."""
    mass, total = 1.0 - level, 0.0
    for loss, p in sorted(zip(losses, pdf), reverse=True):
        take = min(p, mass)
        total += take * loss
        mass -= take
    return total / (1.0 - level)


class TestCvar:
    def test_paper_gci_stays_between_var_and_the_largest_loss(self):
        model = GciModel.from_dict(PAPER_GCI["model"])
        dist, report = riskpipe.run_gci_pipeline(model, "ideal", np.radians(PAPER_GCI["thetas_deg"]["ideal"]))
        v, c = report["var"]["0.95"], report["cvar"]["0.95"]
        assert v <= c <= dist.losses[-1] == 1000.0

    @pytest.mark.parametrize("level", [0.3, 0.5, 0.8, 0.9, 0.97, 0.99])
    def test_matches_tail_sum_on_four_atoms(self, level):
        losses = np.array([0.0, 100.0, 250.0, 1000.0])
        pdf = np.array([0.5, 0.3, 0.15, 0.05])
        dist = riskpipe.LossDistribution(losses, pdf, np.cumsum(pdf), float(losses @ pdf), np.ones(1))
        c = riskpipe.cvar(dist, level)
        assert c == pytest.approx(brute_force_cvar(losses, pdf, level), rel=1e-12)
        assert riskpipe.var(dist, level) <= c <= 1000.0


def brute_force_decode(weights, lgds, n_z):
    """Walk every outcome as a bitstring: asset bits first, then the z code."""
    k = len(lgds)
    by_cents, z_marginal = {}, [0.0] * 2**n_z
    for i, w in enumerate(weights):
        if w == 0.0:
            continue
        bits = format(i, f"0{k + n_z}b")
        loss = sum(lgd for lgd, b in zip(lgds, bits[:k]) if b == "1")
        cents = round(loss * 100)
        by_cents[cents] = by_cents.get(cents, 0.0) + w
        z_marginal[int(bits[k:], 2)] += w
    losses = sorted(by_cents)
    pdf = [by_cents[c] for c in losses]
    return [c / 100 for c in losses], pdf, z_marginal


@st.composite
def decode_inputs(draw):
    k = draw(st.integers(1, 7))
    n_z = draw(st.integers(1, 8 - k))
    lgd = st.one_of(st.sampled_from([0.0, 0.005, 333.333, 1000.0]), st.floats(0.0, 1e6))
    lgds = tuple(draw(st.lists(lgd, min_size=k, max_size=k)))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    weights = draw(st.lists(weight, min_size=2 ** (k + n_z), max_size=2 ** (k + n_z)))
    return lgds, n_z, np.array(weights)


class TestDecodeCounts:
    @settings(deadline=None)
    @given(decode_inputs())
    def test_matches_brute_force_enumeration(self, inputs):
        lgds, n_z, weights = inputs
        k = len(lgds)
        layout = riskpipe.RegisterLayout(tuple(range(k)), tuple(range(k, k + n_z)), lgds)
        dist = riskpipe.decode_counts(weights, layout)
        losses, pdf, z_marginal = brute_force_decode(weights, lgds, n_z)
        assert dist.losses.tolist() == losses
        np.testing.assert_allclose(dist.pdf, pdf, rtol=0, atol=1e-15)
        np.testing.assert_allclose(dist.cdf, np.cumsum(pdf), rtol=0, atol=1e-15)
        np.testing.assert_allclose(dist.z_marginal, z_marginal, rtol=0, atol=1e-15)
        expected = math.fsum(l * p for l, p in zip(losses, pdf))
        # a sum of m nonnegative terms is within (m - 1) eps of the exact sum
        assert dist.expected_loss == pytest.approx(expected, rel=max(len(pdf), 1) * np.finfo(float).eps, abs=1e-15)

    def test_shot_counts_decode_as_their_frequencies(self):
        layout = riskpipe.RegisterLayout((0, 1), (2, 3, 4), (333.333, 0.005))
        p = np.random.default_rng(3).random(32)
        counts = noise.sample_shots(p, 999, seed=5)
        from_counts = riskpipe.decode_counts(counts, layout)
        from_freqs = riskpipe.decode_counts(counts.frequencies(), layout)
        for field in ("losses", "pdf", "cdf", "z_marginal"):
            assert np.array_equal(getattr(from_counts, field), getattr(from_freqs, field))
        assert from_counts.expected_loss == from_freqs.expected_loss

    def test_rejects_a_vector_of_the_wrong_length(self):
        layout = riskpipe.RegisterLayout((0,), (1, 2), (1000.0,))
        with pytest.raises(ValueError, match="expected 8 outcome weights"):
            riskpipe.decode_counts(np.full(16, 1 / 16), layout)
        with pytest.raises(ValueError, match="expected 8 outcome weights"):
            riskpipe.decode_counts(noise.sample_shots(np.full(4, 0.25), 10), layout)

    @pytest.mark.parametrize("lgd", [-1.0, math.inf, math.nan, 1e308])
    def test_layout_rejects_lgds_outside_the_maths(self, lgd):
        with pytest.raises(ValueError, match="LGDs"):
            riskpipe.RegisterLayout((0,), (1,), (lgd,))

    def test_layout_rejects_a_total_loss_beyond_floats_in_cents(self):
        # the largest decoded loss is the LGD total, rounded on cents
        with pytest.raises(ValueError, match="LGDs"):
            riskpipe.RegisterLayout((0, 1), (2,), (1e306, 1e306))
        layout = riskpipe.RegisterLayout((0, 1), (2,), (1e305, 1e305))
        dist = riskpipe.decode_counts(np.full(8, 1 / 8), layout)
        assert np.all(np.isfinite(dist.losses)) and math.isfinite(dist.expected_loss)
