import math

import numpy as np
import pytest

from qcra import noise, simkit
from qcra.circuits import build_three_qubit_loader


def probability_vector(n_qubits, seed=0):
    p = np.random.default_rng(seed).random(2**n_qubits)
    p[::3] = 0.0
    return p / p.sum()


class TestSampleShots:
    @pytest.mark.parametrize("n_qubits", [1, 3, 8])
    def test_counts_cover_every_outcome_and_sum_to_the_shots(self, n_qubits):
        p = probability_vector(n_qubits)
        counts = noise.sample_shots(p, 1000, seed=4)
        assert counts.n_shots == 1000
        assert counts.counts.shape == (2**n_qubits,)
        assert counts.counts.sum() == 1000
        assert np.all(counts.counts[p == 0.0] == 0)

    def test_same_seed_same_draws(self):
        p = probability_vector(4)
        first = noise.sample_shots(p, 5000, seed=9).counts
        assert np.array_equal(first, noise.sample_shots(p, 5000, seed=9).counts)
        assert np.array_equal(first, noise.sample_shots(p, 5000, np.random.default_rng(9)).counts)
        assert not np.array_equal(first, noise.sample_shots(p, 5000, seed=10).counts)

    def test_frequencies_are_counts_over_shots(self):
        counts = noise.sample_shots(probability_vector(3), 777, seed=1)
        assert np.array_equal(counts.frequencies(), counts.counts / 777)

    def test_shot_bounds(self):
        p = probability_vector(2)
        assert noise.sample_shots(p, noise.MAX_SHOTS).counts.sum() == 2**53
        for bad in (0, -1, noise.MAX_SHOTS + 1, 10**23):
            with pytest.raises(ValueError, match="n_shots"):
                noise.sample_shots(p, bad)


class TestSpamStatistics:
    def test_exact_means_are_mirror_differences(self):
        circ = build_three_qubit_loader([math.radians(d) for d in (90.0, 224.0, 180.0)])
        p = simkit.born_probabilities(simkit.simulate(circ))
        report = noise.spam_statistics(circ, 3, None)
        assert list(report.pairs) == ["000-111", "001-110", "010-101", "011-100"]
        for b, (mean, std) in enumerate(report.pairs.values()):
            assert mean == pytest.approx(p[b] - p[7 - b], abs=1e-15)
            assert std == pytest.approx(0.0, abs=1e-15)
