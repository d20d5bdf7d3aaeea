import dataclasses
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


class TestSampleRows:
    def test_row_b_samples_from_child_b(self):
        probs = np.array([probability_vector(3, seed) for seed in range(5)])
        streams = np.random.SeedSequence(11).spawn(len(probs))
        got = noise.sample_rows(probs, 300, 11)
        for row, p, stream in zip(got, probs, streams):
            expected = noise.sample_shots(p, 300, np.random.default_rng(stream)).frequencies()
            np.testing.assert_array_equal(row, expected)

    def test_a_prefix_draws_what_the_full_batch_draws(self):
        probs = np.array([probability_vector(2, seed) for seed in range(7)])
        full = noise.sample_rows(probs, 50, 3)
        for k in (1, 4):
            np.testing.assert_array_equal(noise.sample_rows(probs[:k], 50, 3), full[:k])


def random_factors(n_qubits, seed):
    """n random column-stochastic 2x2 factors: column b is P(assigned | prepared b)."""
    stay = np.random.default_rng(seed).random((n_qubits, 2))
    return [np.array([[s0, 1.0 - s1], [1.0 - s0, s1]]) for s0, s1 in stay]


def kron_matrix(factors):
    """The dense 2^n x 2^n readout map, factor 0 on the most significant bit."""
    full = np.ones((1, 1))
    for f in factors:
        full = np.kron(full, f)
    return full


class TestConfusionMatrix:
    @pytest.mark.parametrize("n_qubits", range(1, 9))
    def test_matches_the_kron_product(self, n_qubits):
        for seed in range(3):
            factors = random_factors(n_qubits, seed)
            cm = noise.ConfusionMatrix.from_factors(factors)
            rows = np.stack([probability_vector(n_qubits, seed + r) for r in range(4)])
            expected = rows @ kron_matrix(factors).T
            assert np.max(np.abs(noise.apply_confusion(rows, cm) - expected)) <= 1e-15
            assert np.max(np.abs(noise.apply_confusion(rows[0], cm) - expected[0])) <= 1e-15

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 5, 8, 12])
    def test_rows_equal_single_calls_bitwise(self, n_qubits):
        cm = noise.ConfusionMatrix.from_factors(random_factors(n_qubits, 7))
        rows = np.stack([probability_vector(n_qubits, r) for r in range(5)])
        single = np.stack([noise.apply_confusion(row, cm) for row in rows])
        assert np.array_equal(noise.apply_confusion(rows, cm), single)

    def test_holds_one_field_of_per_qubit_factors(self):
        factors = random_factors(5, 1)
        cm = noise.ConfusionMatrix.from_factors(factors)
        assert [f.name for f in dataclasses.fields(cm)] == ["matrix"]
        assert cm.n_qubits == 5 and cm.matrix.shape == (5, 2, 2)
        assert cm.matrix.nbytes == 32 * 5
        assert np.array_equal(cm.matrix, np.stack(factors))
        assert not cm.matrix.flags.writeable

    def test_to_dict_lists_the_factors(self):
        f = [[0.97, 1.0 - 0.97], [1.0 - 0.97, 0.97]]
        cm = noise.ConfusionMatrix.uniform_readout(2, 0.97)
        assert cm.to_dict() == {"factors": [f, f]}
        assert np.array_equal(noise.ConfusionMatrix.from_factors(cm.to_dict()["factors"]).matrix,
                              cm.matrix)

    @pytest.mark.parametrize("factors, match", [
        ([np.eye(3)], "2x2"),
        ([np.eye(2), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], None),  # ragged: numpy's own message
        ([[[1.5, 0.0], [-0.5, 1.0]]], r"\[0, 1\]"),
        ([[[0.9, 0.1], [0.2, 0.8]]], "sum to 1"),  # rows sum to 1, columns do not
        ([[[np.nan, 0.0], [1.0, 1.0]]], r"\[0, 1\]"),
        ([], "1 to 12"),
        ([np.eye(2)] * 13, "1 to 12"),
    ])
    def test_rejects_bad_factors(self, factors, match):
        with pytest.raises(ValueError, match=match):
            noise.ConfusionMatrix.from_factors(factors)

    def test_rejects_a_bad_stack(self):
        with pytest.raises(ValueError, match="2x2"):
            noise.ConfusionMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError, match="1 to 12"):
            noise.ConfusionMatrix.uniform_readout(0, 0.9)

    @pytest.mark.parametrize("shape", [(7,), (9,), (2, 4), (1, 1, 8), ()])
    def test_rejects_a_wrong_length_or_rank(self, shape):
        cm = noise.ConfusionMatrix.uniform_readout(3, 0.9)
        with pytest.raises(ValueError, match="readout factors"):
            noise.apply_confusion(np.full(shape, 0.125), cm)


class TestSpamStatistics:
    def test_exact_means_are_mirror_differences(self):
        circ = build_three_qubit_loader([math.radians(d) for d in (90.0, 224.0, 180.0)])
        p = simkit.born_probabilities(simkit.simulate(circ))
        report = noise.spam_statistics(circ, 3, None)
        assert list(report.pairs) == ["000-111", "001-110", "010-101", "011-100"]
        for b, (mean, std) in enumerate(report.pairs.values()):
            assert mean == pytest.approx(p[b] - p[7 - b], abs=1e-15)
            assert std == pytest.approx(0.0, abs=1e-15)
