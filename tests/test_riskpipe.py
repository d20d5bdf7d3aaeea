import numpy as np
import pytest

from qcra import riskpipe
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
        dist, report = riskpipe.run_gci_pipeline(model, loader_thetas=np.radians(PAPER_GCI["loader_thetas_deg"]))
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
