"""Fig. 2 -- (a) weight distributions of benign vs. attacked models;
(b) pixel-value distributions of images grouped by std.

Paper claims quantified here:

* (a) the attack reshapes the benign weight distribution towards the
  target pixel distribution, more strongly at higher correlation rates
  (blue benign line vs. the lambda=1 / lambda=10 lines);
* (b) images whose std sits in the window around the dataset mean have
  pixel distributions similar to the attacked weights, while very low /
  very high std images look different.
"""

import numpy as np

from repro.metrics import histogram_overlap
from repro.models import parameter_vector
from repro.pipeline.reporting import format_table
from repro.preprocessing import select_by_std_range
from tests.paper.experiments import LAMBDA_SWEEP


def test_fig2a_weight_distribution_reshaping(cache):
    lam_low, _, lam_high = LAMBDA_SWEEP

    def experiment():
        benign = cache.benign("rgb")
        low = cache.original_attack("rgb", lam_low)
        high = cache.original_attack("rgb", lam_high)
        pixels = low.payload.secret_vector()
        names = [n for g in low.groups for n in g.param_names]
        overlaps = {
            "benign": histogram_overlap(parameter_vector(benign.model, names), pixels),
            f"lambda={lam_low:g}": histogram_overlap(
                parameter_vector(low.model, names), pixels),
            f"lambda={lam_high:g}": histogram_overlap(
                parameter_vector(high.model, names), pixels),
        }
        return overlaps

    overlaps = experiment()

    print()
    print(format_table(
        ["model", "overlap with target pixel distribution"],
        [[k, f"{v:.3f}"] for k, v in overlaps.items()],
        title="Fig. 2(a): weight-distribution overlap with the pixel distribution",
    ))
    lam_low, _, lam_high = LAMBDA_SWEEP
    # The attack must pull the weight distribution towards the pixels.
    assert overlaps[f"lambda={lam_low:g}"] > overlaps["benign"]
    # A higher rate pulls at least as hard.
    assert overlaps[f"lambda={lam_high:g}"] >= overlaps[f"lambda={lam_low:g}"] - 0.05


def test_fig2b_pixel_distributions_by_std(cache):
    """Images in the std window around the dataset mean have the most
    *typical* pixel distribution -- the property the Sec. IV-A selection
    rule exploits (an attacked model's weights mirror the typical pixel
    distribution, so typical targets encode best)."""

    def experiment():
        train, _ = cache.datasets["rgb"]
        stds = train.per_image_std()
        mean_std = stds.mean()
        windows = {
            "low std": (stds.min() - 1, np.percentile(stds, 20)),
            "window around mean": (np.floor(mean_std) - 4, np.floor(mean_std) + 4),
            "high std": (np.percentile(stds, 80), stds.max() + 1),
        }
        full = train.images.reshape(-1).astype(float)
        typicality = {}
        for label, (low, high) in windows.items():
            indices = select_by_std_range(train, low, high)
            if len(indices) == 0:
                continue
            pixels = train.images[indices].reshape(-1).astype(float)
            typicality[label] = histogram_overlap(pixels, full)
        return typicality

    typicality = experiment()

    print()
    print(format_table(
        ["std window", "overlap with dataset pixel distribution"],
        [[k, f"{v:.3f}"] for k, v in typicality.items()],
        title="Fig. 2(b): pixel-distribution typicality by std window",
    ))
    # The window around the mean is the most typical slice.
    assert typicality["window around mean"] >= typicality["low std"]
    assert typicality["window around mean"] >= typicality["high std"]
