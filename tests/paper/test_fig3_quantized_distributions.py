"""Fig. 3 -- weight distributions of the quantized attack model on 32
quantization levels: weighted-entropy vs. target-correlated.

Paper claim: WEQ significantly reshapes the attacked weight distribution
(degrading accuracy beyond what retraining can recover), while the
target-correlated quantizer approximates the original distribution.
Quantified as histogram overlap / KS distance between each quantized
weight vector and the unquantized attacked weights, at 32 levels
(5-bit), exactly the figure's setting.
"""

from repro.metrics import histogram_overlap, ks_distance
from repro.pipeline.reporting import format_table
from repro.quantization import TargetCorrelatedQuantizer, WeightedEntropyQuantizer
from repro.quantization.target_correlated import detect_flip
from tests.paper.experiments import LAMBDA_SWEEP

LEVELS = 32  # the figure's "32 quantization levels"


def test_fig3_quantizer_distribution_preservation(cache):
    def experiment():
        attack = cache.original_attack("rgb", LAMBDA_SWEEP[1])
        group = next(g for g in attack.groups if g.payload is not None)
        weights = group.weight_vector()
        flip = detect_flip(weights, group.payload.secret_vector())

        weq = WeightedEntropyQuantizer(LEVELS)
        ours = TargetCorrelatedQuantizer(attack.payload.images, LEVELS, flip=flip)
        results = {}
        for name, quantizer in [("weighted_entropy", weq), ("target_correlated", ours)]:
            codebook, assignment = quantizer.quantize_vector(weights)
            recon = codebook[assignment]
            results[name] = {
                "overlap": histogram_overlap(recon, weights, bins=32),
                "ks": ks_distance(recon, weights),
            }
        return results

    results = experiment()

    print()
    print(format_table(
        ["quantizer", "histogram overlap", "KS distance"],
        [[name, f"{r['overlap']:.3f}", f"{r['ks']:.3f}"]
         for name, r in results.items()],
        title=f"Fig. 3: distribution preservation at {LEVELS} levels",
    ))
    ours = results["target_correlated"]
    weq = results["weighted_entropy"]
    # Algorithm 1 preserves the attacked distribution better than WEQ.
    assert ours["overlap"] > weq["overlap"]
    assert ours["ks"] < weq["ks"]
    # And preserves it well in absolute terms.
    assert ours["overlap"] > 0.8
