"""Fig. 4 -- MAPE / accuracy / recognized count of three arms across the
correlation-rate sweep:

* Cor      -- original correlation attack, uncompressed;
* Cor+WQ   -- original attack + weighted-entropy quantization (low bit);
* Comb     -- our full flow (pre-processing + layer-wise rates +
              target-correlated quantization) at the same bit width.

Paper claims: Cor+WQ suffers a large accuracy drop that worsens with the
rate, while Comb restores accuracy and recognizable-image counts to
near-uncompressed levels.
"""

from repro.pipeline.reporting import format_table, percent
from tests.paper.experiments import BITS_SWEEP, LAMBDA_SWEEP

BITS = BITS_SWEEP[1]  # mid-sweep (paper uses its 4-bit point)


def test_fig4_three_arm_comparison(cache):
    def experiment():
        results = {}
        for lam in LAMBDA_SWEEP:
            original = cache.original_attack("rgb", lam)
            cor = original.evaluate()
            cor_wq = original.quantize(BITS, "weighted_entropy")
            ours = cache.our_attack("rgb", lam)
            comb = ours.quantize(BITS, "target_correlated")
            results[lam] = {"Cor": cor, "Cor+WQ": cor_wq, "Comb": comb}
        return results

    results = experiment()

    rows = []
    for lam, arms in results.items():
        for arm, ev in arms.items():
            rows.append([f"{lam:g}", arm, f"{ev.mean_mape:.2f}",
                         percent(ev.accuracy),
                         f"{ev.recognized_count}/{ev.encoded_images}"])
    print()
    print(format_table(["lambda", "arm", "MAPE", "accuracy", "recognized"],
                       rows, title=f"Fig. 4 at {BITS}-bit"))

    for lam, arms in results.items():
        cor, cor_wq, comb = arms["Cor"], arms["Cor+WQ"], arms["Comb"]
        # Comb restores accuracy relative to Cor+WQ.
        assert comb.accuracy >= cor_wq.accuracy - 0.02, f"lambda={lam}"
        # Comb's recognizable fraction matches or beats Cor+WQ.
        assert comb.recognized_percent >= cor_wq.recognized_percent - 2.0, f"lambda={lam}"
        # Comb lands near the uncompressed attack's accuracy.
        assert comb.accuracy >= cor.accuracy - 0.12, f"lambda={lam}"
    # The WEQ accuracy drop exists somewhere in the sweep (defense effect).
    assert any(
        arms["Cor+WQ"].accuracy < arms["Cor"].accuracy - 0.02
        or arms["Cor+WQ"].recognized_count < arms["Cor"].recognized_count
        for arms in results.values()
    )
