"""Table I -- weighted-entropy quantization as a defense.

Paper: the original correlated value encoding attack (uniform rate) is
quantized with WEQ at 8/6/4 bits; accuracy and the recognizable-image
count collapse as the bit width drops, and raising lambda_c at 4-bit
trades accuracy for recognizable images.

Paper numbers (ResNet-34 / CIFAR-10, 151 encoded RGB images):
    lambda=3:  8b 88 imgs / 88.79%,  6b 82 / 88.16%,  4b 58 / 83.04%
    lambda=5:  4b 59 / 80.35%
    lambda=10: 4b 75 / 75.46%
"""

from repro.pipeline.reporting import format_table, percent
from tests.paper.experiments import BITS_SWEEP, LAMBDA_SWEEP, PAPER_BITS, PAPER_LAMBDAS


def test_table1_weq_defense(cache):
    lam_low, lam_mid, lam_high = LAMBDA_SWEEP
    lowest_bits = BITS_SWEEP[-1]

    def experiment():
        rows = []
        # lambda low across the bit sweep (paper: 8/6/4 -> ours: 4/3/2).
        attack = cache.original_attack("rgb", lam_low)
        baseline = attack.evaluate()
        for bits in BITS_SWEEP:
            ev = attack.quantize(bits, "weighted_entropy")
            rows.append((lam_low, bits, ev))
        # lambda mid/high at the lowest bit width.
        for lam in (lam_mid, lam_high):
            attack = cache.original_attack("rgb", lam)
            rows.append((lam, lowest_bits, attack.quantize(lowest_bits, "weighted_entropy")))
        return baseline, rows

    baseline, rows = experiment()

    table_rows = [
        [f"{lam:g}", bits, ev.recognized_count, f"{ev.encoded_images}",
         percent(ev.accuracy)]
        for lam, bits, ev in rows
    ]
    print()
    print(format_table(
        ["lambda", "bits", "recognizable", "encoded", "accuracy"], table_rows,
        title=(f"Table I: original attack + WEQ (paper lambdas {PAPER_LAMBDAS} -> "
               f"scaled {LAMBDA_SWEEP}; paper bits {PAPER_BITS} -> scaled {BITS_SWEEP})"),
    ))
    print(f"uncompressed attack (lambda={LAMBDA_SWEEP[0]:g}): "
          f"{baseline.recognized_count}/{baseline.encoded_images} recognizable, "
          f"accuracy {percent(baseline.accuracy)}")

    by_key = {(lam, bits): ev for lam, bits, ev in rows}
    low = LAMBDA_SWEEP[0]
    high_bits, _, low_bits = BITS_SWEEP
    # Claim 1: at fixed lambda, dropping the bit width hurts accuracy
    # and/or recognizability (the defense effect).
    assert by_key[(low, low_bits)].accuracy <= by_key[(low, high_bits)].accuracy + 0.02
    defense_bites = (
        by_key[(low, low_bits)].accuracy < baseline.accuracy - 0.05
        or by_key[(low, low_bits)].recognized_count < baseline.recognized_count
    )
    assert defense_bites, "low-bit WEQ failed to degrade the attack"
    # Claim 2: lowest-bit WEQ accuracy never beats the uncompressed attack.
    for lam in LAMBDA_SWEEP:
        assert by_key[(lam, low_bits)].accuracy <= baseline.accuracy + 0.02
