"""Table IV -- face recognition model at 3-bit quantization.

Paper (Inception-ResNet-v1 / FaceScrub, lambda=10, 3-bit, 924 faces):

    uncompressed:        95.30%  MAPE 15.8  644 imgs<20  SSIM 0.709  718 >0.5
    proposed quant:      94.80%  MAPE 22.7  468          SSIM 0.412  310
    original (WEQ):      93.70%  MAPE 28.6  216          SSIM 0.298   12

Claims: at 3 bits the proposed quantizer beats WEQ on every quality
metric and slightly beats it on accuracy; the uncompressed model upper-
bounds both.
"""

from repro.pipeline.reporting import format_table, percent


def test_table4_face_quantization(face_experiment):
    attack = face_experiment.attack
    uncompressed = face_experiment.uncompressed

    def experiment():
        proposed = attack.quantize(3, "target_correlated")
        original = attack.quantize(3, "weighted_entropy")
        return proposed, original

    proposed, original = experiment()

    rows = []
    for name, ev in [("uncompressed", uncompressed),
                     ("proposed quantization (3b)", proposed),
                     ("original WEQ (3b)", original)]:
        rows.append([
            name, percent(ev.accuracy), f"{ev.mean_mape:.1f}",
            f"{ev.mape_below(20.0)}/{ev.encoded_images}",
            f"{ev.mean_ssim:.3f}",
            f"{ev.ssim_above(0.5)}/{ev.encoded_images}",
        ])
    print()
    print(format_table(
        ["model", "accuracy", "MAPE", "MAPE<20", "mean SSIM", "SSIM>0.5"],
        rows, title="Table IV: face model, lambda(high), 3-bit"))

    # Proposed quantization beats WEQ on every quality metric.
    assert proposed.mean_mape < original.mean_mape
    assert proposed.mean_ssim > original.mean_ssim
    assert proposed.mape_below(20.0) >= original.mape_below(20.0)
    assert proposed.ssim_above(0.5) >= original.ssim_above(0.5)
    # ... and does not lose accuracy to it.
    assert proposed.accuracy >= original.accuracy - 0.02
    # The uncompressed model upper-bounds reconstruction quality.
    assert uncompressed.mean_mape <= proposed.mean_mape + 1.0
