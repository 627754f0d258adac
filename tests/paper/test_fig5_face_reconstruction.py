"""Fig. 5 -- reconstructed face images: our quantized attack vs. the
original weighted-entropy quantization at 3 bits (eight gray levels).

The paper shows the qualitative face grid; this test quantifies the
same comparison as per-image MAPE / SSIM series over the embedded faces
plus an ASCII rendering of the first reconstructed face from each arm.
"""

import numpy as np

from repro.pipeline.reporting import format_table
from tests.paper.experiments import FACE_BITS

_ASCII_LEVELS = " .:-=+*#%@"


def ascii_face(image: np.ndarray, width: int = 24) -> str:
    """Render a grayscale face as ASCII art (coarse visual check)."""
    gray = image[..., 0].astype(float)
    rows = []
    step = max(1, gray.shape[0] // width)
    for r in range(0, gray.shape[0], step):
        row = ""
        for c in range(0, gray.shape[1], step):
            level = int(gray[r, c] / 256.0 * len(_ASCII_LEVELS))
            row += _ASCII_LEVELS[min(level, len(_ASCII_LEVELS) - 1)] * 2
        rows.append(row)
    return "\n".join(rows)


def test_fig5_face_reconstruction_quality(face_experiment):
    attack = face_experiment.attack

    def experiment():
        proposed = attack.quantize(FACE_BITS, "target_correlated")
        original = attack.quantize(FACE_BITS, "weighted_entropy")
        return proposed, original

    proposed, original = experiment()

    count = min(8, proposed.encoded_images)
    rows = []
    for index in range(count):
        rows.append([
            f"face {index}",
            f"{proposed.mape_per_image[index]:.1f}",
            f"{original.mape_per_image[index]:.1f}",
            f"{proposed.ssim_per_image[index]:.3f}",
            f"{original.ssim_per_image[index]:.3f}",
        ])
    print()
    print(format_table(
        ["image", "ours MAPE", "WEQ MAPE", "ours SSIM", "WEQ SSIM"],
        rows, title=f"Fig. 5: per-face reconstruction quality at {FACE_BITS}-bit"))

    print("\noriginal face:")
    print(ascii_face(proposed.originals[0]))
    print("\nours (target-correlated):")
    print(ascii_face(proposed.reconstructions[0]))
    print("\nweighted entropy:")
    print(ascii_face(original.reconstructions[0]))

    # Our method preserves face texture better on average.
    assert proposed.mean_ssim > original.mean_ssim
    assert proposed.mean_mape < original.mean_mape
    # Per-image: ours wins SSIM on a majority of the faces.
    wins = (proposed.ssim_per_image > original.ssim_per_image).mean()
    assert wins > 0.5
