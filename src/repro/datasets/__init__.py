"""Datasets for the reproduction.

The paper uses CIFAR-10 and FaceScrub; this offline environment has
neither, so both are replaced by deterministic procedural generators
that preserve the properties the attack depends on (see DESIGN.md):

* a learnable multi-class image classification task,
* a realistic spread of per-image pixel standard deviation (drives the
  Sec. IV-A data pre-processing), and
* for faces, identity-consistent smooth structure (drives SSIM results).
"""

from repro.datasets.base import ImageDataset
from repro.datasets.synthetic_cifar import SyntheticCifarConfig, make_synthetic_cifar
from repro.datasets.synthetic_faces import SyntheticFacesConfig, make_synthetic_faces
from repro.datasets.synthetic_digits import SyntheticDigitsConfig, make_synthetic_digits
from repro.datasets.transforms import (
    images_to_batch,
    normalize_batch,
    to_grayscale,
)
from repro.datasets.splits import train_test_split

__all__ = [
    "ImageDataset", "SyntheticCifarConfig", "make_synthetic_cifar",
    "SyntheticFacesConfig", "make_synthetic_faces",
    "SyntheticDigitsConfig", "make_synthetic_digits", "to_grayscale",
    "images_to_batch", "normalize_batch", "train_test_split",
]
