"""Evaluation metrics used by the paper.

* MAPE -- mean absolute pixel error (reconstruction quality).
* SSIM -- structural similarity (Wang et al. 2004; face texture).
* accuracy -- attack evasiveness.
* recognizability -- "recognizable images by the model itself".
* distribution distances -- histogram overlap / KS statistic for the
  Fig. 2 / Fig. 3 distribution-shape claims.
"""

from repro.metrics.mape import batch_mape, count_below_threshold, mape
from repro.metrics.ssim import batch_ssim, count_above_threshold, gaussian_filter, ssim
from repro.metrics.psnr import batch_psnr, psnr
from repro.metrics.accuracy import evaluate_accuracy, predict_classes
from repro.metrics.recognizability import recognizable_count, recognizable_mask
from repro.metrics.distribution import histogram_overlap, ks_distance, ks_statistic

__all__ = [
    "mape", "batch_mape", "count_below_threshold",
    "ssim", "batch_ssim", "count_above_threshold", "gaussian_filter",
    "psnr", "batch_psnr",
    "evaluate_accuracy", "predict_classes",
    "recognizable_count", "recognizable_mask",
    "histogram_overlap", "ks_distance", "ks_statistic",
]
