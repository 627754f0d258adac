"""Batch normalization over NCHW activations.

The normalization itself is composed from differentiable primitives, so
the backward pass comes for free from autograd; only the running-stat
bookkeeping is hand-written (it is not differentiated through).

When the active backend advertises ``fused_batchnorm`` (the fast
backend does), training-mode forward instead routes through the fused
``batchnorm_train_forward``/``batchnorm_train_backward`` kernels via a
single graph node -- same math to allclose tolerance, a fraction of
the graph ops.  The reference backend keeps the composed path so its
training runs stay bit-identical to the original code.
"""

from __future__ import annotations

import numpy as np

from repro import backend as _backend
from repro.autograd import functional as F
from repro.autograd.ops_nn import BatchNormTrainFn
from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """BatchNorm over NCHW activations (per-channel statistics)."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _update_running(self, batch_mean: np.ndarray, batch_var: np.ndarray) -> None:
        m = self.momentum
        self.update_buffer("running_mean", (1 - m) * self.running_mean + m * batch_mean)
        self.update_buffer("running_var", (1 - m) * self.running_var + m * batch_var)

    def forward(self, x: Tensor) -> Tensor:
        axes = (0, 2, 3)
        shape = (1, self.num_features, 1, 1)
        if not self.training and not is_grad_enabled():
            # inference fast path: one fused kernel, no graph nodes
            x_data = x.data if isinstance(x, Tensor) else np.asarray(x)
            out = _backend.active().batchnorm_infer(
                x_data,
                self.running_mean.reshape(shape),
                self.running_var.reshape(shape),
                self.gamma.data.reshape(shape),
                self.beta.data.reshape(shape),
                self.eps,
            )
            return Tensor(out)
        if self.training:
            K = _backend.active()
            if getattr(K, "fused_batchnorm", False):
                # fused path: statistics, normalize-scale-shift and the
                # analytic backward inside one graph node (see
                # ops_nn.BatchNormTrainFn), which computes mean/var in
                # its own forward.
                x_t = x if isinstance(x, Tensor) else Tensor(x)
                out = BatchNormTrainFn.apply(
                    x_t,
                    F.reshape(self.gamma, shape),
                    F.reshape(self.beta, shape),
                    axes=axes, eps=self.eps,
                )
                fn = out._creator
                if fn is not None:
                    self._update_running(
                        fn.mean.reshape(self.num_features),
                        fn.var.reshape(self.num_features),
                    )
                else:
                    # no-grad training forward: no node was recorded, so
                    # compute the statistics the layer still has to absorb
                    mean, var = K.batchnorm_stats(x_t.data, axes)
                    self._update_running(
                        mean.reshape(self.num_features),
                        var.reshape(self.num_features),
                    )
                return out
            mean = F.mean(x, axis=axes, keepdims=True)
            centered = F.sub(x, mean)
            variance = F.mean(F.mul(centered, centered), axis=axes, keepdims=True)
            self._update_running(
                mean.data.reshape(self.num_features),
                variance.data.reshape(self.num_features),
            )
            normalized = F.div(centered, F.sqrt(F.add(variance, Tensor(self.eps))))
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            std = Tensor(np.sqrt(self.running_var.reshape(shape) + self.eps))
            normalized = F.div(F.sub(x, mean), std)
        gamma = F.reshape(self.gamma, shape)
        beta = F.reshape(self.beta, shape)
        return F.add(F.mul(normalized, gamma), beta)
