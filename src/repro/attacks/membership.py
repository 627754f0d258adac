"""Membership inference attack (Shokri et al., S&P 2017 -- paper ref [11]).

The simplest strong baseline: a sample was likely a training member if
the model's loss on it is low (Yeom et al.'s loss-threshold attack,
which matches shadow-model attacks on small models).  Included here to
measure a side question the paper raises implicitly: **does embedding
training data in the weights change how much ordinary membership
leakage the model exhibits?**  (`benchmarks/test_ext_related_attacks.py`
compares benign vs. attacked models.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.nn.module import Module
from repro.precision import cast_to_model


def per_sample_loss(model: Module, inputs: np.ndarray, labels: np.ndarray,
                    batch_size: int = 64) -> np.ndarray:
    """Cross-entropy of each sample under the model (no reduction)."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(inputs) != len(labels):
        raise ShapeError(f"inputs ({len(inputs)}) and labels ({len(labels)}) differ")
    inputs = cast_to_model(model, inputs)
    was_training = model.training
    model.eval()
    losses = []
    with no_grad():
        for start in range(0, len(inputs), batch_size):
            logits = model(Tensor(inputs[start:start + batch_size])).data
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            batch_labels = labels[start:start + batch_size]
            losses.append(-log_probs[np.arange(len(batch_labels)), batch_labels])
    if was_training:
        model.train()
    return np.concatenate(losses)


@dataclass(frozen=True)
class MembershipResult:
    """Scores and summary statistics of a loss-threshold MIA."""

    member_losses: np.ndarray
    non_member_losses: np.ndarray

    @property
    def auc(self) -> float:
        """Area under the ROC of 'low loss => member'.

        Computed via the Mann-Whitney U statistic: the probability that
        a random member scores lower loss than a random non-member.
        """
        members = self.member_losses
        non_members = self.non_member_losses
        if len(members) == 0 or len(non_members) == 0:
            return 0.5
        # Rank-based U statistic (ties get half credit).
        combined = np.concatenate([members, non_members])
        order = combined.argsort(kind="stable")
        ranks = np.empty_like(order, dtype=np.float64)
        ranks[order] = np.arange(1, len(combined) + 1)
        # Average ranks over ties.
        sorted_vals = combined[order]
        start = 0
        for i in range(1, len(sorted_vals) + 1):
            if i == len(sorted_vals) or sorted_vals[i] != sorted_vals[start]:
                ranks[order[start:i]] = ranks[order[start:i]].mean()
                start = i
        member_rank_sum = ranks[: len(members)].sum()
        u_statistic = member_rank_sum - len(members) * (len(members) + 1) / 2
        # Low loss should indicate membership, so invert the direction.
        return 1.0 - u_statistic / (len(members) * len(non_members))

    def advantage(self, threshold: float = None) -> float:
        """Best membership advantage (TPR - FPR) over all thresholds."""
        if threshold is not None:
            tpr = float((self.member_losses <= threshold).mean())
            fpr = float((self.non_member_losses <= threshold).mean())
            return tpr - fpr
        thresholds = np.unique(np.concatenate([self.member_losses,
                                               self.non_member_losses]))
        best = 0.0
        for value in thresholds:
            best = max(best, self.advantage(float(value)))
        return best


def membership_inference(
    model: Module,
    member_inputs: np.ndarray,
    member_labels: np.ndarray,
    non_member_inputs: np.ndarray,
    non_member_labels: np.ndarray,
) -> MembershipResult:
    """Run the loss-threshold MIA against a released model."""
    return MembershipResult(
        member_losses=per_sample_loss(model, member_inputs, member_labels),
        non_member_losses=per_sample_loss(model, non_member_inputs, non_member_labels),
    )
