"""Finite-difference gradient check of a whole model, for the tests.

`gradient_check` copies the model to float64 (`cast`), takes the analytic
gradient of the Gaussian NLL from one backward pass, and compares it with
central differences at randomly probed weights. Acceptance criterion 3 and
the training tests gate on its report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sardist.autodiff import no_grad
from sardist.model import Model
from sardist.training import nll_loss


def cast(model: Model, dtype) -> Model:
    """Copy of `model` with parameters cast to `dtype`."""
    return Model(model.cfg, params={name: p.data.astype(dtype) for name, p in model.params.items()})


def relative_error(a: float, b: float, floor: float = 1e-8) -> float:
    """|a - b| / max(|a|, |b|, floor)."""
    return abs(a - b) / max(abs(a), abs(b), floor)


@dataclass
class GradientCheckReport:
    max_relative_error: float
    probes: list[tuple[str, int, float, float, float]]  # (name, flat index, analytic, fd, rel err)

    @property
    def passed(self) -> bool:
        return self.max_relative_error < 1e-4


def gradient_check(model: Model, x: np.ndarray, target: np.ndarray,
                   num_probes: int = 50, h: float = 1e-5,
                   seed: int = 0) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    Runs in float64 with dropout off. Probes `num_probes` weights chosen
    uniformly over the flattened parameter vector (at least one per probe
    draw; duplicates are re-drawn).
    """
    m64 = cast(model, np.float64)
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)

    def loss_value() -> float:
        with no_grad():
            mu, sigma = m64.forward(x, train=False)
            return float(nll_loss(mu, sigma, target).data)

    m64.zero_grads()
    mu, sigma = m64.forward(x, train=False)
    loss = nll_loss(mu, sigma, target)
    loss.backward()
    analytic = {name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for name, p in m64.params.items()}

    names = sorted(m64.params)
    sizes = np.array([m64.params[n].data.size for n in names])
    cum = np.cumsum(sizes)
    rng = np.random.default_rng(seed)
    chosen: set[tuple[str, int]] = set()
    probes: list[tuple[str, int, float, float, float]] = []
    max_err = 0.0
    while len(probes) < num_probes:
        flat = int(rng.integers(0, int(cum[-1])))
        which = int(np.searchsorted(cum, flat, side="right"))
        name = names[which]
        local = flat - (int(cum[which - 1]) if which > 0 else 0)
        if (name, local) in chosen:
            continue
        chosen.add((name, local))
        param = m64.params[name]
        view = param.data.reshape(-1)
        original = view[local]
        view[local] = original + h
        up = loss_value()
        view[local] = original - h
        down = loss_value()
        view[local] = original
        fd = (up - down) / (2.0 * h)
        an = float(analytic[name].reshape(-1)[local])
        err = relative_error(an, fd)
        probes.append((name, local, an, fd, err))
        max_err = max(max_err, err)
    return GradientCheckReport(max_err, probes)
