"""Manufacturing variability across nodes.

Identical SKUs differ in leakage and switching efficiency; under a power
cap those differences translate directly into frequency — and therefore
progress — spread (Rountree et al., cited by the paper). Variability is
modelled as per-node lognormal factors on the static (``leak_per_volt``)
and dynamic (``c_dyn``) power coefficients: an inefficient node draws
more power at the same operating point, so a capped run settles it at a
lower frequency.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hardware.config import NodeConfig

__all__ = ["perturb_config", "node_configs"]


def perturb_config(cfg: NodeConfig, rng: np.random.Generator, *,
                   sigma_dynamic: float = 0.05,
                   sigma_static: float = 0.08) -> NodeConfig:
    """A per-node variant of ``cfg`` with perturbed power coefficients.

    Parameters
    ----------
    cfg:
        Baseline node description.
    rng:
        Per-node random stream (seed it from the node index for
        reproducible clusters).
    sigma_dynamic, sigma_static:
        Lognormal sigmas of the dynamic / static coefficient factors.
        Defaults give a few percent dynamic and ~8 % leakage spread, in
        line with published Ivy Bridge/Haswell measurements.
    """
    if sigma_dynamic < 0 or sigma_static < 0:
        raise ConfigurationError("variability sigmas must be non-negative")
    dyn_factor = float(np.exp(rng.normal(0.0, sigma_dynamic)))
    static_factor = float(np.exp(rng.normal(0.0, sigma_static)))
    return dataclasses.replace(
        cfg,
        c_dyn=cfg.c_dyn * dyn_factor,
        leak_per_volt=cfg.leak_per_volt * static_factor,
    )


def node_configs(base: NodeConfig, n_nodes: int, seed: int,
                 variability: tuple[float, float] | None
                 ) -> list[NodeConfig]:
    """The per-node configs of a cluster of ``n_nodes`` nodes.

    Node ``i`` is ``base`` perturbed (:func:`perturb_config`) by its own
    stream ``default_rng([seed, i])`` with ``variability`` as the
    ``(sigma_dynamic, sigma_static)`` pair; with ``variability=None``
    every node is ``base``.
    """
    if variability is None:
        return [base] * n_nodes
    sigma_dynamic, sigma_static = variability
    return [perturb_config(base, np.random.default_rng([seed, i]),
                           sigma_dynamic=sigma_dynamic,
                           sigma_static=sigma_static)
            for i in range(n_nodes)]
