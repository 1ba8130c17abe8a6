"""Monte Carlo helpers that only the tests need."""

import numpy as np


def two_burst_dwell_trials(
    tau1: float, tau2: float, tau3: float, trials: int = 100_000, seed: int = 0
) -> float:
    """Monte Carlo mean dwell for a device heard exactly twice.

    The device probes at fixed instants separated by tau2; it entered at a
    uniform point of the preceding interval (tau1) and leaves at a uniform
    point of the following one (tau3).  The mean dwell converges to
    (tau1 + 2*tau2 + tau3) / 2.
    """
    rng = np.random.default_rng(seed)
    entry = rng.uniform(0.0, tau1, trials)
    exit_ = tau1 + tau2 + rng.uniform(0.0, tau3, trials)
    return float(np.mean(exit_ - entry))
