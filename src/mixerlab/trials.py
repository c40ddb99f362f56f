"""Seeded serial trial execution.

Each trial gets its own generator derived from (seed, trial index), so a
trial's random stream depends only on its index, never on how many draws
earlier trials made. Trials run in index order in the calling thread.
"""

import numpy as np


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def run_seeded_trials(fn, trials: int, seed: int) -> list:
    """Run ``fn(trial_index, rng)`` for each trial; results in index order."""
    return [fn(t, trial_rng(seed, t)) for t in range(trials)]
