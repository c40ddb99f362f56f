"""Dense reference objects for the quantum engine's tests.

The library never builds the projector as a matrix; these do, so that tests
and the acceptance criteria can compare the measurement with P itself.
"""

import numpy as np

from mixerlab import MixerOracle, QuantumState


def state_fidelity(a: QuantumState, b: QuantumState) -> float:
    return float(abs(a.overlap(b)) ** 2)


def component_projector_matrix(oracle: MixerOracle) -> np.ndarray:
    """|Ind|^-1 sum_j Mtilde_j as a dense matrix on all 2^n basis states."""
    dim = 1 << oracle.n
    fwd, _ = oracle.permutation_tables()
    acc = np.zeros((dim, dim))
    np.add.at(acc, (fwd, np.arange(dim)), 1.0)
    return acc / len(oracle.index_ints)


def exact_component_projector(truth) -> np.ndarray:
    """P = sum_k |S_k><S_k| plus the identity on garbage.

    The mixer acts as the identity on basis states outside S, so the
    averaged-mixer matrix equals P extended by the garbage identity.
    """
    dim = 1 << truth.n
    p = np.zeros((dim, dim))
    for cid in range(1, truth.num_components + 1):
        elems = list(truth.component_elements(cid))
        p[np.ix_(elems, elems)] = 1.0 / len(elems)
    for x in truth.garbage:
        p[x, x] = 1.0
    return p
