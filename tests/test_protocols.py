import numpy as np
import pytest

from mixerlab import (
    GroundTruthPartition,
    PromiseViolationError,
    QuantumState,
    make_offset_mixer,
)
from mixerlab.errors import InvalidArgumentError
from mixerlab.protocols import (
    ARTHUR_QUERIES_PER_AM_TRIAL,
    build_qma_witness,
    run_am_mbcp,
    run_coam_mbcp,
    run_qma_mc,
    sd_reduction_mbcp,
    sd_reduction_scp,
)


@pytest.fixture
def balanced():
    truth = GroundTruthPartition.from_components(3, [[0, 1, 2, 3], [4, 5, 6, 7]])
    return make_offset_mixer(truth), truth


@pytest.fixture
def single():
    truth = GroundTruthPartition.from_components(3, [list(range(8))])
    return make_offset_mixer(truth), truth


def test_guessing_protocol_honest_rate(balanced):
    oracle, truth = balanced
    est = run_am_mbcp(oracle, truth, "honest", trials=4000, seed=1)
    assert est.estimate >= 0.75 - 3 * est.ci95


def test_guessing_protocol_cheating_rate(single):
    oracle, truth = single
    est = run_am_mbcp(oracle, truth, "optimal_cheat", trials=4000, seed=2)
    assert abs(est.estimate - 0.5) <= 3 * est.ci95


def test_guessing_protocol_query_budget(balanced):
    oracle, truth = balanced
    from mixerlab.protocols import am_mbcp_trial

    _, queries = am_mbcp_trial(oracle, truth, "honest", np.random.default_rng(0))
    assert queries == ARTHUR_QUERIES_PER_AM_TRIAL == 4


def test_guessing_protocol_rejects_unbalanced_instances():
    truth = GroundTruthPartition.from_components(3, [[0, 1, 2, 3, 4], [5, 6]])
    oracle = make_offset_mixer(truth)
    with pytest.raises(PromiseViolationError):
        run_am_mbcp(oracle, truth, "honest", trials=10, seed=0)


def test_matching_protocol_completeness(single):
    oracle, truth = single
    est = run_coam_mbcp(oracle, truth, trials=2000, seed=3)
    assert est.estimate == 1.0


def test_matching_protocol_soundness(balanced):
    oracle, truth = balanced
    est = run_coam_mbcp(oracle, truth, trials=4000, seed=4)
    assert est.estimate <= 0.5 + 3 * est.ci95


def test_witness_protocol_valid_witness(balanced):
    oracle, truth = balanced
    witness = build_qma_witness(truth, 1, 2)
    est = run_qma_mc(oracle, witness, trials=3000, seed=5)
    assert abs(est.estimate - 0.5) <= 3 * est.ci95


def test_witness_protocol_single_component(single):
    oracle, truth = single
    uniform = QuantumState.uniform(8, range(8))
    est = run_qma_mc(oracle, uniform.tensor(uniform), trials=1000, seed=6)
    assert est.estimate <= 1e-6


def test_witness_requires_distinct_components(balanced):
    _, truth = balanced
    with pytest.raises(InvalidArgumentError):
        build_qma_witness(truth, 1, 1)


def test_pair_distribution_distance(balanced, single):
    oracle, truth = balanced
    assert sd_reduction_scp(oracle, truth, 0, 1) == pytest.approx(0.0)
    assert sd_reduction_scp(oracle, truth, 0, 4) == pytest.approx(1.0)
    assert sd_reduction_mbcp(oracle, truth) >= 0.75
    o1, t1 = single
    assert sd_reduction_mbcp(o1, t1) <= 2.0 ** -3
