"""Unit-cost probes: the per-call costs the ROADMAP baseline quotes.

Each probe times one operation in a loop with tracing off, takes the median
of several repeats, and is compared with the baseline figure. A figure that
differs by more than the noise seen on this class of machine is reported as
not reproduced; the measured value is never adjusted.
"""

import statistics
import time

import numpy as np

# ROADMAP "Baseline" (2-core box, Python 3.11.7, numpy 2.4.6): (value, unit)
BASELINE = {
    "oracle.apply_int_arg_us": (2.7, "us"),
    "oracle.apply_bits_arg_us": (5.5, "us"),
    "instances.offset_apply_fn_us": (0.84, "us"),
    "instances.graphiso5_apply_fn_us": (8.3, "us"),
    "trials.default_rng_us": (19.6, "us"),
    "quantum.projector_n3_ms": (0.23, "ms"),
    "quantum.projector_n6_ms": (0.73, "ms"),
}

# Medians of repeats taken in separate processes differ by up to ~20% here.
NOISE = 0.2

SCALE = {"us": 1e6, "ms": 1e3}


def _per_call(fn, loops: int, repeats: int = 7) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` timed loops."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        times.append((time.perf_counter() - t0) / loops)
    return statistics.median(times)


def run_probes() -> dict[str, dict]:
    from mixerlab.instances import make_graph_iso_mixer, make_offset_mixer
    from mixerlab.partition import GroundTruthPartition
    from mixerlab.quantum import QuantumState, measure_component_projector
    from mixerlab.trials import trial_rng

    offset8 = make_offset_mixer(GroundTruthPartition.from_components(3, [[0, 1, 2, 3], [4, 5, 6, 7]]))
    session = offset8.session(rng=np.random.default_rng(0))
    enc = offset8.index_ints[5]
    enc_bits = format(enc, f"0{offset8.index_width}b")
    graph5, _ = make_graph_iso_mixer(5)
    perm5 = graph5.index_ints[77]
    offset6 = make_offset_mixer(GroundTruthPartition.from_components(3, [[0, 1, 2], [3, 4]]))
    graph4, _ = make_graph_iso_mixer(4)
    rng = np.random.default_rng(0)
    basis3 = QuantumState.basis((8,), 1)
    basis6 = QuantumState.basis((64,), 9)

    seconds = {
        "oracle.apply_int_arg_us": _per_call(lambda: session.apply(enc, 6), 20000),
        "oracle.apply_bits_arg_us": _per_call(lambda: session.apply(enc_bits, "110"), 20000),
        "instances.offset_apply_fn_us": _per_call(lambda: offset8._apply_fn(enc, 6), 50000),
        "instances.graphiso5_apply_fn_us": _per_call(lambda: graph5._apply_fn(perm5, 0b1011001110), 5000),
        "trials.default_rng_us": _per_call(lambda: trial_rng(12345, 678), 2000),
        "quantum.projector_n3_ms": _per_call(lambda: measure_component_projector(basis3, offset6, rng), 200),
        "quantum.projector_n6_ms": _per_call(lambda: measure_component_projector(basis6, graph4, rng), 100),
    }
    out = {}
    for name, per_call in seconds.items():
        baseline, unit = BASELINE[name]
        value = per_call * SCALE[unit]
        ratio = value / baseline
        out[name] = {
            "value": value,
            "unit": unit,
            "baseline": baseline,
            "ratio_to_baseline": ratio,
            "reproduced": abs(ratio - 1.0) <= NOISE,
        }
    return out
