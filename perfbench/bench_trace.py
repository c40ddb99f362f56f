"""In-memory span tracer for the benchmark's traced run.

``Tracer.install()`` wraps the public functions of each mixerlab module, and
``Tracer.remove()`` puts every original object back. Nothing under ``src/``
is edited: module-level functions are replaced in every mixerlab module that
holds them (so ``from .bits import as_int`` copies are covered too), methods
are replaced on their classes, and family maps are wrapped as they are handed
to ``MixerOracle`` / ``LabelOracle``.

A span is (name, start, end, parent, trial). ``name`` is the layer and the
qualified name of the wrapped callable; ``trial`` is the index most recently
passed to ``trial_rng``, or -1 outside trials. Self time is a span's duration
minus the durations of its direct children. Each name belongs to one span
group, and the per-layer metrics count calls and sum self time by group.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (module, attribute path, span group); a group is "<layer>.<part>".
TARGETS = (
    ("bits", "as_int", "bits.convert"),
    ("bits", "to_bits", "bits.convert"),
    ("bits", "from_bits", "bits.convert"),
    ("oracle", "QuerySession.__init__", "oracle.session"),
    ("oracle", "LabelSession.__init__", "oracle.session"),
    ("oracle", "QuerySession.test_membership_s", "oracle.meter"),
    ("oracle", "QuerySession.sample_s", "oracle.meter"),
    ("oracle", "QuerySession.test_membership_ind", "oracle.meter_ind"),
    ("oracle", "QuerySession.sample_ind", "oracle.meter"),
    ("oracle", "QuerySession.apply", "oracle.meter_apply"),
    ("oracle", "QuerySession.apply_inverse", "oracle.meter_apply"),
    ("oracle", "MixerOracle.apply_int", "oracle.apply_int"),
    ("oracle", "MixerOracle.inverse_int", "oracle.apply_int"),
    ("oracle", "MixerOracle.permutation_table", "oracle.perm_table"),
    ("oracle", "LabelOracle.query", "oracle.label"),
    ("partition", "GroundTruthPartition.__init__", "partition.init"),
    ("partition", "GroundTruthPartition.from_components", "partition.build"),
    ("partition", "GroundTruthPartition.from_json_dict", "partition.build"),
    ("instances", "PointFunction.__init__", "instances.point"),
    ("instances", "make_offset_mixer", "instances.mixer"),
    ("instances", "make_graph_iso_mixer", "instances.mixer"),
    ("instances", "make_coset_mixer", "instances.mixer"),
    ("instances", "make_grover_mixer", "instances.mixer"),
    ("instances", "make_grover_partition", "instances.build"),
    ("instances", "instance_from_config", "instances.build"),
    ("layered", "make_layered_instance", "layered.instance"),
    ("layered", "hide_instance", "layered.build"),
    ("layered", "apply_hiding", "layered.hide"),
    ("quantum", "QuantumState.__init__", "quantum.state"),
    ("quantum", "DensityMatrix.__init__", "quantum.density"),
    ("quantum", "trace_distance", "quantum.density"),
    ("quantum", "measure_component_projector", "quantum.projector"),
    ("quantum", "swap_test", "quantum.swap"),
    ("verify", "full_connectivity_witness", "verify.witness"),
    ("verify", "verify_no_cross_mixing", "verify.no_cross"),
    ("verify", "verify_instant_mixing", "verify.mixing"),
    ("protocols", "build_qma_witness", "protocols.witness"),
    ("protocols", "qma_verify_mc", "protocols.qma_verify"),
    ("counterfeit", "ReferenceCounterfeiter.__call__", "counterfeit.counterfeiter"),
    ("counterfeit", "LabelScanningCounterfeiter.__call__", "counterfeit.counterfeiter"),
    ("counterfeit", "run_counterfeiter", "counterfeit.run"),
    ("counterfeit", "distinguishing_experiment", "counterfeit.driver"),
    ("counterfeit", "grover_embedding_query_experiment", "counterfeit.driver"),
    ("counterfeit", "fixed_point_probe_tester", "counterfeit.tester"),
    ("trials", "trial_rng", "trials.rng"),
    ("trials", "run_seeded_trials", "trials.runner"),
    ("cli", "run_command", "cli.run_command"),
    ("cli", "_run_experiment", "cli.experiment"),
)

# Family maps and label closures are attributed by the module that made them.
CLOSURE_GROUPS = {"mixerlab.instances": "instances.apply_fn", "mixerlab.layered": "layered.apply"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.groups: list[str] = []
        self.group_ids: dict[str, int] = {}
        self.name_group: list[int] = []
        self.name = array("l")
        self.parent = array("l")
        self.trial = array("l")
        self.start = array("d")
        self.end = array("d")
        self.trial_id = -1
        self.stats = {
            "projector_ones": 0,
            "projector_work_bytes": 0,
            "qma_accepts": 0,
            "ind_hits": 0,
            "partition_elements": 0,
        }
        self.point_functions = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, group: str, fn, before=None, after=None):
        """``fn`` recording one span per call; ``before(args)`` runs before
        the span opens and ``after(args, result)`` after it closes."""
        if group not in self.group_ids:
            self.group_ids[group] = len(self.groups)
            self.groups.append(group)
        name = f"{group.split('.')[0]}.{fn.__qualname__}"
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_group.append(self.group_ids[group])
        nid = self.name_ids[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.trial.append(self.trial_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    @property
    def span_count(self) -> int:
        return len(self.start)

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, value):
        # vars() keeps descriptors such as classmethod intact; __defaults__
        # lives outside a function's __dict__
        own = vars(owner)
        self._patches.append((owner, attr, own[attr] if attr in own else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr: str, group: str, **hooks):
        original = getattr(module, attr)
        wrapper = self.wrap(group, original, **hooks)
        for name, mod in list(sys.modules.items()):
            if name == "mixerlab" or name.startswith("mixerlab."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return wrapper

    def _patch_method(self, cls, attr: str, group: str, **hooks):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(self.wrap(group, original.__func__, **hooks))
        else:
            wrapper = self.wrap(group, original, **hooks)
        self._set(cls, attr, wrapper)

    def _wrap_closures(self, cls, names: tuple[str, ...]):
        original = cls.__init__
        signature = inspect.signature(original)

        def init(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for name in names:
                fn = bound.arguments[name]
                group = CLOSURE_GROUPS.get(getattr(fn, "__module__", None))
                if group is not None:
                    bound.arguments[name] = self.wrap(group, fn)
            original(*bound.args, **bound.kwargs)

        self._set(cls, "__init__", init)

    def install(self):
        """Wrap every target; the caller must call ``remove()`` afterwards."""
        import mixerlab.cli  # noqa: F401  (loads every module below)

        modules = {name: sys.modules[f"mixerlab.{name}"] for name, _, _ in TARGETS}
        hooks = {
            "trial_rng": {"before": self._enter_trial},
            "run_seeded_trials": {"after": self._leave_trials},
            "distinguishing_experiment": {"after": self._leave_trials},
            "grover_embedding_query_experiment": {"after": self._leave_trials},
            "measure_component_projector": {"after": self._after_projector},
            "qma_verify_mc": {"after": self._after_qma_verify},
            "QuerySession.test_membership_ind": {"after": self._after_ind_test},
            "GroundTruthPartition.__init__": {"after": self._after_partition},
            "PointFunction.__init__": {"after": self._after_point_function},
        }
        tester = None
        for module_name, path, group in TARGETS:
            module = modules[module_name]
            extra = hooks.get(path, {})
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(module, cls_name), attr, group, **extra)
            else:
                wrapper = self._patch_function(module, path, group, **extra)
                if path == "fixed_point_probe_tester":
                    tester = wrapper
        # the tester is bound as a default argument at definition time
        driver = modules["counterfeit"].grover_embedding_query_experiment.__wrapped__
        self._set(driver, "__defaults__", (tester,))
        self._wrap_closures(modules["oracle"].MixerOracle, ("apply_fn", "inverse_fn"))
        self._wrap_closures(modules["oracle"].LabelOracle, ("fn",))

    def remove(self) -> list[str]:
        """Put every original back; return the attributes that do not now
        hold their original object (an empty list when all went well)."""
        restored = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            restored.append((owner, attr, original))
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in restored
            if vars(owner).get(attr, getattr(owner, attr)) is not original
        ]

    # -- hooks ------------------------------------------------------------------

    def _enter_trial(self, args):
        self.trial_id = int(args[1])

    def _leave_trials(self, args, result):
        self.trial_id = -1

    def _after_projector(self, args, result):
        state, oracle = args[0], args[1]
        r = state.amp.size >> oracle.n
        work = r * (1 << oracle.n) * len(oracle.index_ints) * 2 * 16
        self.stats["projector_work_bytes"] = max(self.stats["projector_work_bytes"], work)
        self.stats["projector_ones"] += result.outcome

    def _after_qma_verify(self, args, result):
        self.stats["qma_accepts"] += bool(result)

    def _after_ind_test(self, args, result):
        self.stats["ind_hits"] += bool(result)

    def _after_partition(self, args, result):
        self.stats["partition_elements"] += len(args[0].component_of)

    def _after_point_function(self, args, result):
        self.point_functions.append(args[0])

    # -- output -----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "trial": np.array(self.trial, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path):
        """Write every span as a compressed .npz with its name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# Per workload, the span groups (by prefix) that the traced run must find to
# be the largest layer by self time.
EXPECTED_LARGEST = {
    "qma-offset3": ("quantum.",),
    "grover-embed-n10": ("oracle.meter", "counterfeit.tester"),
    "counterfeit-offset3": ("partition.", "layered."),
    "verify-graphiso4": ("instances.apply_fn",),
}


def self_times(tracer: Tracer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(group index, duration, self time) per span."""
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    child = a["parent"] >= 0
    children = np.bincount(a["parent"][child], weights=duration[child], minlength=duration.size)
    groups = np.array(tracer.name_group, dtype=np.int64)[a["name"]]
    return groups, duration, duration - children


def trial_durations(tracer: Tracer) -> np.ndarray:
    """Seconds from each trial's ``trial_rng`` call to the next one under the
    same driver, or to the driver's end for the last trial."""
    a = tracer.arrays()
    spans = np.flatnonzero(self_times(tracer)[0] == tracer.group_ids.get("trials.rng", -1))
    out = []
    for k, idx in enumerate(spans):
        nxt = spans[k + 1] if k + 1 < spans.size else None
        if nxt is not None and a["parent"][nxt] == a["parent"][idx]:
            out.append(a["start"][nxt] - a["start"][idx])
        elif a["parent"][idx] >= 0:
            out.append(a["end"][a["parent"][idx]] - a["start"][idx])
    return np.array(out)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced run as name -> (value, unit)."""
    gids, duration, self_time = self_times(tracer)
    k = len(tracer.groups)
    calls = np.bincount(gids, minlength=k)
    self_s = np.bincount(gids, weights=self_time, minlength=k)
    total_s = np.bincount(gids, weights=duration, minlength=k)

    def n(*groups):
        return int(sum(calls[tracer.group_ids[g]] for g in groups if g in tracer.group_ids))

    def s(*groups, table=self_s):
        return float(sum(table[tracer.group_ids[g]] for g in groups if g in tracer.group_ids))

    def frac(hits, attempts):
        return hits / attempts if attempts else 0.0

    stats = tracer.stats
    meter = ("oracle.meter", "oracle.meter_ind", "oracle.meter_apply")
    trials_us = trial_durations(tracer) * 1e6
    p50, p99 = np.percentile(trials_us, [50, 99]) if trials_us.size else (0.0, 0.0)
    return {
        "quantum.projector_calls": (n("quantum.projector"), "count"),
        "quantum.projector_s": (s("quantum.projector"), "s"),
        "quantum.projector_success_frac": (frac(stats["projector_ones"], n("quantum.projector")), "ratio"),
        "quantum.projector_work_bytes": (stats["projector_work_bytes"], "B"),
        "quantum.swap_tests": (n("quantum.swap"), "count"),
        "quantum.swap_s": (s("quantum.swap"), "s"),
        "quantum.states_built": (n("quantum.state"), "count"),
        "quantum.density_s": (s("quantum.density"), "s"),
        "oracle.sessions": (n("oracle.session"), "count"),
        "oracle.queries": (n(*meter), "count"),
        "oracle.apply_calls": (n("oracle.meter_apply"), "count"),
        "oracle.meter_s": (s(*meter), "s"),
        "oracle.apply_int_calls": (n("oracle.apply_int"), "count"),
        "oracle.perm_table_calls": (n("oracle.perm_table"), "count"),
        "oracle.perm_table_s": (s("oracle.perm_table"), "s"),
        "oracle.label_queries": (n("oracle.label"), "count"),
        "oracle.ind_hit_frac": (frac(stats["ind_hits"], n("oracle.meter_ind")), "ratio"),
        "instances.mixers_built": (n("instances.mixer"), "count"),
        "instances.build_s": (s("instances.mixer", "instances.build"), "s"),
        "instances.apply_fn_calls": (n("instances.apply_fn"), "count"),
        "instances.apply_fn_s": (s("instances.apply_fn"), "s"),
        "instances.g_queries": (sum(g.queries for g in tracer.point_functions), "count"),
        "bits.calls": (n("bits.convert"), "count"),
        "bits.s": (s("bits.convert"), "s"),
        "partition.builds": (n("partition.init"), "count"),
        "partition.elements": (stats["partition_elements"], "count"),
        "partition.build_s": (s("partition.init", "partition.build"), "s"),
        "layered.instances_built": (n("layered.instance"), "count"),
        "layered.hides": (n("layered.hide"), "count"),
        "layered.build_s": (s("layered.instance", "layered.build", "layered.hide"), "s"),
        "layered.apply_s": (s("layered.apply"), "s"),
        "verify.witness_calls": (n("verify.witness"), "count"),
        "verify.witness_s": (s("verify.witness"), "s"),
        "verify.no_cross_s": (s("verify.no_cross"), "s"),
        "verify.mixing_s": (s("verify.mixing"), "s"),
        "protocols.qma_verify_calls": (n("protocols.qma_verify"), "count"),
        "protocols.qma_verify_s": (s("protocols.qma_verify"), "s"),
        "protocols.accept_frac": (frac(stats["qma_accepts"], n("protocols.qma_verify")), "ratio"),
        "counterfeit.counterfeiter_calls": (n("counterfeit.counterfeiter"), "count"),
        "counterfeit.counterfeiter_s": (s("counterfeit.counterfeiter", "counterfeit.run"), "s"),
        "counterfeit.driver_s": (s("counterfeit.driver"), "s"),
        "counterfeit.tester_s": (s("counterfeit.tester"), "s"),
        "trials.trials": (n("trials.rng"), "count"),
        "trials.rng_s": (s("trials.rng"), "s"),
        "trials.trial_p50_us": (float(p50), "us"),
        "trials.trial_p99_us": (float(p99), "us"),
        "cli.report_s": (s("cli.run_command", table=total_s) - s("cli.experiment", table=total_s), "s"),
    }


def largest_layer_check(tracer: Tracer, workload: str) -> dict:
    """Whether the layer the workload is built to stress has the most self
    time: the named groups together against every other layer on its own."""
    gids, _, self_time = self_times(tracer)
    per_group = np.bincount(gids, weights=self_time, minlength=len(tracer.groups))
    prefixes = EXPECTED_LARGEST[workload]
    named = 0.0
    others: dict[str, float] = {}
    for gid, group in enumerate(tracer.groups):
        if group.startswith(prefixes):
            named += per_group[gid]
        else:
            layer = group.split(".")[0]
            others[layer] = others.get(layer, 0.0) + per_group[gid]
    runner_up = max(others, key=others.get)
    return {
        "expected": list(prefixes),
        "expected_self_s": named,
        "runner_up": runner_up,
        "runner_up_self_s": others[runner_up],
        "ok": bool(named > others[runner_up]),
    }
