"""Spans around calls into ristensor's layers, recorded from outside the package.

The tracer rebinds the names through which ``experiment`` reaches
``signal_model``, ``estimation`` and ``esprit``, and through which
``estimation`` reaches ``tensorops``, to timing wrappers; leaving the
``with`` block restores them.  ``experiment.run_trial`` is always wrapped: it
opens the trial, whose record carries the seed, Q, the relative errors and any
failure.  With ``layers=False`` that is the only wrapper, which is how the
untraced run measures per-trial latency inside ``run_sweep``.

Spans are kept in memory as ``(name, start, end, parent, trial)`` tuples,
times in seconds from the tracer's creation, and written out at the end.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from ristensor import estimation, experiment

EXPERIMENT_CALLS = (
    "generate_echo_tensor",
    "add_noise_at_snr",
    "als_stage1",
    "remove_core_scaling",
    "als_stage2",
    "extract_parameters",
)
ESTIMATION_CALLS = ("pseudoinverse", "khatri_rao", "mode_product", "kronecker")

RUN_TRIAL = "experiment.run_trial"
STAGE1 = "estimation.als_stage1"
STAGE2 = "estimation.als_stage2"
PINV = "tensorops.pseudoinverse"


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('ristensor.')}.{fn.__name__}"


def _seed_entropy(seed):
    entropy = seed.entropy if isinstance(seed, np.random.SeedSequence) else seed
    return [int(e) for e in entropy] if isinstance(entropy, (tuple, list)) else int(entropy)


class Tracer:
    """Records spans and per-trial records while installed as a context manager."""

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans: list = []
        self.trials: list[dict] = []
        self.max_pinv_mib = 0.0
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []
        self._next_trial = 0

    def __enter__(self) -> "Tracer":
        self._rebind(experiment, "run_trial", self._trial)
        if self.layers:
            hooks = {"als_stage1": self._stage1_done, "als_stage2": self._stage2_done}
            for name in EXPERIMENT_CALLS:
                self._rebind(experiment, name, lambda fn, n=name: self._span(fn, on_result=hooks.get(n)))
            for name in ESTIMATION_CALLS:
                on_call = self._pinv_input if name == "pseudoinverse" else None
                self._rebind(estimation, name, lambda fn, c=on_call: self._span(fn, on_call=c))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _rebind(self, module, name, make_wrapper) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, make_wrapper(original))

    def _span(self, fn, on_call=None, on_result=None):
        name = _span_name(fn)
        local = self._local

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            parent = getattr(local, "span", None)
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            local.span = index
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.span = parent
                self.spans[index] = (name, start - self._t0, end - self._t0, parent,
                                     getattr(local, "trial", None))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _trial(self, run_trial):
        local = self._local
        timed = self._span(run_trial)

        def traced_trial(cfg, als, snr_db, trial_seed):
            with self._lock:
                trial_id = self._next_trial
                self._next_trial += 1
            record = {"trial": trial_id, "seed": _seed_entropy(trial_seed),
                      "Q": cfg.Q, "snr_db": snr_db, "failure": None}
            local.trial, local.record = trial_id, record
            start = time.perf_counter()
            try:
                estimate, diagnostics = timed(cfg, als, snr_db, trial_seed)
                record["rel_errors"] = estimate.rel_errors
                return estimate, diagnostics
            except Exception as exc:
                record["failure"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                record["wall_s"] = time.perf_counter() - start
                local.trial = local.record = None
                with self._lock:
                    self.trials.append(record)

        return traced_trial

    def _stage1_done(self, stage1) -> None:
        self._local.record.update(
            stage1_iters=stage1.iterations,
            stage1_converged=bool(stage1.converged),
            stage1_final_rel_error=float(stage1.error_history[-1] / stage1.data_norm_sq),
        )

    def _stage2_done(self, stage2) -> None:
        self._local.record.update(
            stage2_iters=stage2.iterations, stage2_converged=bool(stage2.converged)
        )

    def _pinv_input(self, args) -> None:
        mib = np.asarray(args[0]).nbytes / 2**20
        with self._lock:
            self.max_pinv_mib = max(self.max_pinv_mib, mib)

    def write(self, prefix) -> None:
        """Write ``<prefix>-spans.jsonl`` and ``<prefix>-trials.jsonl``.

        Each trial record first gets the ms of every layer call the trial
        made directly (its stages).
        """
        by_id = {t["trial"]: t for t in self.trials}
        run_spans = {i for i, s in enumerate(self.spans) if s[0] == RUN_TRIAL}
        for name, start, end, parent, trial in self.spans:
            if parent in run_spans:
                ms = by_id[trial].setdefault("ms", {})
                ms[name] = ms.get(name, 0.0) + 1e3 * (end - start)
        with open(f"{prefix}-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")
        with open(f"{prefix}-trials.jsonl", "w", encoding="utf-8") as fh:
            for record in sorted(self.trials, key=lambda t: t["trial"]):
                fh.write(json.dumps(record) + "\n")


def layer_metrics(tracer: Tracer, loop_wall_s: float) -> dict:
    """Per-layer numbers of a traced loop; ``.ms`` and ``.calls`` are means per trial."""
    n = len(tracer.trials)
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_s: dict[int, float] = {}
    for name, start, end, parent, _ in tracer.spans:
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    self_s = sum(
        (end - start) - child_s.get(i, 0.0)
        for i, (name, start, end, _, _) in enumerate(tracer.spans)
        if name == RUN_TRIAL
    )
    stage1 = [t for t in tracer.trials if "stage1_iters" in t]
    stage2 = [t for t in tracer.trials if "stage2_iters" in t]
    iters1 = sum(t["stage1_iters"] for t in stage1)
    kernels = tuple(f"tensorops.{name}" for name in ESTIMATION_CALLS)

    out = {
        "experiment.run_trial.ms": 1e3 * total_s.get(RUN_TRIAL, 0.0) / n,
        "experiment.run_trial.self_ms": 1e3 * self_s / n,
        "experiment.parallel_speedup": sum(t["wall_s"] for t in tracer.trials) / loop_wall_s,
        "experiment.trials_attempted": n,
        "experiment.trials_failed": sum(t["failure"] is not None for t in tracer.trials),
        f"{STAGE1}.iters": iters1 / max(len(stage1), 1),
        f"{STAGE1}.ms_per_iter": 1e3 * total_s.get(STAGE1, 0.0) / max(iters1, 1),
        f"{STAGE1}.converged_frac": sum(t["stage1_converged"] for t in stage1) / max(len(stage1), 1),
        f"{STAGE2}.iters": sum(t["stage2_iters"] for t in stage2) / max(len(stage2), 1),
        f"{STAGE2}.converged_frac": sum(t["stage2_converged"] for t in stage2) / max(len(stage2), 1),
        f"{PINV}.max_input_mb": tracer.max_pinv_mib,
    }
    for name in (
        "signal_model.generate_echo_tensor",
        "signal_model.add_noise_at_snr",
        STAGE1,
        "estimation.remove_core_scaling",
        STAGE2,
        "esprit.extract_parameters",
    ) + kernels:
        out[f"{name}.ms"] = 1e3 * total_s.get(name, 0.0) / n
    for name in kernels:
        out[f"{name}.calls"] = calls.get(name, 0) / n
    return out
