"""``offline_suite``: in-process NUTS on four BayesSuite models.

One operation is one ``run_chains`` call (NUTS, 4 chains, scale 0.5) on one
model; a round runs each model once, in a fixed order, with fresh chain
seeds derived from the run seed and the round number. The run measures
whole rounds until ``--seconds`` have passed.

Calls are timed in process CPU seconds (``time.process_time``): the work is
single-threaded and in-process, so on a quiet machine this equals wall
time, while on a shared virtual machine it leaves out the time the
hypervisor gave the CPU to someone else (steal), which moved wall time by
up to 20% between identical runs while the benchmark was sized. Throughput
is read off a round made of each model's median call, so one call slowed by
cache contention, or a seed whose adaptation went long, moves it less than
it would move a plain total.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from common import (
    SCALE, Outcome, derive_seed, median, own_peak_rss_mb, sliced_p99,
)
import checks
import spans

#: model -> (iterations per chain, warmup). Sized so that each model takes
#: a similar share of a round on a 2-core machine (about 1.4 s each), and a
#: 20-second run holds four rounds. Warmup is the larger part: it steadies
#: the adapted step size, and with it the gradient calls per draw.
BUDGETS: Dict[str, tuple] = {
    "12cities": (32, 20),
    "survival": (34, 20),
    "tickets": (7, 4),
    "votes": (36, 20),
}
MODELS = list(BUDGETS)
N_CHAINS = 4
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _setup(tracer):
    """Load every model and make its first gradient call (tape record,
    rewrite, validation). Returns the models and the CPU seconds taken."""
    from repro.suite import load_workload

    started = time.process_time()
    models = {}
    for name in MODELS:
        span = tracer.open("suite.load") if tracer else None
        model = load_workload(name, scale=SCALE)
        if tracer:
            tracer.close(span)
        x0 = model.initial_position(np.random.default_rng(0))
        span = tracer.open("autodiff.first_grad") if tracer else None
        model.logp_and_grad_fn()(x0)
        if tracer:
            tracer.close(span)
        models[name] = model
    return models, time.process_time() - started


def run(args, outcome: Outcome, scratch) -> None:
    from repro.inference import run_chains
    from repro.inference.engines import build_engine

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        spans.install_gradient_wrapper(tracer)

    setup_times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        models, seconds = _setup(tracer)
        setup_times.append(seconds)

    # Gradient check before the timed window (outside it).
    for index, name in enumerate(MODELS):
        problems = checks.gradient_check(
            models[name], derive_seed(args.seed, 7, index))
        outcome.check(not problems, "; ".join(problems))

    sampler = build_engine("nuts")
    records: List[dict] = []
    draws_by_model: Dict[str, List[np.ndarray]] = {name: [] for name in MODELS}
    window_start = time.monotonic()
    round_index = 0
    while True:
        for index, name in enumerate(MODELS):
            n_iterations, n_warmup = BUDGETS[name]
            seed = derive_seed(args.seed, round_index, index)
            outcome.attempt()
            span = tracer.open("inference.run_chains", job=name) if tracer else None
            started = time.process_time()
            try:
                result = run_chains(
                    models[name], sampler, n_iterations, n_chains=N_CHAINS,
                    seed=seed, n_warmup=n_warmup,
                )
            except Exception as exc:  # a failed job is counted, not fatal
                outcome.fail(f"{name} round {round_index}: {exc!r}")
                continue
            finally:
                elapsed = time.process_time() - started
                if tracer:
                    tracer.close(span)
            stacked = result.stacked()
            records.append({
                "model": name,
                "round": round_index,
                "seconds": elapsed,
                "kept": int(stacked.shape[0] * stacked.shape[1]),
                "iterations": N_CHAINS * n_iterations,
                "work": result.total_work,
            })
            draws_by_model[name].append(stacked)
            outcome.check(
                stacked.shape == (N_CHAINS, n_iterations - n_warmup,
                                  models[name].dim)
                and bool(np.all(np.isfinite(stacked))),
                f"{name} round {round_index}: draws not finite or "
                f"shaped {stacked.shape}",
            )
        round_index += 1
        if time.monotonic() - window_start >= args.seconds:
            break

    # Posterior checks after the window, on each model's pooled rounds.
    for name in MODELS:
        if draws_by_model[name]:
            pooled = np.concatenate(draws_by_model[name], axis=1)
            problems = checks.truth_check(models[name], pooled)
            outcome.check(not problems, "; ".join(problems))

    outcome.work = {
        name: [r["work"] for r in records if r["model"] == name]
        for name in MODELS
    }
    outcome.timing = {
        name: [r["seconds"] for r in records if r["model"] == name]
        for name in MODELS
    }
    if tracer is None:
        outcome.metric("setup_s", median(setup_times), "s")
        outcome.metric("peak_rss_mb", own_peak_rss_mb(), "MB")
        if any(not outcome.timing[name] for name in MODELS):
            return  # a model with no successful call: no round to time
        latencies = [r["seconds"] for r in records]
        # A round of median calls: each model's median call time and its
        # (fixed) kept draws per call.
        round_s = sum(median(outcome.timing[name]) for name in MODELS)
        round_kept = sum(N_CHAINS * (BUDGETS[name][0] - BUDGETS[name][1])
                         for name in MODELS)
        outcome.metric("draws_per_s", round_kept / round_s, "1/s")
        outcome.metric("jobs_per_s", len(MODELS) / round_s, "1/s")
        outcome.metric("latency_p50_s", median(latencies), "s")
        outcome.metric("latency_p99_s", sliced_p99([
            [r["seconds"] for r in records if r["round"] == k]
            for k in range(round_index)]), "s")
        return

    tracer.dump(str(scratch / "offline-trace.jsonl"))
    layer_metrics(tracer, records, models, outcome)


def layer_metrics(tracer, records, models, outcome: Outcome) -> None:
    """Per-layer metrics of a traced offline run."""
    load_s = sum(s["end"] - s["start"] for s in tracer.spans
                 if s["name"] == "suite.load")
    first_s = sum(s["end"] - s["start"] for s in tracer.spans
                  if s["name"] == "autodiff.first_grad")
    runs = [s for s in tracer.spans if s["name"] == "inference.run_chains"]
    grad_calls = {name: 0 for name in MODELS}
    grad_s = {name: 0.0 for name in MODELS}
    for span in runs:
        calls, seconds, _ = span["agg"].get(
            f"autodiff.grad.{span['job']}", (0, 0.0, 0.0))
        grad_calls[span["job"]] += calls
        grad_s[span["job"]] += seconds
    chain_s = sum(s["end"] - s["start"] for s in runs)
    model_s = {name: sum(s["end"] - s["start"] for s in runs
                         if s["job"] == name) for name in MODELS}
    iterations = {name: sum(r["iterations"] for r in records
                            if r["model"] == name) for name in MODELS}

    outcome.metric("suite.load_s", load_s, "s")
    outcome.metric("autodiff.first_grad_s", first_s, "s")
    outcome.metric("autodiff.grad_calls", sum(grad_calls.values()), "count")
    outcome.metric("autodiff.grad_s", sum(grad_s.values()), "s")
    outcome.metric("inference.sampler_s", chain_s - sum(grad_s.values()), "s")
    for name in MODELS:
        outcome.metric(
            f"inference.grads_per_draw.{name}",
            grad_calls[name] / max(iterations[name], 1), "grad/draw")
        outcome.metric(
            f"autodiff.us_per_grad.{name}",
            1e6 * grad_s[name] / max(grad_calls[name], 1), "us")
    fallbacks = folded = 0
    for model in models.values():
        stats = model.tape_stats() or {}
        fallbacks += stats.get("fallbacks", 0)
        folded += stats.get("suffstats_folded_ops", 0)
    outcome.timing["grad_share"] = {
        name: grad_s[name] / model_s[name] for name in MODELS if model_s[name]}
    if chain_s:
        outcome.timing["sampler_share"] = 1 - sum(grad_s.values()) / chain_s
    outcome.metric("autodiff.tape_fallbacks", fallbacks, "count")
    outcome.metric("autodiff.suffstats_folded_ops", folded, "count")
