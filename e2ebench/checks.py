"""Output checks that rest on outside facts or on properties the method
must have — never on a stored copy of earlier output.

* ``truth_check``: posterior means near the generator's ``truth`` values;
* ``gradient_check``: the gradient agrees with finite differences of
  ``logp``;
* ``inprocess_draws``: the same spec run by in-process ``run_chains``, to
  compare served draws against bit for bit;
* ``split_rhat_halves`` (in :mod:`common`): the convergence statistic,
  recomputed in plain numpy.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

#: A posterior mean may sit at most this many posterior standard deviations
#: from the generating value. The data are drawn from the model itself, so
#: the generating value is one draw from the posterior's neighbourhood; four
#: standard deviations leaves room for short chains without hiding a wrong
#: posterior, which lands tens of deviations away.
TRUTH_SDS = 4.0

#: Parameters whose generating value the data generator names directly:
#: model parameter -> key of the generator's ``truth`` dict.
TRUTH_PARAMS: Dict[str, Dict[str, str]] = {
    "12cities": {"beta_limit": "beta_limit"},
    "votes": {
        "amplitude": "amplitude",
        "lengthscale": "lengthscale",
        "noise": "noise",
        "state_mean": "state_mean",
    },
}

#: Finite-difference step and the relative agreement required of a
#: directional derivative.
FD_STEP = 1e-6
FD_RTOL = 1e-4


def truth_check(model, stacked: np.ndarray) -> List[str]:
    """Problems with the posterior means of ``stacked`` (``(n_chains,
    n_kept, dim)`` unconstrained draws) against the generator's truth."""
    names = TRUTH_PARAMS.get(model.name)
    if not names:
        return []
    pooled = stacked.reshape(-1, stacked.shape[-1])
    constrained: Dict[str, List[np.ndarray]] = {name: [] for name in names}
    for draw in pooled:
        values = model.constrain(draw)
        for name in names:
            constrained[name].append(np.atleast_1d(values[name]))
    problems = []
    for name, truth_key in names.items():
        draws = np.asarray(constrained[name])
        truth = np.atleast_1d(np.asarray(model.truth[truth_key], dtype=float))
        mean = draws.mean(axis=0)
        sd = draws.std(axis=0, ddof=1)
        distance = np.abs(mean - truth) / np.maximum(sd, 1e-12)
        worst = int(np.argmax(distance))
        if not np.all(distance <= TRUTH_SDS):
            problems.append(
                f"{model.name}.{name}[{worst}]: posterior mean "
                f"{mean[worst]:.4g} is {distance[worst]:.1f} sd from the "
                f"generating value {truth[worst]:.4g}"
            )
    return problems


def gradient_check(model, seed: int, n_points: int = 2,
                   n_directions: int = 3) -> List[str]:
    """Directional derivatives of ``logp`` by central differences against
    the gradient the sampler uses, at jittered initial points."""
    rng = np.random.default_rng(seed)
    fn = model.logp_and_grad_fn()
    problems = []
    for _ in range(n_points):
        x = model.initial_position(rng)
        value, grad = fn(x)
        if not np.isfinite(value):
            problems.append(f"{model.name}: non-finite logp at a start point")
            continue
        for _ in range(n_directions):
            v = rng.normal(size=x.shape)
            v /= np.linalg.norm(v)
            up, _ = fn(x + FD_STEP * v)
            down, _ = fn(x - FD_STEP * v)
            fd = (up - down) / (2 * FD_STEP)
            analytic = float(np.dot(grad, v))
            scale = max(1.0, abs(fd), abs(analytic))
            if not abs(fd - analytic) <= FD_RTOL * scale:
                problems.append(
                    f"{model.name}: directional derivative {analytic:.8g} "
                    f"vs finite difference {fd:.8g}"
                )
    return problems


def inprocess_draws(spec: dict, stop_total: int) -> np.ndarray:
    """Kept draws of ``spec`` from in-process ``run_chains``, each chain
    stopped after ``stop_total`` iterations (warmup included)."""
    from repro.inference import run_chains
    from repro.inference.engines import build_engine
    from repro.suite import load_workload

    model = load_workload(
        spec["workload"], scale=spec["scale"], seed=spec["dataset_seed"]
    )
    sampler = build_engine(spec["engine"], spec["engine_options"])
    n_warmup = spec["n_warmup"]
    if n_warmup is None:
        n_warmup = spec["n_iterations"] // 2

    def stop(t, draw):
        return t + 1 < stop_total

    result = run_chains(
        model, sampler, spec["n_iterations"], n_chains=spec["n_chains"],
        seed=spec["seed"], n_warmup=n_warmup,
        initial_jitter=spec["initial_jitter"], iteration_hook=stop,
    )
    return result.stacked()
