"""Checked-tier escalation share: how often the PSIS gate turns a
``checked`` request into an exact NUTS run.

Usage, from the root of a checkout::

    python3 e2ebench/reference.py --seeds 5

For each family, trains the guide the server would train, draws the
surrogate answer of ``--seeds`` request seeds (4 chains, 100 kept draws,
scale 0.5) and scores it with the server's own PSIS gate. This is why the
``checked`` tier has no workload: most requests escalate, so their cost
depends on the seed. The share is recorded in README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import SCALE  # noqa: E402

FAMILIES = ["12cities", "survival", "disease"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()

    import numpy as np

    from repro.amortize.guides import GuideStore
    from repro.amortize.policy import (
        EscalationPolicy, surrogate_result, surrogate_rng,
    )
    from repro.amortize.psis import psis, surrogate_log_ratios
    from repro.suite import load_workload

    store, policy = GuideStore(), EscalationPolicy()
    escalated = total = 0
    for family in FAMILIES:
        model = load_workload(family, scale=SCALE)
        record, _ = store.get_or_train(model)
        k_hats = []
        for seed in range(args.seeds):
            result = surrogate_result(model, record.advi, 4, 100,
                                      surrogate_rng(seed))
            draws = np.vstack([chain.samples for chain in result.chains])
            k_hat = float(psis(surrogate_log_ratios(
                model, record.advi, draws,
                max_draws=policy.psis_max_draws)).k_hat)
            k_hats.append(k_hat)
            escalated += policy.should_escalate(k_hat)
            total += 1
        print(f"{family:10} k-hat " + " ".join(f"{k:.2f}" for k in k_hats))
    print(f"escalated {escalated} of {total} checked requests "
          f"(k-hat > {policy.k_hat_threshold})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
