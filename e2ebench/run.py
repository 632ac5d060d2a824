"""End-to-end benchmark: real BayesSuite inference jobs, timed end to end.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload offline_suite --seed 1 --seconds 20 --trace 0

Workloads: ``offline_suite`` (in-process NUTS), ``serve_exact`` (exact jobs
through ``repro serve --http``), ``serve_fast`` (fast-tier requests through
the same server). With ``--trace 0`` the last line of standard output is a
JSON object with every end-to-end metric; with ``--trace 1`` it carries
every per-layer metric instead (see README.md). Failures and failed checks
are printed, with their reasons, on the lines before it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("offline_suite", "serve_exact", "serve_fast")
#: Failures and failed checks printed with their reasons, per kind.
SHOWN = 20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into an exit that runs the clean-up below (stopping the
    # server process and removing scratch files).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    from common import Outcome

    outcome = Outcome()
    scratch_root = ROOT / ".e2ebench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=scratch_root))
    tempfile.tempdir = str(scratch)
    try:
        if args.workload == "offline_suite":
            import offline

            offline.run(args, outcome, scratch)
        else:
            import serving

            serving.run(args, outcome, scratch, ROOT)
    except Exception as exc:  # reported in the result line, not a traceback
        if not outcome.attempted:
            outcome.attempt()
        outcome.fail(f"run aborted: {exc!r}")
        outcome.check(False, f"run aborted: {exc!r}")
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    wanted = catalog["per_layer" if args.trace else "end_to_end"]
    for entry in wanted:
        if entry["name"] in outcome.metrics:
            continue
        if args.trace:
            # A layer this workload does not cross: zero calls, zero time.
            outcome.metric(entry["name"], 0.0, entry["unit"])
        else:
            # Too few operations succeeded to measure it: left out.
            outcome.check(False, f"{entry['name']} not measured")
    names = {entry["name"] for entry in wanted}
    outcome.metrics = {name: value for name, value in outcome.metrics.items()
                       if name in names}

    for tag, reasons in (("FAILED", outcome.failures),
                         ("CHECK FAILED", outcome.check_failures)):
        for reason in reasons[:SHOWN]:
            print(f"{tag}: {reason}")
        if len(reasons) > SHOWN:
            print(f"{tag}: ... and {len(reasons) - SHOWN} more")
    print("work " + json.dumps(outcome.work))
    print("timing " + json.dumps(outcome.timing))
    print(json.dumps(outcome.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
