"""``serve_exact`` and ``serve_fast``: real jobs through ``repro serve --http``.

The server runs in its own process, started the way a user starts it,
with a durable queue, an on-disk result store and a checkpoint directory
under a fresh directory inside the checkout. Two closed-loop client
threads each work through a fixed job list per round: submit, follow the
job's event stream to its terminal event, download the draws. A round's
specs get fresh seeds derived from the run seed, the client and the round,
so nothing but the planned resubmissions is answered from the store.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (
    Outcome, completion_slices, derive_seed, guest_latency, guest_seconds,
    guest_window, mark, median, sliced_p99, split_rhat_halves,
    tree_peak_rss_mb,
)
import checks
import spans

#: Dataset scale of served jobs (the paper's ``-q`` variant): small enough
#: that a run holds tens of exact jobs.
SCALE = 0.25
N_CLIENTS = 2
TERMINAL = {"converged", "done", "failed", "expired"}
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``peak_rss_mb`` is read once this many operations have finished in the
#: timed window, so it measures memory at a fixed amount of work: the
#: server grows with every request it keeps, and a reading at the end of a
#: fixed-length window would rise with throughput. Both are below what the
#: slowest run seen while sizing answered in 20 seconds (about 25 exact
#: jobs, 600 fast requests); a run continues past ``--seconds`` until the
#: count is reached.
RSS_AT_JOBS = {"serve_exact": 14, "serve_fast": 480}
#: On ``serve_exact`` the parts of a job's blocking path named by the
#: traced layers must add up to its latency within this share.
PATH_TOLERANCE = 0.05

# -- job mixes ----------------------------------------------------------------

#: Exact jobs: (engine, workload, iterations, warmup). ``None`` marks a
#: resubmission of the round's first spec. NUTS jobs are the majority, so
#: the latency median lands inside that class.
EXACT_MIX = [
    ("nuts", "12cities", 60, 30),
    ("hmc", "12cities", 60, 30),
    ("nuts", "12cities", 60, 30),
    ("mh", "12cities", 600, 300),
    ("nuts", "12cities", 60, 30),
    None,
    ("nuts", "12cities", 60, 30),
]
#: Sampler settings and online-R-hat cadence of exact jobs: shallow NUTS
#: trees and short HMC trajectories keep a job under a second of service;
#: R-hat is checked every 10 kept draws from the 20th on. At these budgets
#: 12cities chains seldom reach R-hat 1.1, so the checks run on every job
#: but rarely stop one early.
ENGINE_OPTIONS = {"nuts": {"max_tree_depth": 4}, "hmc": {"n_leapfrog": 8},
                  "mh": {}}
MIN_KEPT = 20
CHECK_INTERVAL = 10
#: Iterations (and warmup) of the set-up jobs: enough to pay first-sight
#: costs, short enough to keep set-up cheap.
WARM_BUDGET = (12, 6)
#: Families served by the fast tier.
FAST_FAMILIES = ["12cities", "disease"]
FAST_ITERATIONS = 100
#: Fast requests per round per client: fresh specs alternate between the
#: families; every fourth request resubmits the round's previous fresh spec.
FAST_ROUND = 12


def exact_spec(entry, seed: int) -> dict:
    engine, workload, n_iterations, n_warmup = entry
    return {
        "workload": workload, "engine": engine, "mode": "exact",
        "n_iterations": n_iterations, "n_warmup": n_warmup, "n_chains": 4,
        "seed": seed, "scale": SCALE, "dataset_seed": None,
        "initial_jitter": 1.0, "engine_options": ENGINE_OPTIONS[engine],
        "elide": True, "min_kept": MIN_KEPT, "check_interval": CHECK_INTERVAL,
    }


def fast_spec(workload: str, seed: int) -> dict:
    return {
        "workload": workload, "engine": "nuts", "mode": "fast",
        "n_iterations": FAST_ITERATIONS, "n_warmup": None, "n_chains": 4,
        "seed": seed, "scale": SCALE, "dataset_seed": None,
        "initial_jitter": 1.0, "engine_options": {},
    }


def round_specs(kind: str, run_seed: int, client: int, round_index: int):
    """The client's job list for one round: ``(spec, first_index)`` pairs,
    ``first_index`` naming the earlier position a resubmission repeats."""
    out = []
    if kind == "serve_exact":
        for position, entry in enumerate(EXACT_MIX):
            if entry is None:
                out.append((out[0][0], 0))
            else:
                seed = derive_seed(run_seed, client, round_index, position)
                out.append((exact_spec(entry, seed), None))
        return out
    fresh = 0
    for position in range(FAST_ROUND):
        if position % 4 == 3:
            out.append((out[position - 1][0], position - 1))
            continue
        family = FAST_FAMILIES[(fresh + client) % len(FAST_FAMILIES)]
        seed = derive_seed(run_seed, client, round_index, position)
        out.append((fast_spec(family, seed), None))
        fresh += 1
    return out


def warm_specs(kind: str, run_seed: int) -> List[dict]:
    """One job per (workload, engine) class of the mix, with seeds no timed
    job uses: they pay profiling, placement, pool start-up and guide
    training before the timed window."""
    if kind == "serve_exact":
        seen, out = set(), []
        for entry in EXACT_MIX:
            if entry is not None and entry[:2] not in seen:
                seen.add(entry[:2])
                out.append(exact_spec(entry[:2] + WARM_BUDGET,
                                      derive_seed(run_seed, 99, len(out))))
        return out
    return [fast_spec(family, derive_seed(run_seed, 99, index))
            for index, family in enumerate(FAST_FAMILIES)]


# -- the server process ---------------------------------------------------------


class ServerProcess:
    """``repro serve --http 0`` in a child process."""

    def __init__(self, root: Path, workdir: Path, trace_out: Optional[Path]):
        self.root = root
        self.workdir = workdir
        self.trace_out = trace_out
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        self.lines: List[str] = []
        self._ready = threading.Event()
        self._reader: Optional[threading.Thread] = None

    def start(self, timeout: float = 60.0) -> None:
        queue_dir = self.workdir / "queue"
        serve_args = ["serve", "--http", "0", "--queue-dir", str(queue_dir)]
        if self.trace_out is None:
            command = [sys.executable, "-u", "-m", "repro"] + serve_args
        else:
            command = [
                sys.executable, "-u",
                str(Path(__file__).resolve().parent / "launcher.py"),
                str(self.trace_out),
            ] + serve_args
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.workdir)
        self.proc = subprocess.Popen(
            command, cwd=str(self.workdir), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout) or self.url is None:
            self.stop()
            raise RuntimeError(
                "server did not come up:\n" + "".join(self.lines[-20:]))

    def _read(self) -> None:
        marker = "gateway listening on "
        for line in self.proc.stdout:
            self.lines.append(line)
            if marker in line and self.url is None:
                self.url = line.split(marker, 1)[1].split()[0]
                self._ready.set()
        self._ready.set()

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self._reader is not None:
            self._reader.join(timeout=10)


def wait_healthy(client, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            if client.healthz().get("status") == "ok":
                return
        except Exception:
            if time.monotonic() > deadline:
                raise
        time.sleep(0.01)


# -- one job from the client's side ------------------------------------------------


def run_job(client, spec: dict) -> dict:
    """Submit, follow the events to the terminal state, download draws."""
    submitted = mark()
    record = {"spec": spec, "t_submit": submitted.t, "m_submit": submitted}
    view = client.submit(spec)
    record["t_submitted"] = time.monotonic()
    job_id = record["job_id"] = view["job_id"]
    state = None
    for event, data in client.stream(job_id):
        if event == "state" and data.get("state") in TERMINAL:
            state = data["state"]
    record["t_terminal"] = time.monotonic()
    record["state"] = state
    if state not in ("converged", "done"):
        raise RuntimeError(f"job {job_id} ended {state}")
    result = client.result(job_id, include_draws=True)
    record["m_done"] = mark()
    record["t_done"] = record["m_done"].t
    record["draws"] = np.asarray(result["draws"], dtype=float)
    record["total_work"] = result["total_work"]
    record["elision"] = result["elision"]
    return record


# -- the workload ---------------------------------------------------------------


def _setup_once(kind, root, workdir, run_seed, trace_out):
    from repro.client import GatewayClient

    started = mark()
    server = ServerProcess(root, workdir, trace_out)
    server.start()
    client = GatewayClient(server.url, timeout=120.0)
    try:
        wait_healthy(client)
        for spec in warm_specs(kind, run_seed):
            run_job(client, spec)
    except Exception:
        server.stop()
        raise
    return server, guest_seconds(started, mark())


def run(args, outcome: Outcome, scratch: Path, root: Path) -> None:
    from repro.client import GatewayClient

    kind = args.workload
    traced = bool(args.trace)
    setup_times = []
    repeats = 1 if traced else SETUP_REPEATS
    for attempt in range(repeats):
        workdir = scratch / f"server-{attempt}"
        workdir.mkdir()
        trace_out = scratch / "server-trace.jsonl" if traced else None
        server, seconds = _setup_once(
            kind, root, workdir, args.seed, trace_out)
        setup_times.append(seconds)
        if attempt < repeats - 1:
            server.stop()

    records: List[dict] = []
    lock = threading.Lock()
    answered = [0]  # operations finished, answered or failed
    rss: List[float] = []

    def finish() -> None:
        """Count one finished operation; read the memory at the set count.
        Call with ``lock`` held."""
        answered[0] += 1
        if not rss and answered[0] >= RSS_AT_JOBS[kind]:
            rss.append(server.peak_rss_mb())

    def client_loop(client_index: int) -> None:
        client = GatewayClient(server.url, timeout=120.0)
        round_index = 0
        while True:
            answers: Dict[int, dict] = {}
            for position, (spec, first) in enumerate(
                round_specs(kind, args.seed, client_index, round_index)
            ):
                with lock:
                    outcome.attempt()
                try:
                    record = run_job(client, spec)
                except Exception as exc:  # counted, the loop goes on
                    with lock:
                        outcome.fail(
                            f"client {client_index} round {round_index} "
                            f"job {position}: {exc!r}")
                        finish()
                    continue
                record.update(client=client_index, round=round_index,
                              position=position, first=first)
                answers[position] = record
                if first is not None and first in answers:
                    record["first_draws"] = answers[first]["draws"]
                with lock:
                    records.append(record)
                    finish()
            round_index += 1
            if time.monotonic() - window_start >= args.seconds and rss:
                return

    try:
        metrics_before = _scrape(server.url) if traced else None
        started = mark()
        window_start = started.t
        threads = [threading.Thread(target=client_loop, args=(c,),
                                    daemon=True)
                   for c in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window_end = time.monotonic()
        metrics_after = _scrape(server.url) if traced else None
    finally:
        server.stop()

    check_records(kind, records, outcome)
    outcome.timing = {}
    for record in records:
        spec = record["spec"]
        label = ("resubmission" if record["first"] is not None
                 else f"{spec['mode']}:{spec['engine']}:{spec['workload']}")
        outcome.timing.setdefault(label, []).append(
            round(guest_latency(record), 4))
    outcome.work = {
        f"client{c}": [
            [r["round"], r["position"], r["total_work"],
             int(r["draws"].shape[1])]
            for r in sorted(records, key=lambda r: (r["round"], r["position"]))
            if r["client"] == c
        ]
        for c in range(N_CLIENTS)
    }

    if not traced:
        outcome.metric("setup_s", median(setup_times), "s")
        if rss:
            outcome.metric("peak_rss_mb", rss[0], "MB")
        if not records:
            return  # nothing answered: the other metrics are left out
        slices = completion_slices(records)
        window = guest_window(started, slices)
        budget_draws = sum(
            r["spec"]["n_chains"] * (r["spec"]["n_iterations"]
                                     - _warmup(r["spec"]))
            for r in records)
        outcome.metric("draws_per_s", budget_draws / window, "1/s")
        outcome.metric("jobs_per_s", len(records) / window, "1/s")
        outcome.metric("latency_p50_s",
                       median([guest_latency(r) for r in records]), "s")
        outcome.metric("latency_p99_s", sliced_p99(
            [[guest_latency(r) for r in chunk] for chunk in slices]), "s")
        return

    server_spans, _ = spans.load(str(scratch / "server-trace.jsonl"))
    layer_metrics(kind, records, server_spans, window_start, window_end,
                  metrics_before, metrics_after, outcome)


def _warmup(spec: dict) -> int:
    if spec["n_warmup"] is not None:
        return spec["n_warmup"]
    return spec["n_iterations"] // 2


# -- output checks ----------------------------------------------------------------


def check_records(kind: str, records: List[dict], outcome: Outcome) -> None:
    from repro.suite import load_workload

    dims = {}
    for record in records:
        spec = record["spec"]
        if spec["workload"] not in dims:
            dims[spec["workload"]] = load_workload(
                spec["workload"], scale=spec["scale"]).dim
        draws = record["draws"]
        budget = spec["n_iterations"] - _warmup(spec)
        # An elided answer is cut at the stop; a resubmission of one is
        # answered from the store with state "done" and the same elision.
        elision = record["elision"]
        converged = bool(elision) and elision["converged_kept"] is not None
        expected_kept = elision["converged_kept"] if converged else budget
        outcome.check(
            draws.shape == (spec["n_chains"], expected_kept,
                            dims[spec["workload"]])
            and bool(np.all(np.isfinite(draws))),
            f"job {record['job_id']}: draws not finite or shaped "
            f"{draws.shape}",
        )
        if "first_draws" in record:
            outcome.check(
                np.array_equal(record["first_draws"], draws),
                f"job {record['job_id']}: resubmission differs from the "
                f"first answer",
            )
        if converged:
            threshold = elision["rhat_threshold"]
            rhat = split_rhat_halves(draws)
            outcome.check(
                rhat <= threshold,
                f"job {record['job_id']}: reported converged, but R-hat "
                f"recomputed on the served draws is {rhat:.4f} > "
                f"{threshold}",
            )

    if kind != "serve_exact":
        return
    # Bit-identity against in-process run_chains, outside the timed window:
    # the first executed job of each engine of client 0's first round.
    sampled = set()
    for record in sorted(records, key=lambda r: (r["client"], r["round"],
                                                  r["position"])):
        spec = record["spec"]
        if record["first"] is not None or spec["engine"] in sampled:
            continue
        sampled.add(spec["engine"])
        stop = _warmup(spec) + record["draws"].shape[1]
        expected = checks.inprocess_draws(spec, stop)
        outcome.check(
            np.array_equal(expected, record["draws"]),
            f"job {record['job_id']} ({spec['engine']}): served draws differ "
            f"from in-process run_chains",
        )


# -- traced run ---------------------------------------------------------------------


def _scrape(url: str) -> Dict[str, float]:
    """Counters from ``/metrics``, summed over labels, keyed by
    ``name{engine}``."""
    from repro.client import GatewayClient

    totals: Dict[str, float] = {}
    for line in GatewayClient(url).metrics().splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        engine = ""
        if 'engine="' in name_labels:
            engine = name_labels.split('engine="', 1)[1].split('"', 1)[0]
        key = f"{name}{{{engine}}}"
        totals[key] = totals.get(key, 0.0) + float(value)
    return totals


def layer_metrics(kind, records, server_spans, window_start, window_end,
                  before, after, outcome: Outcome) -> None:
    """Per-layer metrics of a traced serve run, from the server's spans
    within the timed window and the client's own timestamps."""
    in_window = [s for s in server_spans
                 if window_start <= s["start"] and s["end"] <= window_end]
    by_job: Dict[str, Dict[str, dict]] = {}
    for span in in_window:
        if span["job"] is not None:
            by_job.setdefault(span["job"], {})[span["name"]] = span
    own = spans.self_times(in_window)
    children: Dict[int, List[dict]] = {}
    for span in in_window:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def agg(name: str):
        return _agg_sum(in_window, name)

    def total(name: str, spans_=server_spans) -> float:
        return sum(s["end"] - s["start"] for s in spans_ if s["name"] == name)

    queue_waits, places, executes, overheads = [], [], [], []
    coverage, unattributed = [], []
    submits, results = [], []
    executed = elided = 0
    for record in records:
        submits.append(record["t_submitted"] - record["t_submit"])
        results.append(record["t_done"] - record["t_terminal"])
        latency = record["t_done"] - record["t_submit"]
        job_spans = by_job.get(record["job_id"], {})
        submit_span = job_spans.get("gateway.submit")
        job_span = job_spans.get("serve.job")
        if submit_span is None or job_span is None:
            continue  # answered from the store: nothing ran
        queue_wait = max(0.0, job_span["start"] - submit_span["end"])
        job_s = job_span["end"] - job_span["start"]
        kids = children.get(job_span["id"], [])
        place = sum(s["end"] - s["start"] for s in kids
                    if s["name"] == "serve.place")
        execute = sum(s["end"] - s["start"] for s in kids
                      if s["name"].startswith("serve.execute"))
        # The job span's self time is what no named layer inside it
        # (placement, profiling, execution with its batched evaluations
        # and R-hat checks, store, durable log, surrogate draws) covers.
        remainder = own[job_span["id"]]
        named = ((record["t_submitted"] - record["t_submit"]) + queue_wait
                 + (job_s - remainder)
                 + (record["t_terminal"] - job_span["end"])
                 + (record["t_done"] - record["t_terminal"]))
        queue_waits.append(queue_wait)
        places.append(place)
        executes.append(execute)
        overheads.append(latency - queue_wait - job_s)
        coverage.append(named / latency)
        unattributed.append(remainder)
        if record["spec"]["mode"] == "exact" and record["spec"]["engine"] in (
                "nuts", "hmc"):
            executed += 1
            elided += record["state"] == "converged"

    def med(values):
        return median(values) if values else 0.0

    outcome.metric("serve.queue_wait_s", med(queue_waits), "s")
    outcome.metric("serve.place_s", med(places), "s")
    outcome.metric("arch.profile_s", total("arch.profile"), "s")
    outcome.metric("serve.execute_s", med(executes), "s")
    outcome.metric("serve.batched_jobs",
                   sum(s["name"] == "serve.execute.batched"
                       for s in in_window), "count")
    outcome.metric("serve.pool_jobs",
                   sum(s["name"] == "serve.execute.pool"
                       for s in in_window), "count")
    calls, seconds, lanes = agg("batch.eval")
    outcome.metric("batch.evals", calls, "count")
    outcome.metric("batch.eval_s", seconds, "s")
    outcome.metric("batch.lane_occupancy", lanes / calls if calls else 0.0,
                   "ratio")
    def delta(name: str) -> float:
        key = f"repro_batch_speculation_{name}_total{{hmc}}"
        return after.get(key, 0.0) - before.get(key, 0.0)

    # Useful prefetches over prefetches made, on HMC jobs (NUTS never
    # speculates); 0 when no lane was ever free to speculate on.
    filled = delta("filled")
    outcome.metric("batch.spec_hit_ratio",
                   delta("hits") / filled if filled else 0.0, "ratio")
    calls, seconds, checkpoints = agg("diagnostics.rhat")
    outcome.metric("diagnostics.rhat_checks", checkpoints, "count")
    outcome.metric("diagnostics.rhat_s", seconds, "s")
    outcome.metric("serve.elided_frac", elided / executed if executed else 0.0,
                   "ratio")
    outcome.metric("serve.path_coverage", med(coverage), "ratio")
    outcome.metric("serve.unattributed_s", med(unattributed), "s")
    if kind == "serve_exact":
        outcome.check(
            bool(coverage)
            and abs(med(coverage) - 1.0) <= PATH_TOLERANCE,
            f"named layers cover {med(coverage):.3f} of a job's latency "
            f"(median over {len(coverage)} executed jobs), outside "
            f"1 +/- {PATH_TOLERANCE}",
        )

    calls, seconds, _ = agg("amortize.surrogate")
    outcome.metric("amortize.surrogate_s", seconds / calls if calls else 0.0,
                   "s")
    _, train_s, _ = _agg_sum(server_spans, "amortize.guide_train")
    outcome.metric("amortize.guide_train_s", train_s, "s")
    calls, seconds, hits = agg("serve.store_get")
    outcome.metric("serve.store_get_s", seconds / calls if calls else 0.0, "s")
    outcome.metric("serve.store_hits", hits, "count")
    calls, seconds, _ = agg("serve.store_put")
    outcome.metric("serve.store_put_s", seconds / calls if calls else 0.0, "s")
    calls, seconds, _ = agg("serve.durable_log")
    outcome.metric("serve.durable_log_s", seconds / calls if calls else 0.0,
                   "s")
    outcome.metric("gateway.submit_s", med(submits), "s")
    outcome.metric("gateway.result_s", med(results), "s")
    outcome.metric("gateway.overhead_s", med(overheads), "s")
    requests = (after.get("repro_gateway_requests_total{}", 0.0)
                - before.get("repro_gateway_requests_total{}", 0.0))
    outcome.metric("gateway.requests_per_job",
                   requests / max(len(records), 1), "count")


def _agg_sum(spans_, name):
    """Calls, seconds and extra of one aggregate over ``spans_``."""
    calls = seconds = extra = 0.0
    for span in spans_:
        entry = span["agg"].get(name)
        if entry:
            calls += entry[0]
            seconds += entry[1]
            extra += entry[2]
    return calls, seconds, extra
