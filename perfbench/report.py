"""Run a workload for a time budget and turn its attempts into metrics.

The metric names and units here are the ones ``BENCHMARK.json`` lists;
``tests/test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from perfbench import host
from perfbench.inputs import attempt_seed
from perfbench.ledger import Ledger

#: end-to-end metrics (untraced run): name -> unit
END_TO_END = {
    "replica_rounds_per_s": "1/s",
    "round_p50_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced run): name -> unit.  Every workload reports
#: all of them; a layer the workload does not reach reads 0.
PER_LAYER = {
    "round.p99_us": "us",
    "round.traced_us": "us",
    "unattributed.us_per_round": "us",
    "trace_overhead": "ratio",
    "kernel.us_per_round": "us",
    "kernel.share": "ratio",
    "kernel.bytes_per_round": "B",
    "partner_sampling.us_per_round": "us",
    "partner_apply.us_per_round": "us",
    "trace_record.us_per_round": "us",
    "stopping.us_per_round": "us",
    "audit.us_per_round": "us",
    "chunk_wait.us_per_round": "us",
    "stats_combine.us_per_round": "us",
    "gather_ms": "ms",
    "ctrl.round_trips_per_round": "count",
    "ctrl.bytes_per_round": "B",
    "ctrl.msgs_per_round": "count",
    "ctrl.send_us": "us",
    "ctrl.recv_wait_us": "us",
    "halo.bytes_per_round": "B",
    "halo.values_per_round": "count",
    "dispatch.connect_s": "s",
    "sharding.payload_ms": "ms",
    "sharding.merge_ms": "ms",
    "dispatch.ctrl_bytes": "B",
    "dispatch.heartbeats": "count",
    "dispatch.retries": "count",
    "dispatch.requeued_shards": "count",
    "setup.operator_s": "s",
    "setup.partition_s": "s",
    "setup.workers_s": "s",
    "host.calib_us": "us",
}

#: untraced runs top their set-up samples up with set-up-only attempts
#: until they hold at least SETUP_SAMPLES and have spent SETUP_SHARE of
#: the run's seconds on them, or hold SETUP_MAX_SAMPLES
SETUP_SAMPLES = 5
SETUP_SHARE = 0.1
SETUP_MAX_SAMPLES = 50


def _spent(att) -> float:
    return att.setup_s + att.run_s if att.ok else att.wall_s


def run_attempts(workload, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """Attempts until ``seconds`` of set-up and run time are spent.

    Untraced, set-up-only attempts then top up the set-up samples (see
    :data:`SETUP_SAMPLES`).  Traced, untraced and traced attempts
    alternate, so the tracing overhead compares neighbours in time.
    """
    ledger = Ledger() if trace else None
    plain, traced, setups = [], [], []
    spent, i = 0.0, 0
    while True:
        for led in ([None, ledger] if trace else [None]):
            att = workload.attempt(attempt_seed(seed, i), led)
            i += 1
            (traced if led is not None else plain).append(att)
            spent += _spent(att)
            log(_describe(att))
        if spent >= seconds:
            break
    setup_spent = 0.0
    while not trace:
        samples = sum(a.ok for a in plain + setups)
        if samples >= SETUP_MAX_SAMPLES or (
            samples >= SETUP_SAMPLES and setup_spent >= SETUP_SHARE * seconds
        ):
            break
        att = workload.attempt(attempt_seed(seed, i), setup_only=True)
        i += 1
        setups.append(att)
        setup_spent += att.wall_s
        log(_describe(att, "setup-only"))
        if not att.ok:
            break
    return {"plain": plain, "traced": traced, "setups": setups}


def _describe(att, kind: str | None = None) -> str:
    kind = kind or ("traced" if att.traced else "plain")
    if not att.ok:
        return f"attempt {kind} seed={att.seed} FAILED: {att.error}\n{att.detail}"
    text = f"attempt {kind} seed={att.seed} setup_s={att.setup_s:.4f}"
    if att.rounds:
        text += (f" rounds={att.rounds} run_s={att.run_s:.4f}"
                 f" replica_rounds_per_s={att.replica_rounds_per_s:.1f}")
    return text


def round_percentile(attempts, q: float) -> float:
    """Median over the attempts of each attempt's ``q``-th percentile
    round time in microseconds, so one attempt caught in a burst of host
    noise moves it little."""
    return statistics.median(float(np.percentile(a.round_s, q)) * 1e6 for a in attempts)


def end_to_end(runs: dict) -> dict:
    """End-to-end metrics of the untraced attempts."""
    ok = [a for a in runs["plain"] if a.ok]
    setup = [a.setup_s for a in ok + [a for a in runs["setups"] if a.ok]]
    return {
        "replica_rounds_per_s": statistics.median(a.replica_rounds_per_s for a in ok),
        "round_p50_us": round_percentile(ok, 50),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": host.peak_rss_mb(),
    }


def _sum_dicts(dicts) -> dict:
    out: defaultdict[str, float] = defaultdict(float)
    for d in dicts:
        for k, v in d.items():
            out[k] += v
    return out


def per_layer(workload, runs: dict, calib_us: float) -> dict:
    """The per-layer ledger of the traced attempts.

    Round layers are totals over the round windows of every traced
    attempt divided by their rounds, so the ledger entries plus
    ``unattributed`` add up to the traced round time exactly.
    """
    tr = [a for a in runs["traced"] if a.ok]
    plain = [a for a in runs["plain"] if a.ok]
    window = sum(a.window_s for a in tr)
    rounds = sum(a.window_rounds for a in tr)
    layer = _sum_dicts(a.layers for a in tr)
    once = _sum_dicts(a.once_layers for a in tr)
    counts = _sum_dicts(a.counts for a in tr)
    run_rounds = sum(a.rounds for a in tr)
    n = len(tr)

    def us(name: str) -> float:
        return layer.get(name, 0.0) / rounds * 1e6

    def per_round(count: str) -> float:
        return counts.get(count, 0.0) / run_rounds

    sampling = layer.get("partner_sampling", 0.0)
    m = {
        "round.p99_us": round_percentile(plain, 99),
        "round.traced_us": window / rounds * 1e6,
        "kernel.us_per_round": us("kernel"),
        "kernel.share": layer.get("kernel", 0.0) / window,
        "kernel.bytes_per_round": workload.kernel_bytes_per_round(),
        "partner_sampling.us_per_round": us("partner_sampling"),
        "partner_apply.us_per_round": us("kernel") - us("partner_sampling") if sampling else 0.0,
        "trace_record.us_per_round": us("trace_record"),
        "stopping.us_per_round": us("stopping"),
        "audit.us_per_round": us("audit"),
        "chunk_wait.us_per_round": us("chunk_wait"),
        "stats_combine.us_per_round": us("stats_combine"),
        "gather_ms": once.get("gather", 0.0) / n * 1e3,
        "ctrl.round_trips_per_round": per_round("ctrl_round_trips"),
        "ctrl.bytes_per_round": per_round("ctrl_bytes"),
        "ctrl.msgs_per_round": per_round("ctrl_msgs"),
        "ctrl.send_us": us("ctrl.send"),
        "ctrl.recv_wait_us": us("ctrl.recv_wait"),
        "halo.bytes_per_round": per_round("halo_bytes"),
        "halo.values_per_round": per_round("halo_values"),
        "dispatch.connect_s": once.get("dispatch.connect", 0.0) / n,
        "sharding.payload_ms": once.get("sharding.payload", 0.0) / n * 1e3,
        "sharding.merge_ms": once.get("sharding.merge", 0.0) / n * 1e3,
        "dispatch.ctrl_bytes": counts.get("dispatch_ctrl_bytes", 0.0) / n,
        "dispatch.heartbeats": counts.get("dispatch_heartbeats", 0.0) / n,
        "dispatch.retries": counts.get("dispatch_retries", 0.0) / n,
        "dispatch.requeued_shards": counts.get("dispatch_requeued_shards", 0.0) / n,
        "setup.operator_s": once.get("setup.operator", 0.0) / n,
        "setup.partition_s": once.get("setup.partition", 0.0) / n,
        "setup.workers_s": once.get("setup.workers", 0.0) / n,
        "host.calib_us": calib_us,
    }
    m["unattributed.us_per_round"] = m["round.traced_us"] - sum(
        m[f"{name}.us_per_round"] for name in workload.LEDGER
    )
    m["trace_overhead"] = (
        statistics.median(a.replica_rounds_per_s for a in tr)
        / statistics.median(a.replica_rounds_per_s for a in plain)
        - 1.0
    )
    return {name: m[name] for name in PER_LAYER}


def run(workload, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """One benchmark run; returns the result object.  Its ``metrics`` are
    empty when no attempt succeeded, since there is nothing to report."""
    calib_before = host.calibrate_us()
    runs = run_attempts(workload, seed, seconds, trace, log)
    calib_after = host.calibrate_us()
    log(f"host.calib_us before={calib_before:.3f} after={calib_after:.3f}")
    attempts = runs["plain"] + runs["traced"] + runs["setups"]
    failed = sum(not a.ok for a in attempts)
    log(f"failed_frac = {failed / len(attempts):.4f} ({failed}/{len(attempts)} attempts)")
    values, units = {}, END_TO_END
    if trace:
        units = PER_LAYER
        if any(a.ok for a in runs["traced"]) and any(a.ok for a in runs["plain"]):
            values = per_layer(workload, runs, (calib_before + calib_after) / 2)
            log("per-layer ledger (us per traced round): "
                + ", ".join(f"{k} {values[f'{k}.us_per_round']:.2f}" for k in workload.LEDGER)
                + f", unattributed {values['unattributed.us_per_round']:.2f}"
                + f" of {values['round.traced_us']:.2f}")
    elif any(a.ok for a in runs["plain"]):
        values = end_to_end(runs)
        ok = [a for a in runs["plain"] if a.ok]
        log(f"round_p50_us and round.p99_us = {round_percentile(ok, 99):.6g} us are medians "
            f"over {len(ok)} attempts of {sum(a.round_s.size for a in ok)} round samples")
    for name, value in values.items():
        log(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
