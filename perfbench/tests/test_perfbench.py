"""Smoke-sized tests of the benchmark itself (not of the program)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import inputs, report  # noqa: E402
from perfbench.ledger import Ledger  # noqa: E402
from perfbench.workloads import WORKLOADS, Size  # noqa: E402

SMOKE = {
    "serial-diffusion": Size(side=8, replicas=1, eps=1e-4, cap=10_000),
    "ensemble-discrete": Size(side=8, replicas=4, eps=0.3, cap=10_000),
    "partitioned-process": Size(side=8, replicas=2, eps=0.5, cap=10_000, blocks=2),
    "dispatch-sharded": Size(side=4, replicas=4, eps=1e-4, cap=10_000, blocks=2, shards=2),
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def smoke(name: str, **kwargs):
    return WORKLOADS[name](SMOKE[name], **kwargs)


def test_generators_deterministic_per_seed_and_distinct_across_seeds():
    for make in (
        lambda s: inputs.half_half(64, 3, high=1000.0, noise=10.0, discrete=False, seed=s),
        lambda s: inputs.half_half(64, 3, high=10**6, noise=10**5, discrete=True, seed=s),
        lambda s: inputs.uniform(64, 3, high=1000.0, seed=s),
    ):
        assert np.array_equal(make(7), make(7))
        assert not np.array_equal(make(7), make(8))
    assert inputs.attempt_seed(3, 0) == inputs.attempt_seed(3, 0)
    assert len({inputs.attempt_seed(s, i) for s in range(3) for i in range(3)}) == 9
    discrete = inputs.half_half(64, 2, high=10**6, noise=10**5, discrete=True, seed=1)
    assert discrete.dtype == np.int64 and (discrete >= 0).all()


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # serial-diffusion runs by name but is not gated (see README.md).
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name != "serial-diffusion"
    ]
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER
    names = list(WORKLOADS) + list(report.END_TO_END) + list(report.PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_ledger_sums_to_traced_round_time(name):
    workload = smoke(name)
    runs = report.run_attempts(workload, seed=1, seconds=0.0, trace=True, log=lambda _: None)
    assert all(a.ok for a in runs["plain"] + runs["traced"]), [
        a.detail for a in runs["plain"] + runs["traced"]
    ]
    m = report.per_layer(workload, runs, calib_us=1.0)
    assert set(m) == set(report.PER_LAYER)
    ledger = sum(m[f"{layer}.us_per_round"] for layer in workload.LEDGER)
    assert ledger + m["unattributed.us_per_round"] == pytest.approx(m["round.traced_us"])
    # Layers never overlap: what they book fits inside the traced round.
    assert m["unattributed.us_per_round"] > -0.01 * m["round.traced_us"]
    assert all(m[f"{layer}.us_per_round"] > 0 for layer in workload.LEDGER)


def test_untraced_attempt_reports_end_to_end_metrics():
    workload = smoke("ensemble-discrete")
    runs = report.run_attempts(workload, seed=2, seconds=0.0, trace=False, log=lambda _: None)
    values = report.end_to_end(runs)
    assert set(values) == set(report.END_TO_END)
    assert all(a.round_s.size == a.rounds for a in runs["plain"])
    assert all(v > 0 for v in values.values())


def test_tracing_wrappers_are_removed_after_a_traced_attempt():
    import repro.simulation.ensemble as ensemble
    from repro.simulation import EnsembleTrace

    record, audit = EnsembleTrace.record, ensemble.audit_replica_sums
    att = smoke("ensemble-discrete").attempt(5, Ledger())
    assert att.ok, att.detail
    assert EnsembleTrace.record is record and ensemble.audit_replica_sums is audit


def _leak_once():
    """A balancer wrapper that leaks one unit of load in the first
    balancer it wraps, on that balancer's first round."""
    state = {"armed": True}

    def wrap(bal):
        if not state["armed"]:
            return bal
        state["armed"] = False
        step = bal.step

        def leaky(loads, rng):
            out = step(loads, rng)
            out[0] -= 1.0
            bal.step = step
            return out

        bal.step = leaky
        return bal

    return wrap


def test_leaking_balancer_counts_as_failure_not_crash():
    workload = smoke("serial-diffusion", wrap_balancer=_leak_once())
    lines: list[str] = []
    result = report.run(workload, seed=3, seconds=0.05, trace=False, log=lines.append)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1
    assert set(result["metrics"]) == set(report.END_TO_END)
    assert any("leaked load" in line for line in lines)
    assert any(line.startswith("failed_frac = ") for line in lines)


def test_check_rejects_leaked_load_and_round_cap_stops():
    from perfbench.workloads import CheckFailed, check_outputs
    from repro.simulation import PotentialFractionBelow

    initial = np.array([[4, 0, 0, 0]])
    rule = PotentialFractionBelow(0.5)
    check_outputs([rule.reason], [0.0], [12.0], np.array([[1, 1, 1, 1]]), initial, rule,
                  discrete=True)
    with pytest.raises(CheckFailed, match="conserved"):
        check_outputs([rule.reason], [0.75], [12.0], np.array([[1, 1, 1, 0]]), initial, rule,
                      discrete=True)
    with pytest.raises(CheckFailed, match="stopped by"):
        check_outputs(["max-rounds(5)"], [0.0], [12.0], np.array([[1, 1, 1, 1]]), initial,
                      rule, discrete=True)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serial-diffusion", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
