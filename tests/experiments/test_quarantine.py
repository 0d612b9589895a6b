"""Kernel→reference self-healing: guarded cells, bundles, replay.

The contract under test: with a :class:`FallbackPolicy` active, a
kernel cell that dies on an unexpected exception re-runs on the
sanitized reference engine and yields *the* bit-identical result — a
sweep with fallbacks equals an all-reference sweep exactly — while the
failure is quarantined into a bundle that ``repro replay`` reproduces
bit-for-bit.  Budget aborts never heal (the slower engine would only
blow the budget harder).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments import faults, parallel
from repro.experiments.cache import cache_key
from repro.experiments.faults import FaultPlan, InjectedKernelFault
from repro.experiments.cell import CellOutcome, simulate_cell
from repro.experiments.parallel import (
    RetryPolicy,
    cells_for_sweep,
    execute_cells,
    last_stats,
)
from repro.experiments.quarantine import (
    BUNDLE_KIND,
    BUNDLE_SCHEMA,
    FallbackPolicy,
    bundle_dir_for,
    config_from_dict,
    kernel_eligible,
    load_bundle,
    replay_bundle,
    run_cell_guarded,
    write_bundle,
)
from repro.obs.prof import SpanProfiler
from repro.obs.registry import MetricsRegistry
from repro.sim import engine as sim_engine
from repro.sim.engine import MemoryBudgetExceeded

SEEDS = (1, 2)
RATES = (2.0, 6.0)
POLICIES = ("CCA", "EDF-HP")


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.install(None)
    parallel.take_failures()
    parallel.take_fallbacks()
    yield
    faults.install(None)
    parallel.take_failures()
    parallel.take_fallbacks()


@pytest.fixture
def tiny_config(mm_config):
    return mm_config.replace(n_transactions=12)


@pytest.fixture
def cells(tiny_config):
    configs = {rate: tiny_config.replace(arrival_rate=rate) for rate in RATES}
    return cells_for_sweep(configs, SEEDS, POLICIES)


def kernel_plan_for(config, seed, policy) -> FaultPlan:
    """A plan whose schedule fires a kernel fault on exactly this cell."""
    key = cache_key(config, seed, policy)
    for plan_seed in range(500):
        plan = FaultPlan(seed=plan_seed, kernel=0.5, max_failures=1)
        if plan.decide(key, 1) == "kernel":
            return plan
    raise AssertionError("no plan seed faults this cell")


class TestEligibility:
    def test_auto_and_kernel_engines_eligible(self, tiny_config):
        assert kernel_eligible(tiny_config.replace(engine="auto"))
        assert kernel_eligible(tiny_config.replace(engine="kernel"))

    def test_reference_engine_not_eligible(self, tiny_config):
        assert not kernel_eligible(tiny_config.replace(engine="reference"))

    def test_sanitized_cells_not_eligible(self, tiny_config):
        assert not kernel_eligible(tiny_config.replace(sanitize=True))


class TestGuardedRunner:
    def test_clean_cell_returns_outcome_without_fallback(
        self, tiny_config, tmp_path
    ):
        outcome = run_cell_guarded(
            tiny_config, 1, "CCA", 1,
            observe=False, profile=False,
            max_wall_s=None, max_memory_mb=None,
            fallback=FallbackPolicy(quarantine_dir=str(tmp_path)),
        )
        assert isinstance(outcome, CellOutcome)
        assert outcome.fallback is None
        assert outcome.result == simulate_cell(tiny_config, 1, "CCA").result

    def test_kernel_fault_heals_to_reference_result(self, tiny_config, tmp_path):
        faults.install(kernel_plan_for(tiny_config, 1, "CCA"))
        outcome = run_cell_guarded(
            tiny_config, 1, "CCA", 1,
            observe=False, profile=False,
            max_wall_s=None, max_memory_mb=None,
            fallback=FallbackPolicy(quarantine_dir=str(tmp_path)),
        )
        record = outcome.fallback
        assert record is not None
        assert record["exception"] == "InjectedKernelFault"
        assert record["engine"] == "reference"
        assert record["sanitized"] is True
        assert record["reproduced"] is True
        # Bit-identical healing: the healed outcome IS the clean result.
        faults.install(None)
        clean = simulate_cell(
            tiny_config.replace(engine="reference"), 1, "CCA"
        ).result
        assert outcome.result == clean

    def test_reference_cell_failure_propagates(self, tiny_config, tmp_path):
        reference = tiny_config.replace(engine="reference")
        faults.install(kernel_plan_for(reference, 1, "CCA"))
        with pytest.raises(InjectedKernelFault):
            run_cell_guarded(
                reference, 1, "CCA", 1,
                observe=False, profile=False,
                max_wall_s=None, max_memory_mb=None,
                fallback=FallbackPolicy(quarantine_dir=str(tmp_path)),
            )

    def test_budget_aborts_never_heal(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.setattr(
            sim_engine, "rss_bytes", lambda: 10 * 1024 * 1024 * 1024
        )
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            run_cell_guarded(
                tiny_config, 1, "CCA", 1,
                observe=False, profile=False,
                max_wall_s=None, max_memory_mb=1.0,
                fallback=FallbackPolicy(quarantine_dir=str(tmp_path)),
            )
        assert "events" in excinfo.value.progress
        assert not any(tmp_path.iterdir())  # no bundle for budget aborts

    def test_unwritable_quarantine_still_heals(self, tiny_config, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("in the way")
        faults.install(kernel_plan_for(tiny_config, 1, "CCA"))
        outcome = run_cell_guarded(
            tiny_config, 1, "CCA", 1,
            observe=False, profile=False,
            max_wall_s=None, max_memory_mb=None,
            fallback=FallbackPolicy(quarantine_dir=str(blocker)),
        )
        assert outcome.fallback is not None
        assert outcome.fallback["bundle"] is None


class TestBundles:
    def trigger(self, tiny_config, tmp_path) -> tuple:
        plan = kernel_plan_for(tiny_config, 1, "CCA")
        faults.install(plan)
        policy = FallbackPolicy(quarantine_dir=str(tmp_path), capture_tail=64)
        try:
            key = cache_key(tiny_config, 1, "CCA")
            faults.inject_kernel_fault(key, 1)
        except InjectedKernelFault as exc:
            path, reproduced = write_bundle(
                tiny_config, 1, "CCA", 1, exc,
                max_wall_s=None, max_memory_mb=None, fallback=policy,
            )
        return path, reproduced, policy

    def test_bundle_contents(self, tiny_config, tmp_path):
        path, reproduced, policy = self.trigger(tiny_config, tmp_path)
        assert reproduced is True
        assert path == str(bundle_dir_for(tiny_config, 1, "CCA", policy))
        doc = load_bundle(path)
        assert doc["kind"] == BUNDLE_KIND
        assert doc["schema"] == BUNDLE_SCHEMA
        assert doc["cell"] == {"seed": 1, "policy": "CCA"}
        assert doc["scenario_hash"] == cache_key(tiny_config, 1, "CCA")
        assert doc["exception"] == "InjectedKernelFault"
        assert "InjectedKernelFault" in doc["traceback"]
        assert doc["fault_spec"] is not None
        assert doc["capture_exception"] == "InjectedKernelFault"
        assert doc["tail_capacity"] == 64
        # trace.jsonl mirrors the bundle's tail for human inspection.
        with open(f"{path}/trace.jsonl") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert lines == doc["tail_events"]

    def test_config_round_trips_through_bundle(self, tiny_config, tmp_path):
        path, _, _ = self.trigger(tiny_config, tmp_path)
        doc = load_bundle(path)
        assert config_from_dict(doc["config"]) == tiny_config

    def test_load_rejects_non_bundles(self, tmp_path):
        bogus = tmp_path / "bundle.json"
        bogus.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a quarantine bundle"):
            load_bundle(tmp_path)

    def test_replay_reproduces_bit_for_bit(self, tiny_config, tmp_path):
        path, _, _ = self.trigger(tiny_config, tmp_path)
        faults.install(None)  # replay installs the bundle's own plan
        report = replay_bundle(path)
        assert report["matched"] is True
        assert report["tail_matched"] is True
        assert report["reproduced_at_capture"] is True
        assert report["expected"]["exception"] == "InjectedKernelFault"
        # ... and restores the caller's (empty) plan afterwards.
        assert faults.active_plan() is None

    def test_replay_detects_scenario_drift(self, tiny_config, tmp_path):
        path, _, _ = self.trigger(tiny_config, tmp_path)
        doc = load_bundle(path)
        doc["config"]["arrival_rate"] = doc["config"]["arrival_rate"] + 1.0
        with open(f"{path}/bundle.json", "w") as handle:
            json.dump(doc, handle)
        with pytest.raises(ValueError, match="scenario hash mismatch"):
            replay_bundle(path)


class TestSweepFallbacks:
    """End-to-end: sweeps heal kernel faults and record them."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_with_fallback_matches_reference_run(
        self, cells, tmp_path, jobs
    ):
        reference_cells = [
            dataclasses.replace(
                c, config=c.config.replace(engine="reference")
            )
            for c in cells
        ]
        baseline = execute_cells(reference_cells, jobs=1)

        plan = FaultPlan(seed=3, kernel=0.4, max_failures=1)
        hit = [
            c.key for c in cells
            if plan.decide(cache_key(c.config, c.seed, c.policy), 1) == "kernel"
        ]
        assert hit, "plan must fault at least one cell"
        faults.install(plan)
        healed = execute_cells(
            cells,
            jobs=jobs,
            fallback=FallbackPolicy(quarantine_dir=str(tmp_path)),
        )
        stats = last_stats()

        assert healed == baseline  # figures identical to all-reference
        assert [
            (r["cell"]["x"], r["cell"]["policy"], r["cell"]["seed"])
            for r in stats.engine_fallbacks
        ] == sorted(hit)
        assert stats.failures == []  # healed cells are not failures
        drained = parallel.take_fallbacks()
        assert drained == stats.engine_fallbacks
        assert parallel.take_fallbacks() == []

    def test_no_fallback_policy_means_plain_failures(self, cells):
        plan = FaultPlan(seed=3, kernel=0.4, max_failures=1)
        faults.install(plan)
        result = execute_cells(
            cells, jobs=1, retry=RetryPolicy(on_error="retry", max_attempts=3)
        )
        stats = last_stats()
        assert stats.engine_fallbacks == []
        assert any(
            f.exception == "InjectedKernelFault" for f in stats.failures
        )
        faults.install(None)
        assert result == execute_cells(cells, jobs=1)

    def test_fallback_records_progress_through_session(self, cells, tmp_path):
        plan = FaultPlan(seed=3, kernel=0.4, max_failures=1)
        faults.install(plan)
        execute_cells(
            cells,
            jobs=1,
            fallback=FallbackPolicy(quarantine_dir=str(tmp_path)),
        )
        records = parallel.take_fallbacks()
        assert records
        for record in records:
            assert set(record) >= {
                "cell", "exception", "engine", "sanitized", "bundle",
            }
            assert record["engine"] == "reference"


def plan_hitting_kinds(cells, **rates) -> FaultPlan:
    """A retry-transient plan whose first attempts hit every kind in
    ``rates`` at least once across ``cells``."""
    for plan_seed in range(500):
        plan = FaultPlan(seed=plan_seed, max_failures=1, **rates)
        kinds = {
            plan.decide(cache_key(c.config, c.seed, c.policy), 1) for c in cells
        }
        if kinds >= set(rates):
            return plan
    raise AssertionError(f"no plan seed hits every kind of {sorted(rates)}")


def deterministic_part(snapshot: dict) -> dict:
    """A registry snapshot minus its wall-clock series."""
    return {
        "counters": snapshot["counters"],
        "histograms": {
            key: data
            for key, data in snapshot["histograms"].items()
            if key != "sweep.cell_wall_ms" and not key.startswith("prof.")
        },
    }


class TestRunnerMatrix:
    """Every executor mode through the one cell runner and one payload:
    {plain, observed, profiled} x {no fallback, healed kernel faults}
    x jobs {1, 2}, each under injected corrupt payloads."""

    @pytest.mark.parametrize("mode", ["plain", "observed", "profiled"])
    @pytest.mark.parametrize("healing", [False, True], ids=["clean", "healed"])
    def test_matrix(self, cells, tmp_path, mode, healing):
        reference_cells = [
            dataclasses.replace(c, config=c.config.replace(engine="reference"))
            for c in cells
        ]
        baseline = execute_cells(reference_cells, jobs=1)
        rates = {"corrupt": 0.3, "kernel": 0.3} if healing else {"corrupt": 0.3}
        plan = plan_hitting_kinds(cells, **rates)
        decided = {
            c.key: plan.decide(cache_key(c.config, c.seed, c.policy), 1)
            for c in cells
        }
        fallback = (
            FallbackPolicy(quarantine_dir=str(tmp_path)) if healing else None
        )
        runs = {}
        for jobs in (1, 2):
            metrics = MetricsRegistry() if mode != "plain" else None
            prof = SpanProfiler() if mode == "profiled" else None
            faults.install(plan)
            results = execute_cells(
                cells,
                jobs=jobs,
                metrics=metrics,
                profile=prof,
                fallback=fallback,
                retry=RetryPolicy(on_error="retry", max_attempts=2),
            )
            faults.install(None)
            runs[jobs] = (results, last_stats(), metrics, prof)

        for results, stats, metrics, prof in runs.values():
            assert results == baseline  # bit-identical to all-reference
            # Corrupt payloads are rejected (then retried) in every mode.
            assert [f.key for f in stats.failures] == sorted(
                key for key, kind in decided.items() if kind == "corrupt"
            )
            assert all(f.exception == "CorruptResultError" for f in stats.failures)
            assert all(f.recovered for f in stats.failures)
            assert [
                (r["cell"]["x"], r["cell"]["policy"], r["cell"]["seed"])
                for r in stats.engine_fallbacks
            ] == sorted(key for key, kind in decided.items() if kind == "kernel")
            if prof is not None:
                # One cell span per computed cell: profiled payloads
                # carried their recordings back.
                simulated = [s for s in prof.spans if s[1] == "cell.simulate"]
                assert len(simulated) == len(cells)
                assert sum(
                    s[5]["engine"] == "reference" for s in simulated
                ) == len(stats.engine_fallbacks)
        (_, serial, serial_metrics, _), (_, pooled, pooled_metrics, _) = (
            runs[1],
            runs[2],
        )
        assert serial.failures == pooled.failures
        assert serial.engine_fallbacks == pooled.engine_fallbacks
        if mode != "plain":
            assert deterministic_part(serial_metrics.snapshot()) == (
                deterministic_part(pooled_metrics.snapshot())
            )

    @pytest.mark.parametrize(
        "observed, profiled, payload",
        [
            (False, False, "__repro_corrupt_payload__"),
            (False, False, CellOutcome(None)),
            (False, False, "deltas"),
            (True, False, "no-deltas"),
            (False, True, "no-prof-state"),
            (False, False, "bad-fallback"),
        ],
    )
    def test_malformed_payloads_rejected(
        self, tiny_config, observed, profiled, payload
    ):
        cell = cells_for_sweep({1.0: tiny_config}, (1,), ("CCA",))[0]
        good = simulate_cell(
            tiny_config, 1, "CCA", observe=observed, profile=profiled
        )
        shaped = {
            "deltas": dataclasses.replace(good, deltas={}),
            "no-deltas": dataclasses.replace(good, deltas=None),
            "no-prof-state": dataclasses.replace(good, prof_state=None),
            "bad-fallback": dataclasses.replace(good, fallback="oops"),
        }
        assert parallel._validate_outcome(cell, good, observed, profiled) is good
        with pytest.raises(parallel.CorruptResultError):
            parallel._validate_outcome(
                cell, shaped.get(payload, payload), observed, profiled
            )


class TestFailureProgress:
    def test_budget_failure_carries_progress(self, tiny_config, monkeypatch):
        monkeypatch.setattr(
            sim_engine, "rss_bytes", lambda: 10 * 1024 * 1024 * 1024
        )
        cells = cells_for_sweep(
            {2.0: tiny_config.replace(arrival_rate=2.0)}, (1,), ("CCA",)
        )
        execute_cells(
            cells,
            jobs=1,
            retry=RetryPolicy(on_error="skip", max_attempts=1, memory_mb=1.0),
        )
        failures = parallel.take_failures()
        assert len(failures) == 1
        failure = failures[0]
        assert failure.exception == "MemoryBudgetExceeded"
        assert failure.progress is not None
        assert failure.progress["rss_bytes"] == 10 * 1024 * 1024 * 1024
        assert "events" in failure.progress
        assert "committed" in failure.progress
        assert failure.to_dict()["progress"] == failure.progress
