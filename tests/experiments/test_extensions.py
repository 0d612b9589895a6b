"""Extension experiments (ext-* CLI entries)."""

import pytest

from repro.cli import ALL_RUNNABLE, build_parser
from repro.experiments.config import ExperimentScale
from repro.experiments.extensions import (
    EXTENSION_EXPERIMENTS,
    ext_bursty,
    ext_disk_scheduling,
    ext_occ,
    ext_shared_locks,
)
from repro.experiments.figures import clear_cache

TINY = ExperimentScale("tiny", 2, 2, 0.05)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestRegistry:
    def test_extension_ids(self):
        assert set(EXTENSION_EXPERIMENTS) == {
            "ext-shared-locks",
            "ext-multiprocessor",
            "ext-occ",
            "ext-bursty",
            "ext-disk-sched",
            "ext-slack",
            "ext-wp",
        }

    def test_cli_accepts_extension_ids(self):
        args = build_parser().parse_args(["ext-occ"])
        assert args.experiment == "ext-occ"

    def test_all_runnable_merges_both_registries(self):
        assert "fig4a" in ALL_RUNNABLE
        assert "ext-shared-locks" in ALL_RUNNABLE


class TestExtensionResults:
    def test_shared_locks_series(self):
        result = ext_shared_locks(TINY)
        assert set(result.series) == {"EDF-HP", "CCA"}
        xs = [x for x, _ in result.series["CCA"]]
        assert xs == [0.0, 25.0, 50.0, 75.0, 90.0]

    def test_occ_covers_both_semantics(self):
        result = ext_occ(TINY)
        assert set(result.series) == {"EDF-HP", "CCA", "OCC"}
        for points in result.series.values():
            assert [x for x, _ in points] == [0.0, 1.0]
            assert all(0.0 <= y <= 100.0 for _, y in points)

    def test_bursty_two_models(self):
        result = ext_bursty(TINY)
        for points in result.series.values():
            assert len(points) == 2

    def test_disk_scheduling_two_disciplines(self):
        result = ext_disk_scheduling(TINY)
        for points in result.series.values():
            assert len(points) == 2
            assert all(y >= 0.0 for _, y in points)


class TestSlackSensitivity:
    def test_misses_fall_as_deadlines_loosen(self):
        from repro.experiments.extensions import ext_slack

        result = ext_slack(TINY)
        for name, points in result.series.items():
            by_scale = dict(points)
            assert by_scale[0.25] >= by_scale[2.0], name

    def test_registered(self):
        assert "ext-slack" in EXTENSION_EXPERIMENTS


class TestAbortWaitSpectrum:
    def test_series_match_reference_hand_loop(self):
        """ext-wp runs through the shared sweep pipeline (cache, jobs,
        kernel); its series equal a hand loop on the reference engine
        replaying each seed's workload under all four policies."""
        from repro.core.policy import (
            CCAPolicy,
            EDFPolicy,
            EDFWaitPolicy,
            EDFWPPolicy,
        )
        from repro.core.simulator import RTDBSimulator
        from repro.experiments.config import MAIN_MEMORY_BASE
        from repro.experiments.extensions import ext_abort_wait_spectrum
        from repro.metrics.summary import summarize
        from repro.workload.generator import generate_workload

        factories = {
            "EDF-HP": EDFPolicy,
            "EDF-WP": EDFWPPolicy,
            "EDF-Wait": EDFWaitPolicy,
            "CCA": lambda: CCAPolicy(1.0),
        }
        base = TINY.scale_config(MAIN_MEMORY_BASE)
        expected: dict = {name: [] for name in factories}
        for rate in (6.0, 8.0, 10.0):
            config = base.replace(arrival_rate=rate)
            runs: dict = {name: [] for name in factories}
            for seed in TINY.seeds_for(base):
                workload = generate_workload(config, seed)
                for name, factory in factories.items():
                    runs[name].append(
                        RTDBSimulator(config, workload, factory()).run()
                    )
            for name, results in runs.items():
                expected[name].append(
                    (rate, summarize(results).miss_percent.mean)
                )
        assert ext_abort_wait_spectrum(TINY).series == expected
