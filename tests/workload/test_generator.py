"""Full workload assembly."""

import hashlib
import json

import pytest

from repro.config import SimulationConfig
from repro.experiments.config import DISK_BASE, MAIN_MEMORY_BASE
from repro.workload.generator import WorkloadGenerator, generate_workload
from repro.workload.serialization import spec_to_dict


def config(**overrides):
    defaults = dict(
        n_transaction_types=10,
        updates_mean=5.0,
        updates_std=2.0,
        db_size=100,
        n_transactions=200,
        arrival_rate=5.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestGenerateWorkload:
    def test_size_and_ordering(self):
        workload = generate_workload(config(), seed=1)
        assert len(workload) == 200
        arrivals = [spec.arrival_time for spec in workload]
        assert sorted(arrivals) == arrivals
        assert [spec.tid for spec in workload] == list(range(200))

    def test_deterministic_per_seed(self):
        assert generate_workload(config(), 5) == generate_workload(config(), 5)

    def test_different_seeds_differ(self):
        assert generate_workload(config(), 1) != generate_workload(config(), 2)

    def test_instances_share_type_items(self):
        workload = generate_workload(config(), seed=3)
        by_type: dict[int, set] = {}
        for spec in workload:
            items = frozenset(op.item for op in spec.operations)
            by_type.setdefault(spec.type_id, set()).add(items)
        for type_id, item_sets in by_type.items():
            assert len(item_sets) == 1, f"type {type_id} instances disagree"

    def test_deadline_satisfies_formula_bounds(self):
        cfg = config(min_slack=0.2, max_slack=8.0)
        for spec in generate_workload(cfg, seed=4):
            resource = spec.resource_time
            lower = spec.arrival_time + resource * 1.2
            upper = spec.arrival_time + resource * 9.0
            assert lower - 1e-9 <= spec.deadline <= upper + 1e-9

    def test_no_io_on_main_memory_workloads(self):
        workload = generate_workload(config(), seed=5)
        assert all(not op.needs_io for spec in workload for op in spec.operations)

    def test_disk_io_probability(self):
        cfg = config(
            disk_resident=True,
            disk_access_time=25.0,
            disk_access_prob=0.1,
            n_transactions=500,
        )
        workload = generate_workload(cfg, seed=6)
        ops = [op for spec in workload for op in spec.operations]
        io_fraction = sum(1 for op in ops if op.needs_io) / len(ops)
        assert 0.07 < io_fraction < 0.13
        assert all(
            op.io_time == pytest.approx(25.0) for op in ops if op.needs_io
        )

    def test_types_table_exposed(self):
        generator = WorkloadGenerator(config(), seed=7)
        types = generator.make_types()
        assert len(types) == 10

    def test_program_names_match_types(self):
        workload = generate_workload(config(), seed=8)
        for spec in workload:
            assert spec.program_name == f"type{spec.type_id}"

    def test_arrival_rate_changes_do_not_perturb_types(self):
        """Stream separation: the same seed draws the same type table at
        every arrival rate."""
        slow = WorkloadGenerator(config(arrival_rate=1.0), seed=9).make_types()
        fast = WorkloadGenerator(config(arrival_rate=10.0), seed=9).make_types()
        assert slow == fast


#: sha256 of the sorted-key JSON of ``spec_to_dict`` over the whole
#: workload, pinned from the generator that built every Operation per
#: instance.  Sharing operations must not change one bit of the output.
GOLDEN_DIGESTS = {
    ("mm", 1): "0e21774585803483b619bea1afed72b4d835bc5db54e95bb2c7f4b0c50564a14",
    ("mm", 2): "956cc79b0e692e817657b5dc81daaba557d6c4716c02f50e1dce3bd2db46d6d7",
    ("disk", 1): "ab95de3224ad8e4ed7ceaf5b90d944bcd2eeb4a9611489c5b7d544556d0a81a8",
    ("disk", 2): "912fc1b987cff864edd602f95573b57e3a18385ac0042340aba7e38d008f15f2",
}
BASES = {"mm": MAIN_MEMORY_BASE, "disk": DISK_BASE}


def workload_digest(workload) -> str:
    blob = json.dumps([spec_to_dict(spec) for spec in workload], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestSharedOperations:
    @pytest.mark.parametrize("base, seed", sorted(GOLDEN_DIGESTS))
    def test_paper_workloads_unchanged_bit_for_bit(self, base, seed):
        workload = generate_workload(BASES[base], seed)
        assert workload_digest(workload) == GOLDEN_DIGESTS[(base, seed)]

    def test_main_memory_instances_share_operations(self):
        first: dict[int, tuple] = {}
        for spec in generate_workload(MAIN_MEMORY_BASE, seed=1):
            shared = first.setdefault(spec.type_id, spec.operations)
            assert spec.operations is shared
        assert len(first) > 1

    def test_disk_instances_share_operation_objects(self):
        # Each (type, op index) has exactly two Operation objects: with
        # and without the disk leg.
        seen: dict[tuple[int, int, bool], object] = {}
        for spec in generate_workload(DISK_BASE, seed=1):
            for index, op in enumerate(spec.operations):
                key = (spec.type_id, index, op.needs_io)
                assert seen.setdefault(key, op) is op
        assert any(needs_io for _, _, needs_io in seen)
