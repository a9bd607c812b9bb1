"""The random program/design generator: validity, determinism, round-trip.

The generator must be *valid by construction* -- every program it emits
passes :func:`repro.lang.validate.validate_program` (Appendix A rules,
including the coverage restriction) without ever being repaired -- and
fully deterministic in the seed, since campaign replay and the corpus
format both depend on it.
"""

from __future__ import annotations

import random

import pytest

from repro.fuzz.corpus import instance_from_json, instance_to_json
from repro.fuzz.driver import fuzz_run
from repro.fuzz.generator import (
    FEATURES,
    FuzzInstance,
    generate_design,
    generate_instance,
    generate_program,
    program_features,
    variable_bounds_for,
)
from repro.lang.program import Loop
from repro.lang.validate import validate_program
from repro.symbolic.affine import Affine

SEED_RANGE = range(120)


class TestGeneratorValidity:
    def test_every_seed_yields_a_valid_program(self):
        # generate_program raises (generator bug) if validation fails;
        # validate again here so the test does not rely on that coupling.
        for seed in SEED_RANGE:
            program = generate_program(random.Random(seed))
            validate_program(program)

    def test_written_streams_include_c(self):
        # "c" is always the accumulated output; multi-assignment branches
        # may additionally write one of the read streams.
        saw_multi_write = False
        for seed in SEED_RANGE:
            program = generate_program(random.Random(seed))
            written = program.body.streams_written()
            assert "c" in written
            assert written <= {s.name for s in program.streams}
            if len(written) > 1:
                saw_multi_write = True
        assert saw_multi_write, "no seed exercised multi-assignment branches"

    def test_rank_and_shape_of_index_maps(self):
        for seed in SEED_RANGE:
            program = generate_program(random.Random(seed))
            r = program.r
            for stream in program.streams:
                rows = stream.index_map.rows
                assert len(rows) == r - 1
                assert all(len(row) == r for row in rows)

    def test_most_seeds_are_schedulable(self):
        instances = [generate_instance(seed) for seed in range(40)]
        found = [i for i in instances if i is not None]
        # The design synthesizer will not accept every random program, but
        # an unschedulable-majority means the generator drifted out of the
        # space the paper's scheme covers.
        assert len(found) >= 30
        for inst in found:
            assert isinstance(inst, FuzzInstance)
            validate_program(inst.program)
            assert set(inst.env) == set(inst.program.all_size_symbols)


class TestGeneratorDeterminism:
    def test_same_seed_same_instance(self):
        for seed in (0, 7, 23):
            a = generate_instance(seed)
            b = generate_instance(seed)
            assert (a is None) == (b is None)
            if a is not None:
                assert instance_to_json(a) == instance_to_json(b)

    def test_program_determinism_from_rng_state(self):
        a = generate_program(random.Random(99))
        b = generate_program(random.Random(99))
        assert a.to_source() == b.to_source()

    def test_design_determinism(self):
        program = generate_program(random.Random(3))
        a = generate_design(random.Random(5), program)
        b = generate_design(random.Random(5), program)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.step.rows == b.step.rows
            assert a.place.rows == b.place.rows
            assert a.loading_vectors == b.loading_vectors


class TestFeatureStrata:
    def test_tags_are_well_known(self):
        for seed in SEED_RANGE:
            program = generate_program(random.Random(seed))
            tags = program_features(program)
            assert tags <= set(FEATURES)
            # all_negative implies negative_step
            if "all_negative" in tags:
                assert "negative_step" in tags

    def test_every_feature_is_reachable(self):
        seen: set[str] = set()
        for seed in SEED_RANGE:
            seen |= program_features(generate_program(random.Random(seed)))
        assert seen == set(FEATURES)

    @pytest.mark.parametrize("feature", FEATURES)
    def test_restricted_generation_carries_the_tag(self, feature):
        found = 0
        for seed in range(30):
            inst = generate_instance(seed, feature=feature)
            if inst is None:
                continue
            found += 1
            assert feature in program_features(inst.program)
        assert found >= 10, f"stratum {feature} starved"

    @pytest.mark.parametrize(
        "k, feature",
        [(1, "negative_step"), (2, "minmax_bound"), (3, "multi_branch")],
    )
    def test_stratum_campaign_is_clean(self, k, feature):
        summary = fuzz_run(
            seed=1000 * k, iterations=10, feature=feature, shrink=False
        )
        assert summary.ok
        assert summary.feature_counts.get(feature, 0) > 0

    def test_restricted_generation_is_deterministic(self):
        a = generate_instance(4, feature="negative_step")
        b = generate_instance(4, feature="negative_step")
        assert (a is None) == (b is None)
        if a is not None:
            assert instance_to_json(a) == instance_to_json(b)

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="feature"):
            generate_instance(0, feature="exotic")


class TestVariableBounds:
    def test_sign_rule(self):
        # index row (1, -1) over j in [0, 3], k in [0, 2]: the image is
        # [0 - 2, 3 - 0] = [-2, 3].
        loops = (
            Loop("j", Affine.constant(0), Affine.constant(3), 1),
            Loop("k", Affine.constant(0), Affine.constant(2), 1),
        )
        ((lo, hi),) = variable_bounds_for(((1, -1),), loops)
        assert lo == Affine.constant(-2)
        assert hi == Affine.constant(3)


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        for seed in (0, 1, 2, 11):
            inst = generate_instance(seed)
            if inst is None:
                continue
            data = instance_to_json(inst)
            back = instance_from_json(data)
            assert back.program.to_source() == inst.program.to_source()
            assert back.array.step.rows == inst.array.step.rows
            assert back.array.place.rows == inst.array.place.rows
            assert back.array.loading_vectors == inst.array.loading_vectors
            assert back.env == inst.env
            # a second encode is byte-stable (corpus filenames hash this)
            assert instance_to_json(back) == data
