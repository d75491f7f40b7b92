"""Unit tests for ColorReduceParameters and LowSpaceParameters."""

from __future__ import annotations

import math

import pytest

from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters, RunParameters
from repro.derand.conditional_expectation import SelectionStrategy
from repro.errors import ConfigurationError


class TestColorReduceParameters:
    def test_defaults_are_paper_exponents(self):
        params = ColorReduceParameters()
        assert params.bin_exponent == pytest.approx(0.1)
        assert params.degree_slack_exponent == pytest.approx(0.6)
        assert params.palette_slack_exponent == pytest.approx(0.7)
        assert not params.is_scaled

    def test_num_bins_paper_formula(self):
        params = ColorReduceParameters()
        assert params.num_bins(2**10) == 2
        assert params.num_bins(10**10) == 10
        # Laptop-scale degrees clamp to 2 bins.
        assert params.num_bins(100) == 2
        assert params.bins_are_clamped(100)
        assert not params.bins_are_clamped(2**10)

    def test_slacks_paper_formula(self):
        params = ColorReduceParameters()
        assert params.degree_slack(1000) == pytest.approx(1000**0.6)
        assert params.palette_slack(1000) == pytest.approx(1000**0.7)

    def test_next_ell_paper_formula_matches_lemma(self):
        params = ColorReduceParameters()
        ell = 2.0**40  # large enough that bins are not clamped
        assert not params.bins_are_clamped(ell)
        assert params.next_ell(ell) == pytest.approx(ell**0.9 - ell**0.6)

    def test_next_ell_clamped_uses_bin_division(self):
        params = ColorReduceParameters()
        ell = 100.0
        expected = ell / 2 - ell**0.6
        assert params.next_ell(ell) == pytest.approx(expected)

    def test_next_ell_never_below_min(self):
        params = ColorReduceParameters()
        assert params.next_ell(2.0) >= params.min_ell

    def test_scaled_mode(self):
        params = ColorReduceParameters.scaled(num_bins=4)
        assert params.is_scaled
        assert params.num_bins(1e9) == 4
        assert params.degree_slack(100) == pytest.approx(3.0 * math.sqrt(25) + 1.0)
        assert params.palette_slack(100) == 1.0
        assert params.next_ell(100) == pytest.approx(max(2.0, 25 - params.degree_slack(100)))

    def test_scaled_mode_explicit_slacks(self):
        params = ColorReduceParameters.scaled(num_bins=4, degree_slack=7.0, palette_slack=2.5)
        assert params.degree_slack(100) == 7.0
        assert params.palette_slack(100) == 2.5

    def test_bin_cap(self):
        params = ColorReduceParameters()
        cap = params.bin_cap(ell=100, instance_nodes=1000, global_nodes=1000)
        assert cap == pytest.approx(2 * 1000 / 2 + 1000**0.6)

    def test_collect_threshold(self):
        params = ColorReduceParameters(collect_factor=2.0)
        assert params.collect_threshold(500) == 1000

    def test_cost_target(self):
        params = ColorReduceParameters()
        # Unclamped paper regime: the literal n / l^2 bound (floored at 1).
        assert params.cost_target(ell=2**40, global_nodes=100) == 1.0
        assert params.cost_target(ell=2**10, global_nodes=10**9) == pytest.approx(
            10**9 / 2**20
        )
        # Clamped bins (laptop-scale l): a small structural allowance applies.
        assert params.cost_target(ell=10, global_nodes=10000) == pytest.approx(100.0)
        assert params.cost_target(ell=100, global_nodes=100) == pytest.approx(4.0)
        scaled = ColorReduceParameters.scaled(num_bins=4)
        assert scaled.cost_target(ell=1000, global_nodes=100) >= 4.0

    def test_with_strategy(self):
        params = ColorReduceParameters().with_strategy(SelectionStrategy.RANDOM)
        assert params.selection_strategy is SelectionStrategy.RANDOM

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ColorReduceParameters(bin_exponent=1.5)
        with pytest.raises(ConfigurationError):
            ColorReduceParameters(independence=5)
        with pytest.raises(ConfigurationError):
            ColorReduceParameters(collect_factor=0)
        with pytest.raises(ConfigurationError):
            ColorReduceParameters(num_bins_override=1)
        with pytest.raises(ConfigurationError):
            ColorReduceParameters(max_recursion_depth=0)
        with pytest.raises(ConfigurationError):
            ColorReduceParameters(min_ell=0)


class TestLowSpaceParameters:
    def test_delta_is_epsilon_over_22(self):
        params = LowSpaceParameters(epsilon=0.44)
        assert params.delta == pytest.approx(0.02)

    def test_paper_bins_and_threshold(self):
        params = LowSpaceParameters(epsilon=0.5)
        # n^delta is tiny for laptop n, so bins clamp to 2.
        assert params.num_bins(10**4) == 2
        assert params.low_degree_threshold(10**4) >= 1
        # For astronomically large n the formulas separate.
        assert params.num_bins(10**60) > 2

    def test_scaled_mode(self):
        params = LowSpaceParameters.scaled(num_bins=4, low_degree_threshold=8)
        assert params.is_scaled
        assert params.num_bins(10**6) == 4
        assert params.low_degree_threshold(10**6) == 8
        assert params.machine_chunk(10**6) == 8

    def test_slacks(self):
        params = LowSpaceParameters()
        assert params.degree_slack(100) == pytest.approx(100**0.6)
        assert params.palette_slack(100) == pytest.approx(100**0.7)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            LowSpaceParameters(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            LowSpaceParameters(independence=3)
        with pytest.raises(ConfigurationError):
            LowSpaceParameters(num_bins_override=1)
        with pytest.raises(ConfigurationError):
            LowSpaceParameters(low_degree_threshold_override=0)
        with pytest.raises(ConfigurationError):
            LowSpaceParameters(machine_chunk_override=0)

    def test_mis_independence_is_gone(self):
        with pytest.raises(TypeError):
            LowSpaceParameters(mis_independence=4)


class TestSharedValidation:
    """Selection, pool and depth-cap knobs are validated at construction, in
    both sets."""

    PARAMETER_SETS = (ColorReduceParameters, LowSpaceParameters)

    @pytest.mark.parametrize("cls", PARAMETER_SETS)
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("selection_batch_size", 0, "selection_batch_size must be positive"),
            ("selection_batch_size", -3, "selection_batch_size must be positive"),
            ("selection_max_candidates", 0, "selection_max_candidates must be positive"),
            ("parallel_workers", 0, "parallel_workers must be at least 1"),
            # rejected at construction, not mid-recursion as "depth 0 exceeded"
            ("max_recursion_depth", 0, "max_recursion_depth must be positive"),
            ("max_recursion_depth", -3, "max_recursion_depth must be positive"),
        ],
    )
    def test_rejected_at_construction(self, cls, field, value, message):
        with pytest.raises(ConfigurationError, match=message):
            cls(**{field: value})

    @pytest.mark.parametrize("value", [0, -1])
    def test_chunk_bits_rejected_at_construction(self, value):
        with pytest.raises(ConfigurationError, match="selection_chunk_bits must be positive"):
            ColorReduceParameters(selection_chunk_bits=value)

    @pytest.mark.parametrize("cls", PARAMETER_SETS)
    def test_smallest_valid_values_accepted(self, cls):
        params = cls(
            selection_batch_size=1,
            selection_max_candidates=1,
            parallel_workers=1,
        )
        assert params.selection_batch_size == 1

    @pytest.mark.parametrize("cls", PARAMETER_SETS)
    @pytest.mark.parametrize("flag", ["selection_use_batch", "graph_use_batch"])
    def test_retired_batch_flags_are_gone(self, cls, flag):
        with pytest.raises(TypeError):
            cls(**{flag: False})

    @pytest.mark.parametrize("cls", PARAMETER_SETS)
    @pytest.mark.parametrize(
        "knob, value",
        [
            ("parallel_max_retries", 2),
            ("parallel_shard_timeout", 30.0),
            ("parallel_breaker_threshold", 3),
            ("parallel_breaker_cooldown", 8),
            ("parallel_transport", "shm"),
            ("parallel_min_slab_pairs", None),
        ],
    )
    def test_retired_pool_knobs_are_gone(self, cls, knob, value):
        # parallel_workers is the one parallel knob left; the pool tunes
        # the rest itself.  Even the old default values are rejected.
        with pytest.raises(TypeError):
            cls(**{knob: value})


class TestRunParameters:
    """Both parameter sets inherit the shared run knobs from one base."""

    def test_both_sets_share_the_base(self):
        from dataclasses import fields

        shared = {spec.name for spec in fields(RunParameters)}
        assert len(shared) == 9
        for cls in (ColorReduceParameters, LowSpaceParameters):
            assert issubclass(cls, RunParameters)
            assert shared <= {spec.name for spec in fields(cls)}

    def test_color_reduce_fingerprint_unchanged(self):
        # The pin guards against accidental changes: every digest change
        # invalidates existing checkpoints and service cache entries.
        # fingerprint_params sorts by field name, so moving fields into the
        # base kept it; retiring the six pool knobs (and no longer hashing
        # parallel_workers) changed it on purpose.
        from repro.runtime.checkpoint import fingerprint_params

        assert fingerprint_params(ColorReduceParameters()) == (
            "beb664b02eaf7d965635f8402ac25f731007aad79b8e245a61db72ca861c14f2"
        )
