"""Unit tests for ColorReduceParameters and LowSpaceParameters."""

from __future__ import annotations

import math

import pytest

from repro.core import params as paper
from repro.core.low_space import params as low_space
from repro.core.low_space.params import LowSpaceParameters
from repro.core.params import ColorReduceParameters, RunParameters
from repro.errors import ConfigurationError


class TestColorReduceParameters:
    def test_paper_exponents_are_constants(self):
        assert paper.BIN_EXPONENT == 0.1
        assert paper.DEGREE_SLACK_EXPONENT == 0.6
        assert paper.PALETTE_SLACK_EXPONENT == 0.7
        assert paper.ELL_DECAY_EXPONENT == 0.9
        assert paper.BIN_CAP_SLACK_EXPONENT == 0.6
        assert paper.MIN_ELL == 2.0
        assert not ColorReduceParameters().is_scaled

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
        assert params.degree_slack(1000) == 1000**paper.DEGREE_SLACK_EXPONENT
        assert params.palette_slack(1000) == 1000**paper.PALETTE_SLACK_EXPONENT

    def test_next_ell_paper_formula_matches_lemma(self):
        params = ColorReduceParameters()
        ell = 2.0**40  # large enough that bins are not clamped
        assert not params.bins_are_clamped(ell)
        assert params.literal_regime(ell)
        assert params.next_ell(ell) == (
            ell**paper.ELL_DECAY_EXPONENT - ell**paper.DEGREE_SLACK_EXPONENT
        )

    def test_next_ell_clamped_uses_bin_division(self):
        params = ColorReduceParameters()
        ell = 100.0
        assert not params.literal_regime(ell)
        expected = ell / 2 - ell**paper.DEGREE_SLACK_EXPONENT
        assert params.next_ell(ell) == pytest.approx(expected)

    def test_next_ell_never_below_min(self):
        assert ColorReduceParameters().next_ell(2.0) == paper.MIN_ELL
        assert ColorReduceParameters.scaled(num_bins=4).next_ell(2.0) == paper.MIN_ELL

    def test_scaled_mode(self):
        params = ColorReduceParameters.scaled(num_bins=4)
        assert params.is_scaled
        assert params == ColorReduceParameters(num_bins_override=4, collect_factor=1.5)
        assert not params.literal_regime(2.0**40)
        assert not params.bins_are_clamped(2.0)
        assert params.num_bins(1e9) == 4
        assert params.degree_slack(100) == pytest.approx(3.0 * math.sqrt(25) + 1.0)
        assert params.palette_slack(100) == 1.0
        assert params.next_ell(100) == pytest.approx(max(2.0, 25 - params.degree_slack(100)))
        assert params.bin_cap(100, 400, 1000) == 2.0 * 400 / 4 + 4.0 * math.sqrt(100) + 1.0

    def test_bin_cap(self):
        params = ColorReduceParameters()
        cap = params.bin_cap(ell=100, instance_nodes=1000, global_nodes=1000)
        assert cap == 2.0 * 1000 / 2 + 1000**paper.BIN_CAP_SLACK_EXPONENT

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

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ColorReduceParameters(independence=5)
        with pytest.raises(ConfigurationError):
            ColorReduceParameters(collect_factor=0)
        with pytest.raises(ConfigurationError):
            ColorReduceParameters(num_bins_override=1)
        with pytest.raises(ConfigurationError):
            ColorReduceParameters(max_recursion_depth=0)

    @pytest.mark.parametrize(
        "field",
        [
            "bin_exponent",
            "degree_slack_exponent",
            "palette_slack_exponent",
            "ell_decay_exponent",
            "bin_cap_slack_exponent",
            "degree_slack_override",
            "palette_slack_override",
            "bin_cap_slack_override",
            "min_ell",
            "selection_chunk_bits",
            "enforce_palette_surplus",
        ],
    )
    def test_retired_fields_are_gone(self, field):
        # The paper's constants are not settable; the fingerprint, which
        # hashes every field, no longer carries them either.
        from dataclasses import fields

        assert field not in {spec.name for spec in fields(ColorReduceParameters)}
        with pytest.raises(TypeError):
            ColorReduceParameters(**{field: 1})

    def test_retired_constructors_are_gone(self):
        for name in ("paper", "with_strategy"):
            assert not hasattr(ColorReduceParameters, name)
        assert not hasattr(LowSpaceParameters, "paper")
        with pytest.raises(TypeError):
            ColorReduceParameters.scaled(num_bins=4, degree_slack=7.0)

    def test_field_counts(self):
        from dataclasses import fields

        assert len(fields(ColorReduceParameters)) == 15
        assert len(fields(LowSpaceParameters)) == 15


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
        assert params.degree_slack(100) == 100**low_space.DEGREE_SLACK_EXPONENT
        assert low_space.DEGREE_SLACK_EXPONENT == 0.6
        with pytest.raises(TypeError):
            LowSpaceParameters(degree_slack_exponent=0.6)

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

    def test_palette_slack_is_gone(self):
        # Only the machine-level classification read it; the fingerprint,
        # which hashes every field, no longer carries it either.
        from dataclasses import fields

        with pytest.raises(TypeError):
            LowSpaceParameters(palette_slack_exponent=0.7)
        assert not hasattr(LowSpaceParameters(), "palette_slack")
        assert "palette_slack_exponent" not in {
            spec.name for spec in fields(LowSpaceParameters)
        }


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
        # parallel_workers) changed it on purpose, and so did turning the
        # paper's exponents into constants and retiring the options no
        # caller set.
        from repro.runtime.checkpoint import fingerprint_params

        assert fingerprint_params(ColorReduceParameters()) == (
            "249856ba2c1de6da6eb65da1b7b449df1e70051958ab13ad0d144e5462d2fcdc"
        )
