"""The retired config rules' fixtures (RD206-RD210), fed to the
constructors that now hold each invariant.

``repro.lint`` no longer checks configs: ``HSCoNASConfig`` and
``EvolutionConfig`` reject a bad value where it enters the program
(docs/static_analysis.md, "Retired rules"). Each case below is the
input the lint rule used to flag.
"""

import pytest

from repro.core.evolution import EvolutionConfig
from repro.core.search import HSCoNASConfig


class TestObjectiveConfig:
    def test_paper_defaults_are_clean(self):
        HSCoNASConfig(target_ms=34.0, beta=-0.5, quality_samples=100)

    def test_nonnegative_beta_fires_rd206(self):
        with pytest.raises(ValueError, match="beta must be negative"):
            HSCoNASConfig(beta=0.5)

    def test_zero_beta_fires(self):
        with pytest.raises(ValueError, match="beta must be negative"):
            HSCoNASConfig(beta=0.0)

    def test_nonpositive_target_fires_rd207(self):
        with pytest.raises(ValueError, match="target_ms must be positive"):
            HSCoNASConfig(target_ms=-3.0)

    def test_non_integer_budget_is_error(self):
        with pytest.raises(ValueError, match="quality_samples must be >= 1"):
            HSCoNASConfig(quality_samples=0)


class TestEvolutionConfig:
    def test_paper_defaults_are_clean(self):
        EvolutionConfig()

    def test_parents_exceeding_population_fires_rd208(self):
        with pytest.raises(ValueError, match="num_parents"):
            EvolutionConfig(population_size=10, num_parents=20)

    def test_zero_generations_fires(self):
        with pytest.raises(ValueError, match="generation"):
            EvolutionConfig(generations=0)

    def test_probability_out_of_range_fires_rd209(self):
        with pytest.raises(ValueError, match="probabilities"):
            EvolutionConfig(mutation_prob=1.5)

    def test_negative_probability_fires(self):
        with pytest.raises(ValueError, match="probabilities"):
            EvolutionConfig(crossover_prob=-0.1)


class TestPipelineConfig:
    def test_defaults_are_clean(self):
        HSCoNASConfig()

    def test_nested_evolution_is_checked(self):
        # The nested config cannot be built, so no pipeline config can
        # carry it.
        with pytest.raises(ValueError, match="num_parents"):
            HSCoNASConfig(evolution=EvolutionConfig(population_size=4, num_parents=10))

    def test_bad_sampling_counts_fire(self):
        with pytest.raises(ValueError, match="sampling counts"):
            HSCoNASConfig(lut_samples_per_cell=0)
