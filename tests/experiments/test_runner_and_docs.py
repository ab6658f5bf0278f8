"""Tests for ``run_experiment`` and the generated experiment docs."""

import importlib.util
import inspect
import os

import numpy as np
import pytest

from repro.drone import Difficulty, all_variants, generate_scenario
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.hil_experiments import _configuration_results
from repro.hil import HILConfig, HILLoop
from repro.tinympc import default_quadrotor_problem, problem_hash

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))


def _load_generator():
    path = os.path.join(REPO_ROOT, "scripts", "gen_experiment_docs.py")
    spec = importlib.util.spec_from_file_location("gen_experiment_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExperimentDocs:
    def test_docs_match_registry(self):
        """docs/experiments.md must be exactly what the generator emits."""
        generator = _load_generator()
        docs_path = os.path.join(REPO_ROOT, "docs", "experiments.md")
        assert os.path.exists(docs_path), \
            "run: PYTHONPATH=src python scripts/gen_experiment_docs.py"
        with open(docs_path) as handle:
            committed = handle.read()
        assert committed == generator.build_experiments_markdown(), \
            "docs/experiments.md is stale; regenerate with scripts/gen_experiment_docs.py"

    def test_docs_list_every_experiment(self):
        generator = _load_generator()
        markdown = generator.build_experiments_markdown()
        for experiment in EXPERIMENTS.values():
            assert "`{}`".format(experiment.identifier) in markdown
            assert experiment.title in markdown
            assert experiment.driver.__name__ in markdown


class TestProblemHash:
    def test_stable_and_content_sensitive(self):
        problem = default_quadrotor_problem()
        assert problem_hash(problem) == problem_hash(default_quadrotor_problem())
        assert problem_hash(problem) != problem_hash(problem.scaled(horizon=12))
        assert problem_hash(problem) != problem_hash(problem.scaled(rho=1.0))

    def test_name_does_not_affect_hash(self):
        problem = default_quadrotor_problem()
        renamed = default_quadrotor_problem()
        renamed.name = "something-else"
        assert problem_hash(problem) == problem_hash(renamed)


class TestRunExperiment:
    def test_kwargs_reach_the_driver(self):
        default = run_experiment("fig1")
        problem = default_quadrotor_problem()
        assert run_experiment("fig1", problem=problem) == default
        assert run_experiment(
            "fig1", problem=problem.scaled(horizon=12)) != default

    def test_repeat_run_returns_equal_fresh_rows(self):
        first = run_experiment("table1")
        first[0]["name"] = "corrupted"
        second = run_experiment("table1")
        assert second[0]["name"] != "corrupted"
        assert second == run_experiment("table1")

    def test_batched_drivers_default_to_batched(self):
        batched = {}
        for identifier, experiment in EXPERIMENTS.items():
            parameters = inspect.signature(experiment.driver).parameters
            if "batched" in parameters:
                batched[identifier] = parameters["batched"].default
        assert batched == {"fig16": True, "fig17": True, "fig18": True,
                           "fleet_campaign": True}

    def test_batched_fig16_cell_matches_sequential(self):
        kwargs = dict(implementations=("vector",), frequencies_mhz=(100.0,),
                      episodes_per_cell=1, include_ideal=False)
        batched = run_experiment("fig16", batched=True, **kwargs)
        sequential = run_experiment("fig16", batched=False, **kwargs)
        assert len(batched) == len(sequential)
        for row_b, row_s in zip(batched, sequential):
            assert row_b["success_rate"] == row_s["success_rate"]
            assert row_b["median_solve_time_ms"] == pytest.approx(
                row_s["median_solve_time_ms"], rel=1e-9)
            assert row_b["mean_iterations"] == pytest.approx(
                row_s["mean_iterations"], rel=1e-9)


# One configuration's grid as fig16/fig18 fly it: difficulty-major, then seed.
GRID = (Difficulty.EASY, Difficulty.MEDIUM)


def assert_grid_is_scalar_loop(results, implementation, variant, **tolerance):
    """Compare with the grid flown one scenario at a time by
    ``HILLoop.run_scenario``; without a tolerance every float is equal."""
    loop = HILLoop(HILConfig(implementation=implementation),
                   params=all_variants()[variant])
    references = [loop.run_scenario(generate_scenario(difficulty, seed))
                  for difficulty in GRID for seed in range(2)]
    assert len(results) == len(references)
    for reference, result in zip(references, results):
        assert result.scenario.difficulty == reference.scenario.difficulty
        assert result.scenario.seed == reference.scenario.seed
        for name in ("success", "crashed", "solve_iterations", "solve_times",
                     "flight_time_s"):
            assert getattr(result, name) == getattr(reference, name), name
        for name in ("final_distance", "actuation_power_w", "soc_power_w"):
            expected = getattr(reference, name)
            if tolerance:
                expected = pytest.approx(expected, **tolerance)
            assert getattr(result, name) == expected, name


class TestConfigurationCampaign:
    """fig16 and fig18 fly each configuration's scenario grid as one fleet
    campaign, which must reproduce the scalar loop over the same grid."""

    def test_unbatched_grid_is_the_scalar_loop(self):
        results = _configuration_results(GRID, 2, "vector", 100.0,
                                         "CrazyFlie", batched=False)
        assert_grid_is_scalar_loop(results, "vector", "CrazyFlie")

    def test_batched_grid_matches_the_scalar_loop(self):
        results = _configuration_results(GRID, 2, "vector", 100.0,
                                         "CrazyFlie", batched=True)
        assert_grid_is_scalar_loop(results, "vector", "CrazyFlie",
                                   rel=1e-6, abs=1e-9)

    def test_variant_name_selects_its_airframe(self):
        """fig18 passes the variant by name."""
        results = _configuration_results(GRID, 2, "vector", 100.0, "Hawk",
                                         batched=False)
        assert_grid_is_scalar_loop(results, "vector", "Hawk")

    def test_ideal_policy_draws_no_soc_power(self):
        results = _configuration_results(GRID, 2, "ideal", 100.0,
                                         "CrazyFlie", batched=True)
        assert len(results) == 4
        assert all(r.success and r.soc_power_w == 0.0 for r in results)
