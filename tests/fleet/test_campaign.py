"""Tests for the campaign DSL: expansion, validation, serialization, factory."""

import math
import re

import pytest

from repro.drone import Difficulty
from repro.fleet import CampaignSpec, EpisodeFactory, EpisodeSpec, compatibility_key
from repro.hil.soc import SoCModel


class TestCampaignSpec:
    def test_cross_product_size_and_order(self):
        spec = CampaignSpec(difficulties=("easy", "hard"), seeds=(0, 1, 2),
                            frequencies_mhz=(50.0, 100.0))
        episodes = spec.expand()
        assert spec.size == len(episodes) == 2 * 3 * 2
        # Documented nesting: difficulty > seed > ... > frequency
        assert [e.difficulty for e in episodes[:6]] == [Difficulty.EASY] * 6
        assert [e.seed for e in episodes[:4]] == [0, 0, 1, 1]
        assert [e.frequency_mhz for e in episodes[:2]] == [50.0, 100.0]

    def test_expansion_is_deterministic(self):
        spec = CampaignSpec(difficulties=("easy", "medium"), seeds=range(4),
                            variants=("CrazyFlie", "Hawk"))
        assert spec.expand() == spec.expand()
        assert spec.expand() == CampaignSpec.from_dict(spec.to_dict()).expand()

    def test_scalars_and_strings_coerced(self):
        spec = CampaignSpec(difficulties="medium", seeds=3,
                            frequencies_mhz=100, variants="Hawk")
        assert spec.difficulties == (Difficulty.MEDIUM,)
        assert spec.seeds == (3,)
        assert spec.frequencies_mhz == (100.0,)
        assert spec.size == 1

    def test_round_trip_dict(self):
        spec = CampaignSpec(name="grid", difficulties=("easy", "hard"),
                            seeds=(1, 5), control_rates_hz=(50.0, 100.0))
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            CampaignSpec(variants=("Falcon",))

    def test_unknown_implementation_rejected(self):
        with pytest.raises(ValueError, match="implementation"):
            CampaignSpec(implementations=("gpu",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CampaignSpec(seeds=())

    @pytest.mark.parametrize("field, value", [
        ("max_admm_iterations", [10, 0]), ("physics_dt", 0.0),
        ("physics_dt", -0.002), ("physics_dt", float("nan")),
        ("physics_dt", float("inf"))])
    def test_impossible_budget_or_physics_step_rejected(self, field, value):
        """Checked at construction, so a spec read back from a run
        directory's meta.json is checked too."""
        with pytest.raises(ValueError, match=field):
            CampaignSpec(**{field: value})
        payload = dict(CampaignSpec().to_dict(), **{field: value})
        with pytest.raises(ValueError, match=field):
            CampaignSpec.from_dict(payload)

    def test_unknown_dict_field_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign fields"):
            CampaignSpec.from_dict({"difficulty": ["easy"]})

    @pytest.mark.parametrize("kind", ["waypoint", "recovery"])
    def test_describe_lists_every_factor_of_size(self, kind):
        spec = CampaignSpec(seeds=(0, 1), mass_scales=(1.0, 1.5),
                            episode_kind=kind)
        total, factors = spec.describe().split(" = ")
        assert int(re.findall(r"\d+", total)[-1]) == spec.size
        assert "2 mass scales" in factors
        assert math.prod(int(n) for n in re.findall(r"\d+", factors)) \
            == spec.size

    def test_cell_key_excludes_seed(self):
        a = EpisodeSpec(difficulty=Difficulty.EASY, seed=0)
        b = EpisodeSpec(difficulty=Difficulty.EASY, seed=7)
        c = EpisodeSpec(difficulty=Difficulty.EASY, seed=0, frequency_mhz=250.0)
        assert a.cell_key() == b.cell_key()
        assert a.cell_key() != c.cell_key()


class TestEpisodeFactory:
    def test_memoizes_problems_and_socs(self):
        factory = EpisodeFactory()
        first = factory.build(EpisodeSpec(Difficulty.EASY, 0), episode_id=0)
        second = factory.build(EpisodeSpec(Difficulty.MEDIUM, 1), episode_id=1)
        assert first.problem is second.problem
        assert first.cache is second.cache
        assert first.runner.soc is second.runner.soc
        # A different control rate linearizes a different problem.
        third = factory.build(EpisodeSpec(Difficulty.EASY, 0,
                                          control_rate_hz=50.0), episode_id=2)
        assert third.problem is not first.problem

    def test_one_compile_per_build_across_clocks(self, monkeypatch):
        """The cycle report does not depend on the clock: a factory asked
        for one build at two frequencies compiles (and traces) it once, and
        each clock's latency is exactly what a model compiled at that clock
        reports."""
        calls = []
        compile_problem = SoCModel.compile_problem

        def counting(soc, problem, program=None):
            calls.append(program)
            return compile_problem(soc, problem, program=program)

        monkeypatch.setattr(SoCModel, "compile_problem", counting)
        factory = EpisodeFactory()
        slow = factory.soc_for("vector", 100.0, "CrazyFlie", 100.0)
        fast = factory.soc_for("vector", 250.0, "CrazyFlie", 100.0)
        assert len(calls) == 1 and calls[0] is not None
        assert factory.soc_for("vector", 250.0, "CrazyFlie", 100.0) is fast
        assert (slow.frequency_mhz, fast.frequency_mhz) == (100.0, 250.0)
        assert slow.cycles_per_iteration == fast.cycles_per_iteration
        assert slow.solve_latency(7) / fast.solve_latency(7) == \
            pytest.approx(2.5, rel=1e-15)
        # The scalar build traces no second program.
        factory.soc_for("scalar", 100.0, "CrazyFlie", 100.0)
        assert len(calls) == 2 and calls[1] is calls[0]
        problem = factory.problem_for("CrazyFlie", 100.0)
        for soc in (slow, fast):
            reference = SoCModel.from_implementation("vector",
                                                     soc.frequency_mhz)
            compile_problem(reference, problem)
            assert soc.solve_latency(7) == reference.solve_latency(7)

    def test_ideal_episodes_have_no_soc(self):
        factory = EpisodeFactory()
        episode = factory.build(EpisodeSpec(Difficulty.EASY, 0,
                                            implementation="ideal"),
                                episode_id=0)
        assert episode.runner.soc is None

    def test_compatibility_groups_follow_problem_and_settings(self):
        factory = EpisodeFactory()
        base = factory.build(EpisodeSpec(Difficulty.EASY, 0), episode_id=0)
        other_freq = factory.build(EpisodeSpec(Difficulty.HARD, 1,
                                               frequency_mhz=250.0),
                                   episode_id=1)
        other_rate = factory.build(EpisodeSpec(Difficulty.EASY, 0,
                                               control_rate_hz=50.0),
                                   episode_id=2)
        other_iters = factory.build(EpisodeSpec(Difficulty.EASY, 0,
                                                max_admm_iterations=5),
                                    episode_id=3)
        other_variant = factory.build(EpisodeSpec(Difficulty.EASY, 0,
                                                  variant="Heron"),
                                      episode_id=4)
        # Frequency only scales latency outside the solver: same group.
        assert other_freq.group_key == base.group_key
        # Control rate, iteration cap, and variant change solver identity.
        assert other_rate.group_key != base.group_key
        assert other_iters.group_key != base.group_key
        assert other_variant.group_key != base.group_key
        assert base.group_key == compatibility_key(base.problem, base.settings)
