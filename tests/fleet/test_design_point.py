"""The design_point workload: dispatch, equality, and durability.

Covers the three-workload engine contract end to end:

* dispatch on ``episode_kind`` and on the result type;
* ``CampaignSpec(episode_kind="design_point")`` validation and
  deterministic grid expansion with invalid-combination skipping;
* the acceptance bar — every design-sweep figure driver reproduces the
  rows pinned in ``fixtures/figure_rows.json`` exactly;
* program registration, and model == trace on the catalog defaults;
* journal (de)serialization round trips and byte-identical
  checkpoint/resume, including SIGKILL-mid-run and chunk
  bisection/quarantine, reusing the chaos harness idioms from
  ``test_chaos.py``;
* design points evaluated beside the scheduler: campaign summaries count
  them, and HIL and design specs share one episode list.
"""

import functools
import json
import os
import subprocess
import sys
import time

import pytest

from repro.codegen import CodegenFlow
from repro.drone import Difficulty, all_variants
from repro.experiments.gemmini_experiments import (
    fig6_static_mapping,
    fig7_scratchpad_resident,
    fig9_sync_granularity,
    fig12_engine_ablation,
)
from repro.experiments.kernel_experiments import (
    fig4_lmul_sweep,
    fig13_kernel_comparison,
)
from repro.experiments.pareto_experiments import dse_campaign, fig10_pareto
from repro.fleet import (
    CampaignSpec,
    EpisodeSpec,
    FleetAggregator,
    RetryPolicy,
    run_campaign,
)
from repro.fleet import design_point, supervisor
from repro.fleet.design_point import (
    DesignPointResult,
    DesignPointSpec,
    default_level_for,
    evaluate_design_point,
    register_program_variant,
)
from repro.fleet.durable import journal_path, result_from_dict, result_to_dict
from repro.hil.loop import build_variant_problem
from repro.tinympc import build_iteration_program

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", ".."))

# Every catalog point at every level it supports (invalid combinations are
# skipped during expansion) = 48 trace-fidelity episodes.
ALL_LEVELS = ("library", "eigen", "unrolled", "fused", "cisc", "static",
              "scratchpad", "elementwise", "optimized")
GRID = CampaignSpec(name="dse-grid", episode_kind="design_point",
                    codegen_levels=ALL_LEVELS)

# The pinned calls: every driver that evaluates design points, with
# fig10 at both fidelities and one mixed-axis DSE campaign.
GOLDEN_ROWS = os.path.join(os.path.dirname(__file__), "fixtures",
                           "figure_rows.json")
GOLDEN_CALLS = {
    "fig4": fig4_lmul_sweep,
    "fig6": fig6_static_mapping,
    "fig7": fig7_scratchpad_resident,
    "fig9": fig9_sync_granularity,
    "fig10-trace": fig10_pareto,
    "fig10-model": functools.partial(fig10_pareto, fidelity="model"),
    "fig12": fig12_engine_ablation,
    "fig13": fig13_kernel_comparison,
    "dse": functools.partial(dse_campaign, fidelities=("model", "trace"),
                             lmuls=(1, 4), sync_granularities=(None, 8)),
}


class TestDirectDispatch:
    def test_unknown_kind_rejected_naming_all_three(self):
        with pytest.raises(ValueError, match="unknown episode_kind") as error:
            CampaignSpec(episode_kind="nope")
        for kind in ("waypoint", "recovery", "design_point"):
            assert kind in str(error.value)

    def test_unknown_result_types_rejected(self):
        with pytest.raises(TypeError, match="unknown episode result type"):
            result_to_dict(object())
        with pytest.raises(TypeError, match="unknown episode result type"):
            FleetAggregator().add(object(), key=())
        with pytest.raises(ValueError, match="unknown episode result kind"):
            result_from_dict({"kind": "nope"})


class TestSpecValidation:
    def test_unknown_axis_values_rejected(self):
        bad = [
            dict(programs=("unregistered",)),
            dict(design_points=("not-a-point",)),
            dict(codegen_levels=("warp-speed",)),
            dict(fidelities=("vibes",)),
            dict(lmuls=(0,)),
            dict(sync_granularities=(0,)),
            dict(solve_iterations=0),
        ]
        for overrides in bad:
            # Validation is eager: a bad axis never survives construction.
            with pytest.raises(ValueError):
                CampaignSpec(episode_kind="design_point", **overrides)

    def test_empty_expansion_rejected(self):
        # 'fused' is a vector-only level; on a scalar-only point list the
        # whole grid is skipped and the campaign is vacuous.
        with pytest.raises(ValueError):
            CampaignSpec(episode_kind="design_point",
                         design_points=("rocket",),
                         codegen_levels=("fused",))

    def test_expansion_is_deterministic_and_skips_invalid(self):
        assert GRID.expand() == GRID.expand()
        assert GRID.size == len(GRID.expand()) == 48
        mixed = CampaignSpec(
            episode_kind="design_point",
            design_points=("rocket", "saturn-v256-d128-rocket",
                           "gemmini-4x4-os-64k-rocket"),
            codegen_levels=("auto",), lmuls=(1, 4),
            sync_granularities=(None, 8))
        specs = mixed.expand()
        # lmul != 1 only applies to the vector point; sync granularity only
        # to the systolic point; the (4, 8) cross term applies to neither.
        assert len(specs) == 1 + 2 + 2
        for spec in specs:
            # 'auto' stays symbolic in the spec (the cell key users see)
            # and resolves deterministically at evaluation time.
            assert spec.resolved_level() != "auto"
        assert mixed.size == len(specs)

    def test_spec_round_trips_design_axes(self):
        spec = CampaignSpec(episode_kind="design_point",
                            design_points=("rocket",),
                            fidelities=("model", "trace"),
                            sync_granularities=(None, 4), lmuls=(1, 2))
        payload = json.loads(json.dumps(spec.to_dict()))
        restored = CampaignSpec.from_dict(payload)
        assert restored == spec
        # HIL campaigns keep their serialized form free of DSE fields, so
        # existing spec digests and checkpoints stay valid.
        hil = CampaignSpec(difficulties=("easy",), seeds=(0,))
        assert "design_points" not in hil.to_dict()


class TestGoldenRows:
    """Every design-sweep figure driver reproduces its pinned rows exactly.

    ``fixtures/figure_rows.json`` was recorded from the serial compile
    loops the fig6/7/9/10/12/13 drivers used to carry next to the fleet
    path (fig4's single lowering loop, fig10 at model fidelity and the
    ``dse_campaign`` call had one path each), so the fleet path still
    answers to those loops' rows.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_ROWS) as handle:
            payload = json.load(handle)
        assert sorted(payload) == sorted(GOLDEN_CALLS)
        return payload

    @pytest.mark.parametrize("name", sorted(GOLDEN_CALLS))
    def test_rows_match_golden(self, golden, name):
        rows = json.loads(json.dumps(GOLDEN_CALLS[name]()))
        assert rows == golden[name]


class TestEvaluation:
    def test_reregistered_program_replaces_resolved_one(self):
        params = all_variants()["CrazyFlie"]

        def builder(horizon):
            return lambda: build_iteration_program(
                build_variant_problem(params, horizon=horizon))

        spec = DesignPointSpec(design_point="rocket", program="reregistered")
        register_program_variant("reregistered", builder(8))
        short = evaluate_design_point(spec)
        register_program_variant("reregistered", builder(20))
        long = evaluate_design_point(spec)
        expected = CodegenFlow().compile(builder(20)(), "rocket", "eigen")
        assert long.total_cycles == expected.cycles > short.total_cycles

    def test_model_fidelity_matches_trace_on_catalog_defaults(self):
        from repro.arch import list_design_points
        for point in list_design_points():
            spec = DesignPointSpec(design_point=point.name,
                                   codegen_level=default_level_for(point))
            trace = evaluate_design_point(spec)
            model = evaluate_design_point(
                DesignPointSpec(design_point=point.name,
                                codegen_level=spec.codegen_level,
                                fidelity="model"))
            assert model.total_cycles == trace.total_cycles, point.name
            assert model.instruction_count == trace.instruction_count


class TestJournalRoundTrip:
    def test_result_round_trips_through_json(self):
        spec = DesignPointSpec(design_point="gemmini-4x4-os-64k-rocket",
                               codegen_level="optimized", sync_granularity=4)
        result = evaluate_design_point(spec)
        payload = result_to_dict(result)
        assert payload["kind"] == "design_point"
        restored = result_from_dict(json.loads(json.dumps(payload)))
        assert isinstance(restored, DesignPointResult)
        assert restored == result

    def test_journaled_design_rows_match_inline(self, tmp_path):
        spec = CampaignSpec(name="agg", episode_kind="design_point",
                            design_points=("rocket", "shuttle"),
                            fidelities=("model", "trace"))
        inline = run_campaign(spec)
        journaled = run_campaign(spec, lease_size=1,
                                 checkpoint_dir=str(tmp_path))
        assert journaled.report.fresh_chunks == 4
        assert _rows_bytes(journaled) == _rows_bytes(inline)
        assert _results_payload(journaled) == _results_payload(inline)
        assert journaled.aggregate.design_episodes == 4
        assert [row["episodes"] for row in journaled.rows()] == [1] * 4


def _rows_bytes(outcome):
    return json.dumps(outcome.rows(), sort_keys=True)


def _results_payload(outcome):
    return [result_to_dict(result) for result in outcome.results]


class TestDurableDesignCampaigns:
    """Checkpoint/resume and fault tolerance for solver-less episodes."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        run_dir = str(tmp_path_factory.mktemp("dse-reference"))
        outcome = run_campaign(GRID, workers=2, checkpoint_dir=run_dir,
                               lease_size=4)
        assert len(outcome.results) == 48 and not outcome.failures
        return outcome

    def test_completed_resume_is_pure_replay(self, reference):
        resumed = run_campaign(GRID, workers=2,
                               checkpoint_dir=reference.run_dir,
                               lease_size=4)
        assert resumed.report.spawned_workers == 0
        assert resumed.report.replayed_chunks > 0
        assert _rows_bytes(resumed) == _rows_bytes(reference)
        assert _results_payload(resumed) == _results_payload(reference)

    def test_parent_sigkill_then_resume_byte_identical(self, reference,
                                                       tmp_path):
        """Kill the whole campaign process mid-run, resume, and get
        byte-identical rows and journaled results (same harness as the HIL
        chaos test — the invariant is kind-agnostic)."""
        checkpoint = str(tmp_path / "ckpt")
        driver = tmp_path / "driver.py"
        driver.write_text(
            "import json, sys\n"
            "sys.path.insert(0, {!r})\n"
            "from repro.fleet import CampaignSpec, run_campaign\n"
            "spec = CampaignSpec.from_dict(json.loads(sys.argv[1]))\n"
            "run_campaign(spec, workers=2, checkpoint_dir=sys.argv[2],\n"
            "             lease_size=4)\n"
            "print('COMPLETED')\n".format(os.path.join(REPO_ROOT, "src")))
        process = subprocess.Popen(
            [sys.executable, str(driver), json.dumps(GRID.to_dict()),
             checkpoint],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        journal = None
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and process.poll() is None:
            if journal is None:
                candidates = ([os.path.join(checkpoint, d)
                               for d in os.listdir(checkpoint)]
                              if os.path.isdir(checkpoint) else [])
                runs = [d for d in candidates
                        if os.path.exists(journal_path(d))]
                if runs:
                    journal = journal_path(runs[0])
            elif open(journal, "rb").read().count(b'"t":"commit"') >= 2:
                process.kill()
                break
            time.sleep(0.01)
        process.wait(timeout=120)
        stdout = process.stdout.read()
        process.stdout.close()
        process.stderr.close()
        resumed = run_campaign(GRID, workers=2, checkpoint_dir=checkpoint,
                               lease_size=4)
        if "COMPLETED" not in stdout:
            # The interesting case: the kill landed mid-run and the resume
            # had fresh chunks to execute.  On a very fast machine the
            # driver may finish first, degrading to the replay case above.
            assert resumed.report.fresh_chunks > 0
        assert _rows_bytes(resumed) == _rows_bytes(reference)
        assert _results_payload(resumed) == _results_payload(reference)

    def test_poisoned_episode_bisected_and_quarantined(self, reference,
                                                       tmp_path, monkeypatch):
        """A deterministically-raising design episode is isolated by chunk
        bisection; every sibling's row is bit-identical to the clean run
        (the solver-less path has no batching round-off to forgive)."""
        monkeypatch.setenv("REPRO_CHAOS",
                           json.dumps({"episode": 5, "mode": "raise"}))
        retry = RetryPolicy(max_attempts=2, backoff_base=0.02)
        poisoned = run_campaign(GRID, workers=2,
                                checkpoint_dir=str(tmp_path / "poisoned"),
                                lease_size=4, retry_policy=retry)
        assert [failure.index for failure in poisoned.failures] == [5]
        assert poisoned.failures[0].error_type == "ChaosError"
        assert poisoned.report.quarantined == 1
        assert poisoned.results[5] is None
        for index, (clean, survivor) in enumerate(
                zip(reference.results, poisoned.results)):
            if index == 5:
                continue
            assert survivor == clean, index


class TestDesignPointsBesideTheScheduler:
    """The chunk runner evaluates design points itself; HIL episodes fly
    through the scheduler.  Neither path may show in the other's output."""

    HIL = [EpisodeSpec(Difficulty.EASY, 0), EpisodeSpec(Difficulty.EASY, 1)]
    DESIGNS = [DesignPointSpec("rocket", fidelity="model"),
               DesignPointSpec("shuttle", fidelity="model")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overall_counts_design_episodes(self, workers):
        spec = CampaignSpec(name="count", episode_kind="design_point",
                            design_points=("rocket", "shuttle"),
                            fidelities=("model",))
        outcome = run_campaign(spec, workers=workers)
        overall = outcome.overall()
        assert overall["design_episodes"] == 2
        assert overall["episodes"] == overall["design_episodes"]
        assert outcome.stats.groups == 0     # no scheduler group was built

    @pytest.fixture(scope="class")
    def single_kind(self):
        hil = _results_payload(run_campaign(self.HIL))
        designs = _results_payload(run_campaign(self.DESIGNS))
        return json.dumps([payload for pair in zip(hil, designs)
                           for payload in pair])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_list_matches_single_kind_runs(self, single_kind, workers):
        mixed = [self.HIL[0], self.DESIGNS[0], self.HIL[1], self.DESIGNS[1]]
        outcome = run_campaign(mixed, workers=workers)
        assert json.dumps(_results_payload(outcome)) == single_kind
        assert outcome.overall()["episodes"] == 4

    def test_invalid_level_quarantined_at_run_stage(self):
        outcome = run_campaign(
            [DesignPointSpec("rocket", codegen_level="fused")], workers=2,
            retry_policy=RetryPolicy(max_attempts=1))
        [failure] = outcome.failures
        assert failure.stage == "run"
        assert failure.error_type == "ValueError"
        assert outcome.results == [None]

    def test_evaluation_resolves_the_module_attribute(self, monkeypatch):
        """A tracer patched onto the module attribute sees every design
        point, and no HIL episode."""
        seen = []

        def traced(spec):
            seen.append(spec)
            return evaluate_design_point(spec)

        monkeypatch.setattr(design_point, "evaluate_design_point", traced)
        run_campaign([self.DESIGNS[0], self.HIL[0], self.DESIGNS[1]])
        assert seen == self.DESIGNS

    def test_chaos_hook_fires_once_per_episode(self, monkeypatch):
        built = []
        monkeypatch.setattr(supervisor, "maybe_inject", built.append)
        run_campaign([self.HIL[0], self.DESIGNS[0], self.HIL[1],
                      self.DESIGNS[1]])
        assert built == [0, 1, 2, 3]

    def test_scheduler_stats_count_only_hil_episodes(self):
        outcome = run_campaign([self.DESIGNS[0], self.HIL[0],
                                self.DESIGNS[1]])
        assert outcome.stats.episodes == 1
        assert outcome.overall()["episodes"] == 3
        assert outcome.overall()["design_episodes"] == 2


if __name__ == "__main__":
    # Re-record the pinned rows (one row per line) after an intentional
    # change to the cycle accounting:
    #     PYTHONPATH=src python tests/fleet/test_design_point.py
    with open(GOLDEN_ROWS, "w") as handle:
        handle.write("{\n" + ",\n".join(
            "{}: [\n{}\n]".format(json.dumps(name), ",\n".join(
                json.dumps(row) for row in call()))
            for name, call in GOLDEN_CALLS.items()) + "\n}\n")
