import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from demoaug import ensemble, evaluation, sim, tasks
from demoaug.dataset import canonical_json
from demoaug.ensemble import Action, EnsembleConfig, EnsembleMode, EnsembleState
from demoaug.evaluation import (
    SeedRun, closed_loop_eval, default_matrix, format_report, report_to_dict,
    run_closed_loop_episode, wilson_interval,
)
from demoaug.policy import DisturbanceConfig, ScriptedPolicy
from demoaug.tasks import TaskKind, Workspace, anchors_for_scene, recorded_scene, sample_scene
from demoaug.trajectory import ValidationError, augment_segmentwise, demo_to_document, parse_demo

Z95 = 1.959963984540054  # two-sided 95% normal quantile, wilson_interval's default


class TestWilson:
    def test_published_reference_value(self):
        # 8 successes in 10 trials: Wilson 95% interval (0.4902, 0.9433)
        lo, hi = wilson_interval(8, 10)
        assert lo == pytest.approx(0.4902, abs=5e-4)
        assert hi == pytest.approx(0.9433, abs=5e-4)

    def test_degenerate_cases(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0 and 0 < lo < 1
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and 0 < hi < 1

    def test_extreme_endpoints_exact_for_every_n(self):
        bad = [n for n in range(1, 10_001)
               if wilson_interval(0, n)[0] != 0.0 or wilson_interval(n, n)[1] != 1.0]
        assert bad == []

    @pytest.mark.parametrize("n", [1, 3, 6, 7, 10, 12, 100, 400, 10_000])
    def test_other_endpoint_matches_closed_form(self, n):
        z2 = Z95 * Z95
        assert wilson_interval(0, n)[1] == pytest.approx(z2 / (n + z2))
        assert wilson_interval(n, n)[0] == pytest.approx(n / (n + z2))

    @pytest.mark.parametrize("successes, n", [(11, 10), (3, -2), (5, 0), (-1, 10)])
    def test_out_of_range_counts_rejected(self, successes, n):
        with pytest.raises(ValueError, match=f"successes={successes}, n={n}"):
            wilson_interval(successes, n)

    @pytest.mark.parametrize("successes, n, name",
                             [(0.5, 1, "successes"), (True, 2, "successes"), (1, 2.5, "n")])
    def test_bool_or_non_integral_count_rejected(self, successes, n, name):
        with pytest.raises(ValidationError, match=f"wilson_interval {name} must be an integer"):
            wilson_interval(successes, n)


class TestMatrix:
    def test_default_matrix_shape(self):
        cells = default_matrix()
        assert len(cells) == 8
        modes = [c.mode for c in cells]
        assert modes.count(EnsembleMode.BASELINE) == 1
        assert modes.count(EnsembleMode.RESET_ONLY) == 1
        assert modes.count(EnsembleMode.DYNAMIC_K) == 3
        assert modes.count(EnsembleMode.COMBINED) == 3
        assert sorted(c.beta for c in cells if c.mode is EnsembleMode.COMBINED) == \
               [0.25, 0.5, 1.0]
        assert cells == [EnsembleConfig(mode=EnsembleMode.BASELINE),
                         EnsembleConfig(mode=EnsembleMode.RESET_ONLY)] + [
            EnsembleConfig(mode=m, beta=b) for m in (EnsembleMode.DYNAMIC_K,
                                                     EnsembleMode.COMBINED)
            for b in (0.25, 0.5, 1.0)]

    def test_k_cutoff_swept_only_where_ensembling_can_suspend(self):
        base = EnsembleConfig(k_const=0.02, k_cutoff=0.03, chunk_len=10)
        cells = default_matrix(betas=(0.5, 1.0), k_cutoffs=(0.01, 0.5), base=base)
        axes = [(c.mode.value, c.beta, c.k_cutoff) for c in cells]
        assert axes == [("baseline", 1.0, 0.03),
                        ("reset_only", 1.0, 0.01), ("reset_only", 1.0, 0.5),
                        ("dynamic_k", 0.5, 0.03), ("dynamic_k", 1.0, 0.03),
                        ("combined", 0.5, 0.01), ("combined", 0.5, 0.5),
                        ("combined", 1.0, 0.01), ("combined", 1.0, 0.5)]
        assert all(c == replace(base, mode=c.mode, beta=c.beta, k_cutoff=c.k_cutoff)
                   for c in cells)


class TestClosedLoop:
    def test_zero_episodes_empty_report(self, pick_place_demo):
        report = closed_loop_eval(TaskKind.PICK_PLACE, pick_place_demo,
                                  default_matrix(), n_episodes=0)
        assert report.n_episodes == 0
        assert all(c.episodes == 0 for c in report.cells)
        assert "pick_place" in format_report(report)

    def test_zero_disturbance_ceiling(self, pick_place_demo):
        # undisturbed scripted predictions agree exactly, so every mode
        # matches the plain replay behavior
        matrix = [EnsembleConfig(mode=m, beta=1.0) for m in EnsembleMode]
        report = closed_loop_eval(TaskKind.PICK_PLACE, pick_place_demo, matrix,
                                  n_episodes=6, disturbances=DisturbanceConfig())
        baseline = report.cells[0]   # EnsembleMode lists BASELINE first
        for cell in report.cells:
            assert cell.rate == 1.0
            assert cell.rate >= baseline.rate

    def test_report_dict_round_trip(self, push_demo):
        matrix = [EnsembleConfig(mode=EnsembleMode.BASELINE)]
        report = closed_loop_eval(TaskKind.PUSH, push_demo, matrix, n_episodes=2)
        doc = report_to_dict(report)
        assert doc["task"] == "push"
        assert len(doc["cells"]) == 1
        assert doc["cells"][0]["episodes"] == 2
        assert len(doc["cells"][0]["ci95"]) == 2

    @pytest.mark.parametrize("n_episodes", [-1, True, 2.5])
    def test_episode_count_must_be_a_count(self, push_demo, n_episodes):
        with pytest.raises(ValidationError, match="n_episodes must be an integer from 0"):
            closed_loop_eval("push", push_demo, [EnsembleConfig()], n_episodes, seeds=[1, 2, 3])

    def test_fewer_seeds_than_episodes_rejected(self, push_demo):
        with pytest.raises(ValueError, match="^2 seeds for 3 episodes$"):
            closed_loop_eval("push", push_demo, [EnsembleConfig()], 3, seeds=[1, 2])

    @pytest.mark.parametrize("seed", [1.5, True, "7", -1, 10 ** 23])
    def test_seed_must_be_a_seed(self, push_demo, monkeypatch, seed):
        def forbidden(*args):
            pytest.fail("a seed was prepared")

        monkeypatch.setattr(evaluation, "prepare_episode", forbidden)
        with pytest.raises(ValidationError, match="^seed must be an integer from 0 to "):
            closed_loop_eval("push", push_demo, [EnsembleConfig()], 2, seeds=[3, seed])

    def test_numpy_seed_recorded_as_an_int(self, push_demo):
        report = closed_loop_eval("push", push_demo, [EnsembleConfig()], 1, seeds=[np.uint32(3)])
        assert report.seeds == (3,) and type(report.seeds[0]) is int

    @pytest.mark.parametrize("numpy_run, python_run", [
        ((EnsembleConfig(), DisturbanceConfig(latency=np.int64(3))),
         (EnsembleConfig(), DisturbanceConfig(latency=3))),
        ((EnsembleConfig(chunk_len=np.int64(10)), DisturbanceConfig()),
         (EnsembleConfig(chunk_len=10), DisturbanceConfig())),
        ((EnsembleConfig(beta=np.float32(0.5)), DisturbanceConfig(latency=3, bimodal_period=2)),
         (EnsembleConfig(beta=0.5), DisturbanceConfig(latency=3, bimodal_period=2))),
    ], ids=["latency", "chunk_len", "beta"])
    def test_numpy_setting_runs_as_its_python_twin(self, push_demo, numpy_run, python_run):
        def run(cfg, disturbances):
            seen = []
            report = closed_loop_eval("push", push_demo, [cfg], 2, disturbances=disturbances,
                                      diagnostics_sink=lambda *args: seen.append(repr(args)))
            return canonical_json(report_to_dict(report)), seen

        assert run(*numpy_run) == run(*python_run)

    def test_demo_of_another_task_rejected(self, pick_place_demo):
        with pytest.raises(ValidationError, match="^demo task is 'pick_place', not 'push'$"):
            closed_loop_eval("push", pick_place_demo, [EnsembleConfig()], 1)

    def test_paired_seeds_across_cells(self, push_demo):
        matrix = [EnsembleConfig(mode=EnsembleMode.BASELINE),
                  EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0)]
        report = closed_loop_eval(TaskKind.PUSH, push_demo, matrix, n_episodes=3,
                                  seeds=[11, 22, 33])
        assert report.seeds == (11, 22, 33)

    def test_each_seed_prepared_once_for_every_cell(self, push_demo, monkeypatch):
        calls = {"sample_scene": [], "augment_segmentwise": 0, "episodes": 0}
        real_sample, real_augment, real_episode = (tasks.sample_scene,
                                                   evaluation.augment_segmentwise,
                                                   evaluation.run_closed_loop_episode)

        def counting_sample(task, ws, seed):
            calls["sample_scene"].append(seed)
            return real_sample(task, ws, seed)

        def counting_augment(*args):
            calls["augment_segmentwise"] += 1
            return real_augment(*args)

        def counting_episode(*args):
            calls["episodes"] += 1
            return real_episode(*args)

        monkeypatch.setattr(tasks, "sample_scene", counting_sample)
        monkeypatch.setattr(evaluation, "augment_segmentwise", counting_augment)
        monkeypatch.setattr(evaluation, "run_closed_loop_episode", counting_episode)
        matrix = [EnsembleConfig(mode=EnsembleMode.BASELINE),
                  EnsembleConfig(mode=EnsembleMode.COMBINED, beta=1.0)]
        seen = []
        closed_loop_eval(TaskKind.PUSH, push_demo, matrix, n_episodes=3, seeds=[11, 22, 33],
                         diagnostics_sink=lambda cfg, i, seed, stats: seen.append(
                             (cfg.mode, i, seed)))
        assert calls == {"sample_scene": [11, 22, 33], "augment_segmentwise": 3, "episodes": 6}
        # cells in the outer loop, seeds in the inner one
        assert seen == [(cfg.mode, i, seed) for cfg in matrix
                        for i, seed in enumerate((11, 22, 33))]

    def test_gripper_clip_is_the_demo_g_max(self, push_demo, monkeypatch):
        # a demo that declares widths up to 0.1 commands 0.1 in closed loop, as in replay
        doc = demo_to_document(push_demo)
        doc["g_max"] = 0.1
        for w in doc["waypoints"]:
            w["g"] = 0.1 if w["g"] == 0.08 else w["g"]
        demo = parse_demo(doc)
        widths, real_step = [], sim.step

        def recording_step(state, action, cfg):
            widths.append(action.gripper)
            return real_step(state, action, cfg)

        monkeypatch.setattr(sim, "step", recording_step)
        SeedRun(TaskKind.PUSH, demo, 5, [EnsembleConfig()]).result(0)
        assert widths[:5] == [0.1] * 5
        assert max(widths) == 0.1


def episodes_alone(task, demo, matrix, seeds, disturbances):
    """(success, repr of the diagnostics) of each (cell, seed), cell-major,
    every episode run by itself."""
    out = []
    for cfg in matrix:
        for seed in seeds:
            ok, stats = SeedRun(task, demo, seed, [cfg], disturbances=disturbances).result(0)
            out.append((ok, repr(stats)))
    return out


def episodes_together(task, demo, matrix, seeds, disturbances, monkeypatch):
    """The same, as ``closed_loop_eval`` hands the episodes over."""
    out, real = [], evaluation.run_closed_loop_episode

    def recording(*args):
        ok, stats = real(*args)
        out.append((ok, repr(stats)))
        return ok, stats

    with monkeypatch.context() as m:
        m.setattr(evaluation, "run_closed_loop_episode", recording)
        report = closed_loop_eval(task, demo, matrix, len(seeds), seeds,
                                  disturbances=disturbances)
    n = len(seeds)
    assert [c.successes for c in report.cells] == \
           [sum(ok for ok, _ in out[i * n:(i + 1) * n]) for i in range(len(matrix))]
    return out


def cells(*modes, **fields):
    return [EnsembleConfig(mode=mode, **fields) for mode in modes]


LATENCY_BIMODAL = DisturbanceConfig(latency=3, bimodal_period=2)
B, R, D, C = (EnsembleMode.BASELINE, EnsembleMode.RESET_ONLY, EnsembleMode.DYNAMIC_K,
              EnsembleMode.COMBINED)


class TestLockstep:
    """A seed's cells stepped together give what each gives alone."""

    @pytest.mark.parametrize("task, matrix, disturbances, seeds", [
        ("push", default_matrix(), DisturbanceConfig(), range(6)),
        ("stack", cells(B, C), LATENCY_BIMODAL, range(6)),
        # noise: every split forks the predictor's Generator
        ("pick_place", default_matrix(), DisturbanceConfig(noise=0.01), range(4)),
        ("push", [c for n in (10, 20) for c in cells(C, B, D, chunk_len=n)][::-1],
         DisturbanceConfig(latency=2), range(4)),
    ], ids=["push_clean", "stack_disturbed", "pick_place_noise", "mixed_chunk_len"])
    def test_every_episode_equals_its_cell_alone(self, request, monkeypatch, task, matrix,
                                                 disturbances, seeds):
        demo = request.getfixturevalue(f"{task}_demo")
        seeds = [sim.scene_seed_for(0, i) for i in seeds]
        alone = episodes_alone(task, demo, matrix, seeds, disturbances)
        assert episodes_together(task, demo, matrix, seeds, disturbances, monkeypatch) == alone

    def test_clean_push_predicts_and_steps_once_per_step(self, push_demo, monkeypatch):
        counts = {"policies": 0, "predict": 0, "step": 0}
        real_init, real_predict, real_step = (ScriptedPolicy.__init__, ScriptedPolicy.predict,
                                              sim.step)

        def counting(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(ScriptedPolicy, "__init__", counting("policies", real_init))
        monkeypatch.setattr(ScriptedPolicy, "predict", counting("predict", real_predict))
        monkeypatch.setattr(sim, "step", counting("step", real_step))
        lengths = []
        closed_loop_eval("push", push_demo, cells(D, C), 5,
                         diagnostics_sink=lambda *episode: lengths.append(len(episode[3])))
        assert lengths[:5] == lengths[5:]
        assert counts == {"policies": 5, "predict": sum(lengths[:5]), "step": sum(lengths[:5])}

    @pytest.mark.parametrize("task", ["push", "pick_place", "stack"])
    def test_idle_query_equals_a_dropped_prediction(self, request, monkeypatch, task):
        # a group whose members are all suspended only observes; predicting
        # and dropping the chunk instead must leave every episode as it is
        demo = request.getfixturevalue(f"{task}_demo")
        disturbances = DisturbanceConfig(latency=3, bimodal_period=2, noise=0.01)
        matrix = default_matrix(betas=(1.0,))
        seeds = [sim.scene_seed_for(0, i) for i in range(3)]
        idled, real_idle = [], ScriptedPolicy.idle

        def counting_idle(self, ee_pos):
            idled.append(ee_pos)
            real_idle(self, ee_pos)

        monkeypatch.setattr(ScriptedPolicy, "idle", counting_idle)
        with_idle = episodes_together(task, demo, matrix, seeds, disturbances, monkeypatch)
        assert len(idled) > 10
        monkeypatch.setattr(ScriptedPolicy, "idle", lambda self, ee_pos: self.predict(ee_pos, 0))
        assert episodes_together(task, demo, matrix, seeds, disturbances, monkeypatch) == with_idle

    def test_cells_handed_over_in_any_order(self, stack_demo):
        matrix = cells(B, C, B, R)   # the baseline cell twice, at 0 and 2
        run = SeedRun("stack", stack_demo, 7, matrix, disturbances=LATENCY_BIMODAL)
        order = (3, 1, 0, 2)
        got = [run_closed_loop_episode(run, i) for i in order]
        alone = [SeedRun("stack", stack_demo, 7, [matrix[i]], disturbances=LATENCY_BIMODAL)
                 .result(0) for i in order]
        assert repr(got) == repr(alone)
        for cell in range(len(matrix)):
            with pytest.raises(ValueError, match=f"^cell {cell} is not left to hand over$"):
                run.result(cell)   # every cell has been handed over

    def test_hand_over_steps_only_the_group_holding_the_cell(self, stack_demo, monkeypatch):
        # cell 1's part is parked, not run, until it is asked for
        steps, real_step = [0], sim.step

        def counting_step(*args):
            steps[0] += 1
            return real_step(*args)

        monkeypatch.setattr(sim, "step", counting_step)
        run = SeedRun("stack", stack_demo, 7, cells(B, C), disturbances=LATENCY_BIMODAL)
        _, first = run.result(0)
        assert steps[0] == len(first)
        _, second = run.result(1)
        assert 0 < steps[0] - len(first) < len(second)

    def test_actions_compared_by_their_bits(self):
        a = Action((0.0, 0.1, 0.2), 0.05)
        assert evaluation._same_bits(a, a)
        assert evaluation._same_bits(a, Action((0.0, 0.1, 0.2), 0.05))
        assert not evaluation._same_bits(a, Action((-0.0, 0.1, 0.2), 0.05))
        assert not evaluation._same_bits(a, Action((0.0, 0.1, 0.2), 0.06))


def hold_chain_at_zero(monkeypatch):
    """Every ensembler gathers its candidates: ``submit`` leaves ``chain`` at 0."""
    real_submit = EnsembleState.submit

    def unchained(self, chunk):
        try:
            return real_submit(self, chunk)
        finally:
            self.chain = 0

    monkeypatch.setattr(EnsembleState, "submit", unchained)


class TestChain:
    """A step whose chunks form one shifted chain reads its candidate in O(1)."""

    @pytest.mark.parametrize("disturbances", [
        DisturbanceConfig(), DisturbanceConfig(noise=0.01), LATENCY_BIMODAL,
    ], ids=["clean", "noise", "latency_bimodal"])
    @pytest.mark.parametrize("task", ["push", "pick_place", "stack"])
    def test_chain_held_at_zero_changes_nothing(self, request, monkeypatch, task, disturbances):
        demo = request.getfixturevalue(f"{task}_demo")
        matrix = default_matrix(betas=(1.0,))
        seeds = [sim.scene_seed_for(0, i) for i in range(2)]
        chained = episodes_together(task, demo, matrix, seeds, disturbances, monkeypatch)
        with monkeypatch.context() as m:
            hold_chain_at_zero(m)
            assert episodes_together(task, demo, matrix, seeds, disturbances, m) == chained

    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_candidates_gathered_only_off_the_chain(self, push_demo, monkeypatch, noise):
        # clean, every chunk shifts the one before it and no step gathers; with
        # noise no chunk does, and every step with more than one chunk gathers
        calls, real_candidates, stats = [0], ensemble.candidates, []

        def counting(*args):
            calls[0] += 1
            return real_candidates(*args)

        monkeypatch.setattr(ensemble, "candidates", counting)
        closed_loop_eval("push", push_demo, default_matrix(), 4,
                         disturbances=DisturbanceConfig(noise=noise),
                         diagnostics_sink=lambda *episode: stats.extend(episode[3]))
        ensembled = [d for d in stats if d.mode_used != "suspended"]
        gathered = [d for d in ensembled if d.candidate_count > 1]
        assert len(gathered) > 0.9 * len(ensembled) > 1000
        assert calls[0] == (0 if noise == 0.0 else len(gathered))


class TestPositionFormat:
    """Positions on the control path are (x, y, z) tuples of Python floats.
    An ``np.float64`` that leaked back in would print as ``np.float64(...)``
    under NumPy 2 and change the bytes of a written dataset."""

    @pytest.mark.parametrize("task", list(TaskKind))
    def test_every_coordinate_is_a_python_float(self, task, request, monkeypatch):
        demo = request.getfixturevalue(f"{task.value}_demo")
        states, actions = [], []
        real_step, real_ensemble, real_predict = (sim.step, evaluation.ensemble_action,
                                                  ScriptedPolicy.predict)

        def recording_step(state, action, cfg):
            states.append(real_step(state, action, cfg))
            return states[-1]

        def recording_ensemble(*args):
            actions.append(real_ensemble(*args))
            return actions[-1]

        def recording_predict(self, ee_pos, t):
            chunk = real_predict(self, ee_pos, t)
            actions.extend(chunk.actions)
            return chunk

        monkeypatch.setattr(sim, "step", recording_step)
        monkeypatch.setattr(evaluation, "ensemble_action", recording_ensemble)
        monkeypatch.setattr(ScriptedPolicy, "predict", recording_predict)
        scene = recorded_scene(demo)
        states.extend(sim.replay(augment_segmentwise(demo, anchors_for_scene(task, demo, scene)),
                                 scene).states)
        for disturbances in (DisturbanceConfig(),
                             DisturbanceConfig(latency=3, bimodal_period=2, noise=0.01)):
            SeedRun(task, demo, 5, [EnsembleConfig()], disturbances=disturbances).result(0)

        triples = [a.pos for a in actions]
        for s in states:
            triples += [s.ee_pos, *s.blocks]
            if s.grasp_offset is not None:
                triples.append(s.grasp_offset)
            assert type(s.blocks) is tuple and type(s.gripper) is float
        assert len(actions) > 1000
        assert task is TaskKind.PUSH or any(s.grasp_offset is not None for s in states)
        assert {type(p) for p in triples} == {tuple}
        assert {len(p) for p in triples} == {3}
        assert {type(x) for p in triples for x in p} == {float}

    @pytest.mark.parametrize("task", list(TaskKind))
    def test_augmentation_path_holds_float_triples(self, task, request):
        demo = request.getfixturevalue(f"{task.value}_demo")  # from parse_demo
        scene = sample_scene(task, Workspace(), 5)
        anchors = anchors_for_scene(task, demo, scene)
        aug = augment_segmentwise(demo, anchors)
        ep = sim.replay(aug, scene)
        assert ep.goals is scene.block_goals
        triples = [*scene.block_starts, *scene.block_goals, *(a.pos for a in ep.actions)]
        for d in (demo, aug):
            triples += [w.pos for w in d.waypoints]
            triples += [p for s in d.segments for p in (s.anchor_start, s.anchor_goal)]
        triples += [p for a in anchors for p in (a.r_s, a.r_g, a.g_s, a.g_g)]
        assert {type(p) for p in triples} == {tuple}
        assert {len(p) for p in triples} == {3}
        assert {type(x) for p in triples for x in p} == {float}
        assert {type(a.gripper) for a in ep.actions} == {float}

    @pytest.mark.parametrize("task", list(TaskKind))
    def test_replay_records_the_warped_waypoints(self, task, request):
        # the dataset writer reuses an action's text while the Action is the same object
        demo = request.getfixturevalue(f"{task.value}_demo")
        scene = sample_scene(task, Workspace(), 5)
        aug = augment_segmentwise(demo, anchors_for_scene(task, demo, scene))
        ep = sim.replay(aug, scene)
        waypoint_of = {id(w): k for k, w in enumerate(aug.waypoints)}
        targeted = [waypoint_of[id(action)] for action in ep.actions]
        for action, k in zip(ep.actions, targeted):
            assert action is aug.waypoints[k]
        assert targeted == sorted(targeted)
        assert set(targeted) == set(range(len(aug.waypoints)))
        assert len(ep.actions) > 2 * len(aug.waypoints)

    @pytest.mark.parametrize("module", ["trajectory", "dataset", "ensemble", "evaluation", "cli"])
    def test_module_imports_no_numpy(self, module):
        tree = ast.parse((Path(sim.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert imported and "numpy" not in imported
