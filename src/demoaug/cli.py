"""Command-line surface: augment, replay, ensemble-eval, calibrate-cutoff, stats.

Config precedence is defaults < --config file < flags.  Every run writes its
fully resolved configuration (and the package version) into its output
manifest, and any manifest can be re-executed with --from-manifest to
reproduce the artifact byte for byte.  Exit codes: 0 success, 1 invalid
input, 2 partial result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__, sim, tasks
from .dataset import canonical_json, episode_lines, read_manifest, write_dataset
from .ensemble import EnsembleConfig, EnsembleMode
from .evaluation import (EvalReport, closed_loop_eval, format_report, report_to_dict)
from .policy import DisturbanceConfig
from .trajectory import ParseError, SegmentMismatch, ValidationError, load_demo

OUT_ROOT_ENV = "DEMOAUG_OUT_ROOT"
REPORT_FORMAT_VERSION = 1


def _defaults(cls, *skip: str) -> dict:
    """A config dataclass's field defaults, minus fields the run config omits."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}


class CliError(Exception):
    """Invalid input; maps to exit code 1."""


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        elif value is not None:
            out[key] = value
    return out


def _load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read config file: {e}") from e
    except json.JSONDecodeError as e:
        raise CliError(f"config file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise CliError("config file must hold a JSON object")
    return doc


def _resolve_out(out) -> Path:
    path = Path(out)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _build_sections(args, config_file: dict) -> dict:
    defaults = {
        "workspace": _defaults(tasks.Workspace),
        "controller": _defaults(sim.ControllerConfig),
        "success": _defaults(tasks.SuccessSpec),
        "ensemble": _defaults(EnsembleConfig, "mode", "beta", "g_max"),
        "disturbance": _defaults(DisturbanceConfig, "seed"),
    }
    overrides = {
        "workspace": {"side": getattr(args, "side", None)},
        "controller": {k: getattr(args, k, None) for k in defaults["controller"]},
        "ensemble": {k: getattr(args, k, None) for k in
                     ("k_const", "k_cutoff", "chunk_len", "replay_n", "warmup_steps")},
        "disturbance": {k: getattr(args, k, None) for k in defaults["disturbance"]},
    }
    if getattr(args, "no_clear_after_suspend", False):
        overrides["ensemble"]["clear_after_suspend"] = False
    merged = _deep_merge(defaults, config_file)
    return _deep_merge(merged, overrides)


def _workspace(cfg: dict) -> tasks.Workspace:
    ws = cfg["workspace"]
    return tasks.Workspace(side=ws["side"], pick_goal_z=tuple(ws["pick_goal_z"]))


def _controller(cfg: dict) -> sim.ControllerConfig:
    return sim.ControllerConfig(**cfg["controller"])


def _success_spec(cfg: dict) -> tasks.SuccessSpec:
    return tasks.SuccessSpec(**cfg["success"])


def _disturbance(cfg: dict) -> DisturbanceConfig:
    return DisturbanceConfig(**cfg["disturbance"])


def _ensemble_cfg(cfg: dict, mode: EnsembleMode, beta: float) -> EnsembleConfig:
    e = cfg["ensemble"]
    return EnsembleConfig(mode=mode, beta=beta, k_const=e["k_const"],
                          k_cutoff=e["k_cutoff"], chunk_len=e["chunk_len"],
                          replay_n=e["replay_n"], warmup_steps=e["warmup_steps"],
                          clear_after_suspend=e["clear_after_suspend"])


def _load_demo_or_die(path):
    try:
        return load_demo(path)
    except OSError as e:
        raise CliError(f"cannot read demo file: {e}") from e
    except (ParseError, ValidationError) as e:
        raise CliError(f"invalid demo file: {e}") from e


def _run_config_from_manifest(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read manifest: {e}") from e
    run_config = manifest.get("run_config")
    if not isinstance(run_config, dict):
        raise CliError("manifest carries no run_config to re-execute")
    return run_config


def cmd_augment(args) -> int:
    if args.from_manifest:
        rc = _run_config_from_manifest(args.from_manifest)
    else:
        if not args.demo or not args.task or args.count is None:
            raise CliError("augment requires --demo, --task, and --count")
        if args.count < 1:
            raise CliError(f"--count must be >= 1, got {args.count}")
        sections = _build_sections(args, _load_config_file(args.config) if args.config else {})
        rc = {
            "command": "augment",
            "version": __version__,
            "demo": str(args.demo),
            "task": str(tasks.as_task(args.task).value),
            "count": args.count,
            "seed": args.seed,
            "attempt_cap": args.attempt_cap,
            "workspace": sections["workspace"],
            "controller": sections["controller"],
            "success": sections["success"],
        }
    demo = _load_demo_or_die(rc["demo"])
    out = _resolve_out(args.out)
    partial = None
    try:
        ds = sim.run_campaign(
            demo, rc["task"], rc["count"],
            ws=_workspace(rc), cfg=_controller(rc), rng_seed=rc["seed"],
            spec=_success_spec(rc), attempt_cap=rc.get("attempt_cap"))
    except SegmentMismatch as e:
        raise CliError(str(e)) from e
    except sim.AttemptCapExceeded as e:
        ds, partial = e.dataset, str(e)
    write_dataset(ds, out, run_config=rc)
    print(f"task={ds.task.value} successes={ds.successes} attempts={ds.attempts} "
          f"discard_rate={ds.discard_rate:.3f} out={out}")
    if partial:
        print(f"partial result: {partial}", file=sys.stderr)
        return 2
    return 0


def cmd_replay(args) -> int:
    demo = _load_demo_or_die(args.demo)
    sections = _build_sections(args, _load_config_file(args.config) if args.config else {})
    ep = sim.attempt_episode(demo, tasks.as_task(args.task), _workspace(sections),
                             _controller(sections), _success_spec(sections), args.seed, 0)
    print(f"success={ep.success} steps={len(ep.states)} "
          f"final_blocks={ep.states[-1].blocks.tolist()}")
    if args.out:
        path = _resolve_out(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(episode_lines(ep)) + "\n", encoding="utf-8")
        print(f"episode written to {path}")
    return 0


def _matrix_from_config(rc: dict) -> list[EnsembleConfig]:
    cells = []
    for entry in rc["matrix"]:
        cells.append(_ensemble_cfg(rc, EnsembleMode(entry["mode"]), entry["beta"]))
    return cells


def _default_matrix_entries(modes, betas) -> list[dict]:
    entries = []
    for mode in modes:
        mode = EnsembleMode(mode)
        if mode in (EnsembleMode.BASELINE, EnsembleMode.RESET_ONLY):
            entries.append({"mode": mode.value, "beta": 1.0})
        else:
            entries.extend({"mode": mode.value, "beta": b} for b in betas)
    return entries


def _write_report(report: EvalReport, rc: dict, out: Path) -> Path:
    doc = {"format_version": REPORT_FORMAT_VERSION, "run_config": rc}
    doc.update(report_to_dict(report))
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    return path


def cmd_ensemble_eval(args) -> int:
    if args.from_manifest:
        rc = _run_config_from_manifest(args.from_manifest)
    else:
        if not args.demo or not args.task or args.episodes is None:
            raise CliError("ensemble-eval requires --demo, --task, and --episodes")
        if args.episodes < 0:
            raise CliError("--episodes must be >= 0")
        sections = _build_sections(args, _load_config_file(args.config) if args.config else {})
        modes = [m.strip() for m in args.modes.split(",") if m.strip()]
        betas = [float(b) for b in args.betas.split(",") if b.strip()]
        try:
            entries = _default_matrix_entries(modes, betas)
        except ValueError as e:
            raise CliError(f"bad mode name: {e}") from e
        rc = {
            "command": "ensemble-eval",
            "version": __version__,
            "demo": str(args.demo),
            "task": str(tasks.as_task(args.task).value),
            "episodes": args.episodes,
            "seed": args.seed,
            "matrix": entries,
            "workspace": sections["workspace"],
            "controller": sections["controller"],
            "success": sections["success"],
            "ensemble": sections["ensemble"],
            "disturbance": sections["disturbance"],
        }
    demo = _load_demo_or_die(rc["demo"])
    seeds = [sim.scene_seed_for(rc["seed"], i) for i in range(rc["episodes"])]
    sink = None
    if args.out and getattr(args, "diagnostics", False):
        diag_root = _resolve_out(args.out) / "diagnostics"

        def sink(cfg, episode_index, seed, stats):
            cell_dir = diag_root / f"{cfg.mode.value}_beta{cfg.beta:g}"
            cell_dir.mkdir(parents=True, exist_ok=True)
            lines = [canonical_json({
                "t": s.t, "mode_used": s.mode_used,
                "candidate_count": s.candidate_count,
                "k_p": None if s.k_p != s.k_p else s.k_p,
                "k_g": None if s.k_g != s.k_g else s.k_g,
                "triggered": s.triggered, "suspended_from": s.suspended_from,
            }) for s in stats]
            (cell_dir / f"ep_{episode_index:05d}.jsonl").write_text(
                "\n".join(lines) + "\n", encoding="utf-8")

    try:
        report = closed_loop_eval(
            rc["task"], demo, _matrix_from_config(rc), rc["episodes"], seeds,
            ws=_workspace(rc), ctrl=_controller(rc), disturbances=_disturbance(rc),
            spec=_success_spec(rc), diagnostics_sink=sink)
    except (SegmentMismatch, ValueError) as e:
        raise CliError(str(e)) from e
    print(format_report(report))
    if args.out:
        path = _write_report(report, rc, _resolve_out(args.out))
        print(f"report written to {path}")
    return 0


def cmd_calibrate_cutoff(args) -> int:
    demo = _load_demo_or_die(args.demo)
    sections = _build_sections(args, _load_config_file(args.config) if args.config else {})
    # calibration exercises the suspension path, so a disturbed predictor is
    # the default suite
    if all(getattr(args, k, None) is None for k in ("latency", "bimodal_period")):
        sections["disturbance"]["latency"] = 3
        sections["disturbance"]["bimodal_period"] = 2
    cutoffs = [float(c) for c in args.cutoffs.split(",") if c.strip()]
    if not cutoffs:
        raise CliError("--cutoffs must list at least one value")
    seeds = [sim.scene_seed_for(args.seed, i) for i in range(args.episodes)]
    curve = []
    for cutoff in cutoffs:
        sections_c = json.loads(json.dumps(sections))
        sections_c["ensemble"]["k_cutoff"] = cutoff
        cfg = _ensemble_cfg(sections_c, EnsembleMode.COMBINED, args.beta)
        report = closed_loop_eval(args.task, demo, [cfg], args.episodes, seeds,
                                  ws=_workspace(sections), ctrl=_controller(sections),
                                  disturbances=_disturbance(sections_c),
                                  spec=_success_spec(sections))
        cell = report.cells[0]
        curve.append({"k_cutoff": cutoff, "rate": cell.rate,
                      "successes": cell.successes, "episodes": cell.episodes})
        print(f"k_cutoff={cutoff:<8g} rate={cell.rate:.3f} "
              f"({cell.successes}/{cell.episodes})")
    if args.out:
        out = _resolve_out(args.out)
        out.mkdir(parents=True, exist_ok=True)
        doc = {"format_version": REPORT_FORMAT_VERSION, "version": __version__,
               "command": "calibrate-cutoff", "task": str(tasks.as_task(args.task).value),
               "beta": args.beta, "episodes": args.episodes, "seed": args.seed,
               "disturbance": sections["disturbance"], "curve": curve}
        (out / "calibration.json").write_text(canonical_json(doc) + "\n", encoding="utf-8")
        print(f"calibration written to {out / 'calibration.json'}")
    return 0


def cmd_stats(args) -> int:
    path = Path(args.path)
    if path.is_dir() and (path / "manifest.json").exists():
        manifest = read_manifest(path)
        episodes = manifest["episodes"]
        total_steps = sum(e["steps"] for e in episodes)
        print(f"dataset: {path}")
        print(f"task={manifest['task']} episodes={len(episodes)} "
              f"attempts={manifest['attempts']} discard_rate={manifest['discard_rate']:.3f} "
              f"complete={manifest['complete']}")
        if episodes:
            print(f"steps: total={total_steps} mean={total_steps / len(episodes):.1f}")
        return 0
    if path.is_file() and path.suffix == ".json":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if "cells" in doc:
            print(f"report: {path}")
            print(f"task={doc['task']} episodes_per_cell={doc['n_episodes']}")
            for cell in doc["cells"]:
                print(f"  {cell['mode']:<12} beta={cell['beta']:<5g} rate={cell['rate']:.3f}")
            return 0
    raise CliError(f"{path} is neither a dataset directory nor a report file")


def _add_common_overrides(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file (defaults < file < flags)")
    p.add_argument("--side", type=float, help="workspace square side, m")
    g = p.add_argument_group("controller overrides")
    g.add_argument("--gain", type=float)
    g.add_argument("--max-speed", dest="max_speed", type=float)
    g.add_argument("--max-gripper-speed", dest="max_gripper_speed", type=float)
    g.add_argument("--dt", type=float)
    g.add_argument("--waypoint-advance-radius", dest="waypoint_advance_radius", type=float)
    g.add_argument("--waypoint-timeout", dest="waypoint_timeout", type=float)
    g.add_argument("--settle-time", dest="settle_time", type=float)


def _add_ensemble_overrides(p: argparse.ArgumentParser):
    g = p.add_argument_group("ensembler overrides")
    g.add_argument("--k-const", dest="k_const", type=float)
    g.add_argument("--k-cutoff", dest="k_cutoff", type=float)
    g.add_argument("--chunk-len", dest="chunk_len", type=int)
    g.add_argument("--replay-n", dest="replay_n", type=int)
    g.add_argument("--warmup-steps", dest="warmup_steps", type=int)
    g.add_argument("--no-clear-after-suspend", dest="no_clear_after_suspend",
                   action="store_true",
                   help="keep the stale buffer after a suspension instead of re-warming")
    d = p.add_argument_group("disturbance suite")
    d.add_argument("--latency", type=int)
    d.add_argument("--bimodal-period", dest="bimodal_period", type=int)
    d.add_argument("--bimodal-gap", dest="bimodal_gap", type=int)
    d.add_argument("--noise", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demoaug",
        description="Turn one recorded manipulation demo into a filtered dataset of "
                    "augmented demonstrations, and evaluate spread-aware action-chunk "
                    "ensembling closed-loop.")
    parser.add_argument("--version", action="version", version=f"demoaug {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("augment", help="generate a filtered dataset of augmented replays")
    p.add_argument("--demo", help="demo JSON file")
    p.add_argument("--task", help="push | pick_place | stack")
    p.add_argument("--count", type=int, help="successful episodes to collect")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--attempt-cap", dest="attempt_cap", type=int,
                   help="max replay attempts (default 20x count)")
    p.add_argument("--from-manifest", dest="from_manifest",
                   help="re-execute the run_config stored in a dataset manifest")
    _add_common_overrides(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("replay", help="debug a single augmented replay")
    p.add_argument("--demo", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the episode as JSON lines")
    _add_common_overrides(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("ensemble-eval", help="closed-loop mode/beta ablation table")
    p.add_argument("--demo", help="demo JSON file")
    p.add_argument("--task")
    p.add_argument("--episodes", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for report.json")
    p.add_argument("--modes", default="baseline,reset_only,dynamic_k,combined")
    p.add_argument("--betas", default="0.25,0.5,1.0")
    p.add_argument("--diagnostics", action="store_true",
                   help="write per-step ensembler diagnostics next to the report")
    p.add_argument("--from-manifest", dest="from_manifest",
                   help="re-execute the run_config stored in a report")
    _add_common_overrides(p)
    _add_ensemble_overrides(p)
    p.set_defaults(func=cmd_ensemble_eval)

    p = sub.add_parser("calibrate-cutoff", help="sweep the suspension cutoff on the "
                                                "disturbance suite")
    p.add_argument("--demo", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--episodes", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--cutoffs", default="0.005,0.01,0.02,0.05,0.1,0.2,0.5")
    p.add_argument("--out", help="directory for calibration.json")
    _add_common_overrides(p)
    _add_ensemble_overrides(p)
    p.set_defaults(func=cmd_calibrate_cutoff)

    p = sub.add_parser("stats", help="summarize a dataset directory or report file")
    p.add_argument("path")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError, SegmentMismatch, tasks.SamplingExhausted,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
