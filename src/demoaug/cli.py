"""Command-line surface: augment, replay, ensemble-eval, stats.

Config precedence is defaults < --config file < flags.  Every run writes its
fully resolved configuration (and the package version) into its output
manifest, and any manifest can be re-executed with --from-manifest to
reproduce the artifact byte for byte; only --out and --diagnostics may go with it.
Reports of earlier versions hold the ensemble keys ``replay_n``, ``warmup_steps``
and ``clear_after_suspend``, settings no longer: each reruns only at the value now
fixed (``null``, ``5``, ``true``), and is echoed as read.  ``ensemble-eval`` sweeps a
matrix of mode, beta and suspension cutoff (``--modes``, ``--betas``, ``--k-cutoffs``).
Override flags are made from ``FLAGS`` and the names and defaults of the
config fields, so a setting is written once, in its config dataclass.
``--out`` names the output path as given.  Before any work, a command exits 1
if a directory it writes is a regular file, if a file it writes is a directory,
or if the files it writes there would mix with an earlier run's (a dataset's
episodes, the diagnostics).
Exit codes: 0 success; 1 invalid input, which is any ``ValueError``; 2 a
written dataset whose ``complete`` is false, as an attempt cap leaves it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__, sim, tasks
from .dataset import DATASET_FORMAT_VERSION, canonical_json, episode_text, write_dataset
from .ensemble import WARMUP_STEPS, EnsembleConfig
from .evaluation import (ABLATION_BETAS, ABLATION_MODES, EvalReport, closed_loop_eval,
                         default_matrix, format_report, report_to_dict)
from .policy import DisturbanceConfig
from .trajectory import ParseError, ValidationError, load_demo, require_integer

REPORT_FORMAT_VERSION = 1

# run-config section -> the config class it builds, and the fields it omits
SECTIONS = {
    "workspace": (tasks.Workspace, ()),
    "controller": (sim.ControllerConfig, ()),
    "success": (tasks.SuccessSpec, ()),
    "ensemble": (EnsembleConfig, ("mode", "beta")),
    "disturbance": (DisturbanceConfig, ("seed",)),
}
AUGMENT_SECTIONS = ("workspace", "controller", "success")
# run-config section -> the fields that have override flags, None for all it holds
FLAGS = {"workspace": ("side",), "controller": None, "ensemble": ("k_const", "chunk_len"),
         "disturbance": None}
_FLAG_HELP = {"side": "workspace square side, m"}
# ensemble keys that earlier versions wrote for settings now fixed, each at its fixed value
RETIRED = {"replay_n": None, "warmup_steps": WARMUP_STEPS, "clear_after_suspend": True}
# each command's run-config keys besides its sections, at values of their JSON type
RUN_KEYS = {
    "augment": {"count": 0, "attempt_cap": None},
    "ensemble-eval": {"episodes": 0,
                      "matrix": [{"mode": "", "beta": 0.0, "k_cutoff": 0.0}]},
}
# JSON type of a value read from a file, by the type of its template value
_JSON_TYPES = {bool: ((bool,), "true or false"), str: ((str,), "a string"),
               int: ((int,), "an integer"), float: ((int, float), "a number"),
               type(None): ((int, type(None)), "an integer or null"), list: ((list,), "a list")}


class CliError(ValueError):
    """Invalid input that no library check names; maps to exit code 1."""


def _section_defaults() -> dict:
    """Every section's field defaults, which flags and config files override."""
    return {name: {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}
            for name, (cls, skip) in SECTIONS.items()}


def _flag_defaults() -> dict:
    """Each section of ``FLAGS`` -> {field: default} of its fields with flags."""
    defaults = _section_defaults()
    return {name: {k: v for k, v in defaults[name].items() if fields is None or k in fields}
            for name, fields in FLAGS.items()}


def _read_json(path, what: str):
    """The JSON document in the file at ``path``, or CliError naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise CliError(f"cannot read {what} {path}: {e}") from e


def _conform(doc, template: dict, where: str = "") -> None:
    """Raise CliError naming the key unless ``doc`` is a JSON object whose keys
    are all in ``template``, each holding a value of its template value's JSON
    type.  A dict template is a section, a one-item list the template of each
    item of a list, a tuple the templates of a fixed-length list's items.
    """
    if not isinstance(doc, dict):
        raise CliError(f"run-config key {where} must be a JSON object, got {doc!r}")
    for key, value in doc.items():
        name = f"{where}.{key}" if where else key
        if key not in template:
            raise CliError(f"unknown run-config key {name}")
        like = template[key]
        if isinstance(like, dict):
            _conform(value, like, name)
        elif isinstance(like, (list, tuple)):
            if not isinstance(value, list):
                raise CliError(f"run-config key {name} must be a list, got {value!r}")
            items = like * len(value) if isinstance(like, list) else like
            if len(value) != len(items):
                raise CliError(f"run-config key {name} must hold {len(items)} items, "
                               f"got {value!r}")
            _conform(dict(enumerate(value)), dict(enumerate(items)), name)
        else:
            _check_type(value, like, f"run-config key {name}")


def _check_type(value, like, name: str) -> None:
    """Raise CliError naming ``name`` unless ``value`` has ``like``'s JSON type."""
    types, what = _JSON_TYPES[type(like)]
    if isinstance(value, bool) != isinstance(like, bool) or not isinstance(value, types):
        raise CliError(f"{name} must be {what}, got {value!r}")


def _run_config_template(command: str) -> dict:
    sections = _section_defaults()
    sections["ensemble"].update(RETIRED)
    names = AUGMENT_SECTIONS if command == "augment" else tuple(SECTIONS)
    return {"command": "", "version": "", "demo": "", "task": "", "seed": 0,
            **RUN_KEYS[command], **{name: sections[name] for name in names}}


def _require(doc, template: dict, where: str) -> None:
    """Raise CliError naming the key unless the JSON object ``doc`` holds every
    key of ``template``, each at a value of its template value's JSON type."""
    if not isinstance(doc, dict):
        raise CliError(f"{where} must be a JSON object, got {doc!r}")
    for key, like in template.items():
        if key not in doc:
            raise CliError(f"{where} lacks {key}")
        _check_type(doc[key], like, f"{where}.{key}")


def _refuse_used(target: Path, file: bool = False) -> None:
    """Raise CliError naming the path unless ``target``, a directory (a file with
    ``file``), can be written: no directory on its path is a regular file, a file
    is no directory, and a directory holds no earlier run's files."""
    for parent in (target.parents if file else (target, *target.parents)):
        if parent.is_file():
            raise CliError(f"cannot write {target}: {parent} is a regular file")
    if file and target.is_dir():
        raise CliError(f"cannot write {target}: it is a directory")
    if target.is_dir() and any(target.iterdir()):
        raise CliError(f"{target} already holds files of an earlier run")


def _build_sections(args, names) -> dict:
    """The named sections of a run config, each its defaults, then the --config
    file's section, then the flags given."""
    defaults = _section_defaults()
    flags = _flag_defaults()
    config_file = _read_json(args.config, "config file") if args.config else {}
    if not isinstance(config_file, dict):
        raise CliError("config file must hold a JSON object")
    _conform(config_file, defaults)
    return {name: {**defaults[name], **config_file.get(name, {}),
                   **{k: v for k in flags.get(name, ()) if (v := getattr(args, k)) is not None}}
            for name in names}


def _fresh_run_config(args, command: str, count: str, names) -> dict:
    """A fresh ``command`` run's config but for the keys only that command has:
    the demo, the task, the seed, the ``count`` flag's value and the named sections."""
    if not args.demo or not args.task or getattr(args, count) is None:
        raise CliError(f"{command} requires --demo, --task, and --{count}")
    return {"command": command, "version": __version__, "demo": str(args.demo),
            "task": str(tasks.as_task(args.task).value), count: getattr(args, count),
            "seed": 0 if args.seed is None else args.seed, **_build_sections(args, names)}


def _configs(rc: dict) -> dict:
    """The config object of each section of a run config but its retired keys, keyed
    by section; the ensemble section gives the base every matrix cell replaces fields of."""
    return {name: cls(**{k: v for k, v in rc.get(name, {}).items() if k not in RETIRED})
            for name, (cls, _) in SECTIONS.items()}


def _load_demo_or_die(path):
    try:
        return load_demo(path)
    except OSError as e:
        raise CliError(f"cannot read demo file: {e}") from e
    except (ParseError, ValidationError) as e:
        raise CliError(f"invalid demo file: {e}") from e


def _run_config_from_manifest(args, command: str) -> dict:
    given = [f"--{k.replace('_', '-')}" for k, v in vars(args).items()
             if v is not None and k not in ("cmd", "func", "from_manifest", "out", "diagnostics")]
    if given:
        raise CliError(f"--from-manifest reruns the manifest's run_config and takes only "
                       f"--out and --diagnostics, not {', '.join(given)}")
    manifest = _read_json(args.from_manifest, "manifest")
    run_config = manifest.get("run_config") if isinstance(manifest, dict) else None
    if not isinstance(run_config, dict):
        raise CliError("manifest carries no run_config to re-execute")
    if run_config.get("command") != command:
        raise CliError(f"manifest run_config.command is {run_config.get('command')!r}, "
                       f"not {command!r}")
    template = _run_config_template(command)
    _conform(run_config, template)
    missing = [k for k, like in template.items() if like is not None and k not in run_config]
    if missing:
        raise CliError(f"manifest run_config lacks {', '.join(missing)}")
    for key, value in run_config.get("ensemble", {}).items():
        if key in RETIRED and value != RETIRED[key]:
            raise CliError(f"manifest run_config.ensemble.{key} is {json.dumps(value)}; {key} is "
                           f"no longer a setting, and only {json.dumps(RETIRED[key])} reruns")
    return run_config


def cmd_augment(args) -> int:
    if args.from_manifest:
        rc = _run_config_from_manifest(args, "augment")
    else:
        rc = _fresh_run_config(args, "augment", "count", AUGMENT_SECTIONS)
        rc["attempt_cap"] = args.attempt_cap
    require_integer("seed", rc["seed"], 0)   # as scene_seed_for does, but before any attempt
    configs = _configs(rc)
    demo = _load_demo_or_die(rc["demo"])
    out = Path(args.out)
    _refuse_used(out / "episodes")
    ds = sim.run_campaign(
        demo, rc["task"], rc["count"], ws=configs["workspace"], cfg=configs["controller"],
        rng_seed=rc["seed"], spec=configs["success"], attempt_cap=rc.get("attempt_cap"))
    write_dataset(ds, out, run_config=rc)
    print(f"task={ds.task.value} successes={ds.successes} attempts={ds.attempts} "
          f"discard_rate={ds.discard_rate:.3f} out={out}")
    if ds.complete:
        return 0
    # an incomplete campaign stopped at its cap
    print(f"partial result: {ds.successes}/{rc['count']} successes after {ds.attempts} "
          f"attempts (cap {ds.attempts}); discard rate {ds.discard_rate:.2f}", file=sys.stderr)
    return 2


def cmd_replay(args) -> int:
    demo = _load_demo_or_die(args.demo)
    configs = _configs(_build_sections(args, AUGMENT_SECTIONS))
    path = Path(args.out) if args.out else None
    if path:
        _refuse_used(path, file=True)
    ep = sim.attempt_episode(demo, tasks.as_task(args.task), configs["workspace"],
                             configs["controller"], configs["success"], args.seed, 0)
    print(f"success={ep.success} steps={len(ep.states)} "
          f"final_blocks={[list(row) for row in ep.states[-1].blocks]}")
    if path:
        text = episode_text(ep)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"episode written to {path}")
    return 0


def _write_report(report: EvalReport, rc: dict, out: Path) -> Path:
    doc = {"format_version": REPORT_FORMAT_VERSION, "run_config": rc, **report_to_dict(report)}
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    return path


def _sweep(flag: str, text: str, parse) -> list:
    """The comma list given to ``flag``, each item parsed; never empty."""
    values = [parse(x.strip()) for x in text.split(",") if x.strip()]
    if not values:
        raise CliError(f"{flag} must list at least one value, got {text!r}")
    return values


def cmd_ensemble_eval(args) -> int:
    if args.diagnostics and not args.out:
        raise CliError("--diagnostics needs --out, the directory it writes under")
    if args.from_manifest:
        rc = _run_config_from_manifest(args, "ensemble-eval")
        if not rc["matrix"]:
            raise CliError("manifest run_config.matrix lists no cell")
        for i, entry in enumerate(rc["matrix"]):
            _require(entry, {"mode": "", "beta": 0.0}, f"manifest run_config.matrix.{i}")
    else:
        rc = _fresh_run_config(args, "ensemble-eval", "episodes", SECTIONS)
        modes = ABLATION_MODES if args.modes is None else _sweep("--modes", args.modes, str)
        betas = ABLATION_BETAS if args.betas is None else _sweep("--betas", args.betas, float)
        k_cutoffs = (None if args.k_cutoffs is None
                     else _sweep("--k-cutoffs", args.k_cutoffs, float))
        cells = default_matrix(betas, modes, k_cutoffs, _configs(rc)["ensemble"])
        rc["matrix"] = [{"mode": c.mode.value, "beta": c.beta, "k_cutoff": c.k_cutoff}
                        for c in cells]
    require_integer("episodes", rc["episodes"], 0)
    require_integer("seed", rc["seed"], 0)   # also when no episode asks scene_seed_for
    configs = _configs(rc)
    # a matrix entry written before k_cutoff was an axis keeps the base's cutoff
    cells = [dataclasses.replace(configs["ensemble"], **entry) for entry in rc["matrix"]]
    demo = _load_demo_or_die(rc["demo"])
    seeds = [sim.scene_seed_for(rc["seed"], i) for i in range(rc["episodes"])]
    out = Path(args.out) if args.out else None
    if out:
        _refuse_used(out / "report.json", file=True)
    sink = None
    if args.diagnostics:
        diag_root = out / "diagnostics"
        _refuse_used(diag_root)

        def cell_dir_of(cfg) -> Path:
            return diag_root / f"{cfg.mode.value}_beta{cfg.beta:g}_kcutoff{cfg.k_cutoff:g}"

        cell_dirs = [cell_dir_of(cfg) for cfg in cells]
        for i, cell_dir in enumerate(cell_dirs):
            if cell_dir in cell_dirs[:i]:
                raise CliError(f"two matrix cells would write diagnostics to {cell_dir}")

        def sink(cfg, episode_index, seed, stats):
            cell_dir = cell_dir_of(cfg)
            cell_dir.mkdir(parents=True, exist_ok=True)
            # NaN temperatures are written as null
            lines = [canonical_json({k: None if v != v else v for k, v in s._asdict().items()})
                     for s in stats]
            (cell_dir / f"ep_{episode_index:05d}.jsonl").write_text(
                "\n".join(lines) + "\n", encoding="utf-8")

    report = closed_loop_eval(
        rc["task"], demo, cells, rc["episodes"], seeds, ws=configs["workspace"],
        ctrl=configs["controller"], disturbances=configs["disturbance"],
        spec=configs["success"], diagnostics_sink=sink)
    print(format_report(report))
    if out:
        path = _write_report(report, rc, out)
        print(f"report written to {path}")
    return 0


def cmd_stats(args) -> int:
    path = Path(args.path)
    if path.is_dir() and (path / "manifest.json").exists():
        manifest = _read_json(path / "manifest.json", "manifest")
        # every printed field is checked before the first line is printed
        _require(manifest, {"format_version": 0, "episodes": [], "task": "", "attempts": 0,
                            "discard_rate": 0.0, "complete": True}, "manifest")
        if manifest["format_version"] != DATASET_FORMAT_VERSION:
            raise CliError(f"manifest.format_version must be {DATASET_FORMAT_VERSION}, "
                           f"got {manifest['format_version']}")
        episodes = manifest["episodes"]
        for i, entry in enumerate(episodes):
            _require(entry, {"steps": 0}, f"manifest episodes.{i}")
        total_steps = sum(e["steps"] for e in episodes)
        print(f"dataset: {path}")
        print(f"task={manifest['task']} episodes={len(episodes)} "
              f"attempts={manifest['attempts']} discard_rate={manifest['discard_rate']:.3f} "
              f"complete={manifest['complete']}")
        if episodes:
            print(f"steps: total={total_steps} mean={total_steps / len(episodes):.1f}")
        return 0
    if path.is_file() and path.suffix == ".json":
        doc = _read_json(path, "report")
        if isinstance(doc, dict) and "cells" in doc:
            _require(doc, {"task": "", "n_episodes": 0, "cells": []}, "report")
            for i, cell in enumerate(doc["cells"]):
                _require(cell, {"mode": "", "beta": 0.0, "rate": 0.0}, f"report cells.{i}")
            print(f"report: {path}")
            print(f"task={doc['task']} episodes_per_cell={doc['n_episodes']}")
            for cell in doc["cells"]:
                print(f"  {cell['mode']:<12} beta={cell['beta']:<5g} "
                      f"k_cutoff={cell.get('k_cutoff', '-')!s:<7} rate={cell['rate']:.3f}")
            return 0
    raise CliError(f"{path} is neither a dataset directory nor a report file")


def _add_overrides(p: argparse.ArgumentParser, sections):
    """--config and the override flag of every field ``FLAGS`` names in ``sections``."""
    p.add_argument("--config", help="JSON config file (defaults < file < flags)")
    flags = _flag_defaults()
    for section in (name for name in sections if name in flags):
        g = p.add_argument_group(f"{section} overrides")
        for name, default in flags[section].items():
            g.add_argument(f"--{name.replace('_', '-')}", dest=name, help=_FLAG_HELP.get(name),
                           type=float if isinstance(default, float) else int)


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
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--attempt-cap", dest="attempt_cap", type=int,
                   help="max replay attempts (default 20x count)")
    p.add_argument("--from-manifest", dest="from_manifest",
                   help="re-execute the run_config stored in a dataset manifest")
    _add_overrides(p, AUGMENT_SECTIONS)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("replay", help="debug a single augmented replay")
    p.add_argument("--demo", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the episode as JSON lines")
    _add_overrides(p, AUGMENT_SECTIONS)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("ensemble-eval", help="closed-loop mode/beta/k_cutoff ablation table")
    p.add_argument("--demo", help="demo JSON file")
    p.add_argument("--task")
    p.add_argument("--episodes", type=int)
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--out", help="directory for report.json")
    p.add_argument("--modes", help="default: all four")
    p.add_argument("--betas", help="temperature scales swept for dynamic_k and combined")
    p.add_argument("--k-cutoffs", dest="k_cutoffs",
                   help="suspension cutoffs swept for reset_only and combined "
                        "(default: the config's ensemble.k_cutoff)")
    p.add_argument("--diagnostics", action="store_true",
                   help="write per-step ensembler diagnostics next to the report")
    p.add_argument("--from-manifest", dest="from_manifest",
                   help="re-execute the run_config stored in a report")
    _add_overrides(p, SECTIONS)
    p.set_defaults(func=cmd_ensemble_eval)

    p = sub.add_parser("stats", help="summarize a dataset directory or report file")
    p.add_argument("path")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
