"""On-disk campaign datasets: manifest plus newline-delimited step records.

Layout, one directory per campaign::

    <out>/manifest.json            accounting, config echo, episode index
    <out>/episodes/ep_00000.jsonl  one JSON object per control step

Episodes are held in memory as the simulator's own states and action arrays
(:class:`~demoaug.sim.EpisodeRecord`) and serialised into step records only
here, at write time.  Serialization is canonical (sorted keys, no whitespace
variance, floats via repr) so identical campaigns produce byte-identical
directories.
"""

from __future__ import annotations

import json
from pathlib import Path

from .sim import Dataset, EpisodeRecord

DATASET_FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def episode_lines(episode: EpisodeRecord) -> list[str]:
    """One canonical JSON step record per control step: the observed state, then the action."""
    goals = episode.goals.tolist()
    return [canonical_json({
        "t": s.time,
        "obs": {
            "ee": s.ee_pos.tolist(),
            "gripper": s.gripper,
            "blocks": s.blocks.tolist(),
            "held": [i == s.held for i in range(len(s.blocks))],
            "goals": goals,
        },
        "action": {"pos": pos, "gripper": gripper},
    }) for s, pos, gripper in zip(episode.states, episode.action_pos.tolist(),
                                  episode.action_gripper.tolist())]


def write_dataset(dataset: Dataset, out_dir, run_config: dict | None = None) -> Path:
    """Write a campaign dataset; returns the manifest path."""
    out = Path(out_dir)
    episodes_dir = out / "episodes"
    episodes_dir.mkdir(parents=True, exist_ok=True)

    index = []
    for i, ep in enumerate(dataset.episodes):
        name = f"ep_{i:05d}.jsonl"
        path = episodes_dir / name
        path.write_text("\n".join(episode_lines(ep)) + "\n", encoding="utf-8")
        index.append({
            "file": f"episodes/{name}",
            "steps": len(ep.states),
            "success": ep.success,
            "provenance": ep.provenance,
        })

    manifest = {
        "format_version": DATASET_FORMAT_VERSION,
        "task": dataset.task.value,
        "root_seed": dataset.root_seed,
        "attempts": dataset.attempts,
        "successes": dataset.successes,
        "discard_rate": dataset.discard_rate,
        "complete": dataset.complete,
        "episodes": index,
    }
    if run_config is not None:
        manifest["run_config"] = run_config
    manifest_path = out / "manifest.json"
    manifest_path.write_text(canonical_json(manifest) + "\n", encoding="utf-8")
    return manifest_path


def read_manifest(dataset_dir) -> dict:
    path = Path(dataset_dir)
    if path.name == "manifest.json":
        path = path.parent
    with open(path / "manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != DATASET_FORMAT_VERSION:
        raise ValueError(f"unknown dataset format_version {manifest.get('format_version')}")
    return manifest


def read_episode_steps(dataset_dir, entry: dict) -> list[dict]:
    path = Path(dataset_dir) / entry["file"]
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
