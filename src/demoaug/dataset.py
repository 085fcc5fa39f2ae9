"""On-disk campaign datasets: manifest plus newline-delimited step records.

Layout, one directory per campaign::

    <out>/manifest.json            accounting, config echo, episode index
    <out>/episodes/ep_00000.jsonl  one JSON object per control step

Episodes are held in memory as the simulator's own states and the warped
demo's waypoints as actions (:class:`~demoaug.sim.EpisodeRecord`) and
serialised into step records only here, at write time.  Every record is
canonical JSON: keys sorted, no whitespace, floats as ``repr``, so identical
campaigns produce byte-identical directories.  The manifest goes through
:func:`canonical_json`.  The step records are the same bytes, but are
written from one template per episode with the keys already in sorted
order, and the text of a value is reused while the step holds the same
object (see :func:`episode_lines`).
"""

from __future__ import annotations

import json
from pathlib import Path

from .sim import Dataset, EpisodeRecord

DATASET_FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, compact separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _number(x) -> str:
    """JSON text of one scalar; NaN and inf raise ValueError."""
    if type(x) is float:
        text = repr(x)
        if "n" in text:  # "nan", "inf", "-inf": no finite repr has an "n"
            raise ValueError(f"non-finite value in a step record: {text}")
        return text
    return json.dumps(x, allow_nan=False)


def _row(row) -> str:
    """JSON text of one (x, y, z) float triple; NaN and inf raise ValueError."""
    x, y, z = row
    text = f"[{x!r},{y!r},{z!r}]"
    if "n" in text:
        raise ValueError(f"non-finite value in a step record: {text}")
    return text


def episode_lines(episode: EpisodeRecord, times: dict | None = None) -> list[str]:
    """One canonical JSON step record per control step: the observed state, then the action.

    A record is the :func:`canonical_json` text of ``{"action": {"gripper",
    "pos"}, "obs": {"blocks", "ee", "goals", "gripper", "held"}, "t"}``,
    written without ``json.dumps``.  Each episode has one template that holds
    the keys, already in sorted order, and the text fixed for the episode:
    ``goals`` and the ``held`` flag list of each held index.  Each step fills
    in its numbers, floats as ``repr``.  ``repr`` is most of the cost, so
    text is reused from one step to the next: an action's while the step
    holds the same Action object, a block row's while it is the same object,
    and the observed gripper's while it is equal and not zero (``0.0 ==
    -0.0``, but the two print differently; one object has one set of bits).
    The time's text is reused across every episode given the same ``times``
    dict (step time -> text; pass one to every episode of a dataset).  An
    episode's states share one block count.  A NaN or inf raises
    ValueError, as ``allow_nan=False`` does.
    """
    if times is None:
        times = {}
    n_blocks = len(episode.states[0].blocks) if episode.states else 0
    held_texts = {held: canonical_json([i == held for i in range(n_blocks)])
                  for held in (None, *range(n_blocks))}
    template = ('{"action":{"gripper":%s,"pos":%s},"obs":{"blocks":%s,"ee":%s,"goals":'
                + canonical_json(episode.goals)
                + ',"gripper":%s,"held":%s},"t":%s}')

    lines = []
    last_action = last_g = None
    last_rows = [None] * n_blocks  # a list is never a state's rows, even with no blocks
    row_texts = [""] * n_blocks
    for s, action in zip(episode.states, episode.actions):
        if action is not last_action:
            pos_text, act_g_text = _row(action.pos), _number(action.gripper)
            last_action = action
        g = s.gripper
        if g != last_g:
            g_text = _number(g)
            last_g = g or None  # a zero is remembered as None, which no value equals
        rows = s.blocks
        if rows is not last_rows:
            for i, row in enumerate(rows):
                if row is not last_rows[i]:
                    row_texts[i] = _row(row)
            last_rows = rows
            blocks_text = "[" + ",".join(row_texts) + "]"
        t = s.time
        t_text = times.get(t)
        if t_text is None:
            t_text = _number(t)
            if t:
                times[t] = t_text
        lines.append(template % (act_g_text, pos_text, blocks_text, _row(s.ee_pos),
                                 g_text, held_texts.get(s.held, held_texts[None]), t_text))
    return lines


def episode_text(episode: EpisodeRecord, times: dict | None = None) -> str:
    """The episode's ``.jsonl`` file: :func:`episode_lines`, one per line."""
    return "\n".join(episode_lines(episode, times)) + "\n"


def write_dataset(dataset: Dataset, out_dir, run_config: dict | None = None) -> Path:
    """Write a campaign dataset; returns the manifest path."""
    out = Path(out_dir)
    episodes_dir = out / "episodes"
    episodes_dir.mkdir(parents=True, exist_ok=True)

    index = []
    times: dict = {}
    for i, ep in enumerate(dataset.episodes):
        name = f"ep_{i:05d}.jsonl"
        (episodes_dir / name).write_text(episode_text(ep, times), encoding="utf-8")
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

