"""A run's files: no other module reads or writes them.

A seed's directory holds its config snapshot, its records, an llm run's
chat audit and, once the run ends, a trajectory, a summary and the best
drag body's profile.  The records and the audit are only appended to;
every other file is replaced whole, so a kill leaves the old file or the
new one.  A resumed run keeps only complete generations of records.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .axisym import BodyProfile
from .evolution import Bounds, RecordBuffer, ScoredRecord, encode_design

# Exact types of a parsed JSON number, so bool (an int subclass) is none.
_NUMBER_TYPES = frozenset({int, float})


class ConfigError(ValueError):
    """The configuration document cannot drive a run."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@contextmanager
def _replacing(path: Path) -> Iterator[Path]:
    """Yield a temp path beside ``path``; move it over ``path`` on success.

    ``os.replace`` within one directory is atomic, so ``path`` holds its
    old bytes or its new ones, never a torn mix.  The temp file is removed
    if the block fails; only a kill can leave one behind.  Missing parent
    directories are made first, and a parent that cannot be made (a path
    through a regular file, say) is a ConfigError naming ``path``.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _append_lines(path: Path, entries: Sequence[dict]) -> None:
    """Append one JSON line per entry: the records and the audit only grow."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.writelines(
            json.dumps(entry, allow_nan=False) + "\n" for entry in entries
        )


class RecordWriter:
    """Appends one JSON line per record; its timestamp is its index in the file."""

    def __init__(self, path: Path, bounds: Bounds, start_index: int = 0) -> None:
        self.path = path
        self.bounds = bounds
        self.index = start_index

    def __call__(self, records: Sequence[ScoredRecord]) -> None:
        designs = np.array([record.design for record in records], dtype=float)
        encoded = encode_design(designs, self.bounds).tolist()
        entries = [
            {
                "generation": record.generation,
                "design": design,
                "encoded": grid,
                "score": float(record.score),
                "status": record.status,
                "timestamp": index,
            }
            for index, (record, design, grid) in enumerate(
                zip(records, designs.tolist(), encoded), start=self.index
            )
        ]
        _append_lines(self.path, entries)
        self.index += len(entries)


def _read_record(entry, dimension: int, where: str) -> ScoredRecord:
    """One parsed records line as a ScoredRecord, or a ConfigError naming it.

    A resume reads every line, so messages are formatted only on failure,
    and values are checked by their exact types: a parsed line holds only
    JSON's own types.
    """
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} is not a JSON object")
    g = entry.get("generation")
    if not (type(g) is int and g >= 0):
        raise ConfigError(f"{where} lacks a generation index")
    design = entry.get("design")
    if not (
        type(design) is list
        and len(design) == dimension
        and _NUMBER_TYPES.issuperset(map(type, design))
    ):
        raise ConfigError(f"{where}: design must be a list of {dimension} numbers")
    if type(entry.get("score")) not in _NUMBER_TYPES:
        raise ConfigError(f"{where}: score must be a number")
    try:
        record = ScoredRecord(
            np.array(design, dtype=float), entry["score"], g, entry.get("status")
        )
    except (ValueError, OverflowError) as exc:  # bad status, or an int beyond float
        raise ConfigError(f"{where}: {exc}") from exc
    # json reads NaN and Infinity, which no record holds
    if not math.isfinite(record.score):
        raise ConfigError(f"{where}: score must be finite")
    return record


def _parse_records(
    path: Path, population_size: int, dimension: int
) -> tuple[RecordBuffer, list[str], bool]:
    """Check every line of a records file without writing to it.

    Returns the complete generations, the non-blank lines, and whether a
    torn last line or a partial last generation must be dropped.
    """
    lines = path.read_text(encoding="utf-8").split("\n")
    torn = lines.pop() != ""
    lines = [line for line in lines if line.strip()]
    generations: list[list[ScoredRecord]] = []
    for n, line in enumerate(lines):
        where = f"{path} line {n + 1}"
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{where} is not valid JSON: {exc}") from exc
        record = _read_record(entry, dimension, where)
        if record.generation == len(generations):
            generations.append([])
        require(
            record.generation == len(generations) - 1,
            f"{where}: generation {record.generation} out of order",
        )
        generations[-1].append(record)
    for body in generations[:-1]:
        require(
            len(body) == population_size,
            f"{path}: interior generation with {len(body)} records"
            f" (expected {population_size})",
        )
    dropped = torn
    if generations and len(generations[-1]) != population_size:
        generations.pop()
        dropped = True
    buffer = RecordBuffer()
    for body in generations:
        buffer.append_generation(body)
    return buffer, lines, dropped


def load_records(path: Path, population_size: int, dimension: int) -> RecordBuffer:
    """Rebuild the buffer from disk, dropping a partial trailing generation.

    A final line without its newline is a write cut short by a kill and is
    dropped too, and the file is rewritten without the dropped lines; any
    other malformed line, or a design whose length is not ``dimension``,
    is an error.
    """
    buffer, lines, dropped = _parse_records(path, population_size, dimension)
    if dropped:
        with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(line + "\n" for line in lines[: len(buffer)])
    return buffer


# Keys a resumed run may change: they extend the run or do not touch its records.
_RESUMABLE_KEYS = ("budget", "output_dir", "max_workers")


def _check_same_run(run_dir: Path, snapshot: dict, dimension: int) -> None:
    """Refuse to resume records that a different config wrote.

    The stored ``config.json`` must equal ``snapshot`` except in
    ``_RESUMABLE_KEYS``.  Nothing is written either way.
    """
    path = run_dir / "config.json"
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
        require(isinstance(stored, dict), "not a JSON object")
    except (OSError, ValueError) as exc:
        # A malformed records line is reported before the missing config.
        _parse_records(run_dir / "records.jsonl", snapshot["population_size"], dimension)
        raise ConfigError(
            f"cannot resume: {path} must hold the config that wrote the records ({exc})"
        ) from exc
    current = json.loads(json.dumps(snapshot))
    changed = sorted(
        key
        for key in stored.keys() | current.keys()
        if key not in _RESUMABLE_KEYS and stored.get(key) != current.get(key)
    )
    require(
        not changed,
        f"cannot resume: this config differs from {path} in {', '.join(changed)};"
        f" a resumed run may change only {', '.join(_RESUMABLE_KEYS)}",
    )


@contextmanager
def open_run(
    run_dir: Path, snapshot: dict, bounds: Bounds, resume: bool
) -> Iterator[tuple[RecordBuffer, RecordWriter]]:
    """Lock ``run_dir``, write ``snapshot`` as the config, and yield the
    complete generations so far and the writer of the next.  Existing
    records need ``resume`` and a matching stored config.  The ``flock``
    on ``.lock`` (not on the records, which ``load_records`` replaces)
    ends with the block or the process; without ``fcntl`` there is none."""
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        lock = open(run_dir / ".lock", "ab")
    except OSError as exc:
        raise ConfigError(f"cannot write {run_dir}: {exc}") from exc
    with lock:
        try:
            import fcntl
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except ImportError:  # not POSIX: runs take no lock
            pass
        except OSError as exc:
            raise ConfigError(f"cannot lock {run_dir}: another run holds it ({exc})") from exc
        path = run_dir / "records.jsonl"
        buffer = RecordBuffer()
        if path.exists() and path.stat().st_size > 0:
            require(resume, f"{path} already holds records; pass --resume to continue")
            _check_same_run(run_dir, snapshot, bounds.dimension)
            buffer = load_records(path, snapshot["population_size"], bounds.dimension)
        write_json(run_dir / "config.json", snapshot)
        yield buffer, RecordWriter(path, bounds, start_index=len(buffer))


def audit_log(run_dir: Path) -> Callable[[dict], None]:
    """A callable that appends one JSON line to ``run_dir/llm_audit.jsonl``."""
    path = run_dir / "llm_audit.jsonl"
    return lambda entry: _append_lines(path, [entry])


def write_csv(path: Path, header: list[str], rows) -> None:
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_columns(path: Path, header: list[str], *columns) -> None:
    """Numeric columns as a CSV table of ``.12g`` cells."""
    write_csv(path, header, ([f"{v:.12g}" for v in row] for row in zip(*columns)))


def write_profile(path: Path, profile: BodyProfile) -> None:
    columns = profile.s, profile.r, profile.z, profile.phi
    _write_columns(path, ["s", "r", "z", "phi"], *columns)


def write_tractions(path: Path, mesh, q_r, q_z) -> None:
    # s: the midpoints' arclength rescaled to [-1, 1], as in the profile
    s = 2.0 * mesh.midpoints_arc / mesh.total_arclength - 1.0
    _write_columns(path, ["s", "f_r", "f_z"], s, q_r, q_z)


def write_json(path: Path, doc) -> None:
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, allow_nan=False)
        handle.write("\n")


def finish_run(
    run_dir: Path, settings: dict, bounds: Bounds, buffer: RecordBuffer, detail
) -> None:
    """Write the trajectory, the best profile given the best design's drag
    ``detail`` (score, profile, drag), and the summary."""
    rows = []
    best_so_far = -np.inf
    for g in range(buffer.n_generations):
        top = buffer.best_in(g).score
        best_so_far = max(best_so_far, top)
        rows.append([g, repr(float(top)), repr(float(best_so_far))])
    header = ["generation", "best_score_in_generation", "best_score_so_far"]
    write_csv(run_dir / "trajectory.csv", header, rows)
    best = buffer.best_record()
    summary = {
        "problem": settings["problem"],
        "optimizer": settings["optimizer"],
        "n_generations": buffer.n_generations,
        "n_records": len(buffer),
        "best_score": float(best.score),
        "best_generation": best.generation,
        "best_design": best.design.tolist(),
        "best_encoded": encode_design(best.design, bounds).tolist(),
    }
    if detail is not None:
        _, profile, drag = detail
        write_profile(run_dir / "best_profile.csv", profile)
        summary["best_normalized_drag"] = drag.normalized
        summary["best_drag_force"] = drag.drag
        summary["scale_lambda"] = profile.lam
    write_json(run_dir / "summary.json", summary)


def read_trajectory(path: Path) -> np.ndarray:
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        return np.array([float(row["best_score_so_far"]) for row in rows])
    except (KeyError, TypeError, ValueError) as exc:
        # a missing column, a short row, a cell that is not a number
        raise ConfigError(f"cannot read the trajectory {path}: {exc!r}") from exc


def collect_trajectories(root: Path) -> list[np.ndarray]:
    direct = root / "trajectory.csv"
    if direct.exists():
        return [read_trajectory(direct)]
    found = sorted(root.glob("seed_*/trajectory.csv"))
    require(bool(found), f"no trajectory.csv under {root}")
    return [read_trajectory(p) for p in found]
