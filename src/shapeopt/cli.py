"""Command-line runner: configure, run, resume, compare, sweep, evaluate.

One JSON config document describes a run; the only environment input is
the API key variable named inside it.  Each seed gets its own directory
with a resolved config snapshot, incremental JSON Lines records, a
trajectory table, and a summary, so interrupted runs resume bit-exactly
and finished runs replay bit-exactly from their snapshots.  Every file
but the appended records is replaced whole, never rewritten in place, so
a kill leaves either the old file or the new one.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .airfoil import EvaluatorConfig
from .axisym import BodyProfile, GeometricConstraint
from .evolution import (
    STATUS_FAILED,
    STATUS_OK,
    AskStrategy,
    Bounds,
    EsConfig,
    EvaluationFailed,
    EvaluatorFatal,
    GaussianSearch,
    ProposerError,
    RecordBuffer,
    ScoredRecord,
    SelectionConfig,
    encode_design,
    run_optimization,
)
from .ga import GaConfig, GaSearch
from .llm import LlmConfig, LlmProposer, MockProposer
from .problems import AirfoilProblem, AxisymDragProblem, QuadraticProblem

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROPOSER = 3
EXIT_EVALUATOR = 4

PROBLEMS = ("airfoil", "axisym_volume", "axisym_area", "analytic_test")
OPTIMIZERS = ("llm", "mock", "ga")
AXISYM = ("axisym_volume", "axisym_area")
REQUIRED = object()
# Longest timeout in seconds; subprocess and socket waits overflow far
# beyond it (poll takes int milliseconds, about 2.1e6 s).
DAY = 86400.0
# Largest magnitude of a number that scales or shifts designs and draws:
# far beyond any useful value, and far below where float64 arithmetic on
# it overflows.
LARGEST = 1.0e6


class Key(NamedTuple):
    """One config table row.  ``kind`` is "integer", "number", "string" or a
    list of one ("integer list"); a trailing "?" admits null.  Booleans are
    not numbers, and strings and lists must not be empty.  ``low`` and
    ``high`` bound a number or each list entry.  No ``problems`` means all;
    a dotted name lives in the block of the optimizer named before the dot.
    """

    name: str
    default: object
    kind: str
    low: float | None = None
    high: float | None = None
    problems: tuple[str, ...] = ()
    choices: tuple[str, ...] = ()


# Ranges that EsConfig, SelectionConfig, GaConfig, LlmConfig and the problem
# constructors check are left to them.  Row order is the snapshot's key order.
CONFIG_KEYS = (
    Key("problem", REQUIRED, "string", choices=PROBLEMS),
    Key("optimizer", REQUIRED, "string", choices=OPTIMIZERS),
    Key("budget", 40, "integer"),
    Key("population_size", 8, "integer"),
    Key("sigma", None, "number?", high=LARGEST),
    Key("n_ini", 2, "integer"),
    Key("top_generations", 3, "integer"),
    Key("recent_generations", 2, "integer"),
    Key("designs_per_generation", 3, "integer"),
    Key("seeds", [0], "integer list", low=0),
    Key("output_dir", "runs", "string"),
    Key("max_workers", 1, "integer"),
    Key("K", 2, "integer", problems=AXISYM),
    Key("n_samples", 801, "integer", low=201, problems=AXISYM),
    Key("n_elements", 120, "integer", low=8, high=400, problems=AXISYM),
    Key("n_F", 3, "integer", problems=("airfoil",)),
    Key("free_indices", None, "integer list?", problems=("airfoil",)),
    Key("samples_per_segment", 32, "integer", low=2, problems=("airfoil",)),
    Key("handle_fraction", 0.3, "number", high=LARGEST, problems=("airfoil",)),
    Key("evaluator_command", REQUIRED, "string list", problems=("airfoil",)),
    Key("reynolds", 100.0, "number", problems=("airfoil",)),
    Key("baseline_ratio", 0.0, "number", problems=("airfoil",)),
    Key("evaluator_timeout", 300.0, "number?", high=DAY, problems=("airfoil",)),
    Key("dimension", 3, "integer", problems=("analytic_test",)),
    Key("target", None, "number list?", low=-LARGEST, high=LARGEST,
        problems=("analytic_test",)),
    Key("llm.endpoint", REQUIRED, "string"),
    Key("llm.model", REQUIRED, "string"),
    Key("llm.max_retries", 2, "integer"),
    Key("llm.timeout", 60.0, "number", high=DAY),
    Key("llm.api_key_env", "SHAPEOPT_API_KEY", "string"),
    Key("ga.tournament_size", 2, "integer"),
    Key("ga.crossover_rate", 0.9, "number"),
    Key("ga.blend_alpha", 0.5, "number", high=LARGEST),
    Key("ga.mutation_rate", 0.2, "number"),
    Key("ga.mutation_sigma", None, "number?", high=LARGEST),
    Key("ga.elite_count", 1, "integer"),
)
_JSON_TYPES = {"integer": int, "number": (int, float), "string": str}


class ConfigError(ValueError):
    """The configuration document cannot drive a run."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _fits(kind: str, value) -> bool:
    if kind.endswith("?"):
        return value is None or _fits(kind[:-1], value)
    if kind.endswith(" list"):
        return isinstance(value, list) and all(_fits(kind[:-5], v) for v in value)
    return isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)


def _read_key(key: Key, value):
    """Check one value against its row; numbers come back as floats."""
    name, _, kind, low, high, _, choices = key
    _require(value is not REQUIRED, f"{name} is required")
    null = " or null" if kind.endswith("?") else ""
    _require(_fits(kind, value), f"{name} must be a JSON {kind.rstrip('?')}{null}")
    if value is None:
        return None
    _require(value != [] and value != "", f"{name} must not be empty")
    for v in value if isinstance(value, list) else [value]:
        # json reads NaN and Infinity, which no key can use
        _require(not kind.startswith("number") or math.isfinite(v),
                 f"{name} must be a finite number")
        _require(low is None or v >= low, f"{name} must be at least {low}")
        _require(high is None or v <= high, f"{name} must be at most {high}")
    _require(not choices or value in choices, f"{name} must be one of {choices}")
    if isinstance(value, list):
        return list(value)
    return float(value) if kind.startswith("number") else value


def _read_block(doc, block: str) -> dict:
    """Values of the table rows one JSON object holds, defaults filled in."""
    label = f"{block} config" if block else "config"
    _require(isinstance(doc, dict), f"{label} must be a JSON object")
    rows = {
        key.name.rpartition(".")[2]: key
        for key in CONFIG_KEYS
        if key.name.rpartition(".")[0] == block
    }
    known = set(rows) if block else {key.name.partition(".")[0] for key in CONFIG_KEYS}
    unknown = set(doc) - known
    _require(not unknown, f"unknown {label} keys: {sorted(unknown)}")
    values: dict = {}
    for name, key in rows.items():  # "problem" comes first
        if not key.problems or values["problem"] in key.problems:
            values[name] = _read_key(key, doc.get(name, key.default))
    return values


def parse_config(raw: dict) -> dict:
    """Validate a config document against the table and materialize defaults.

    Returns the run's settings: every row that applies to the problem, in
    table order, then the block of the optimizer that has one ("llm" or
    "ga").  With ``seeds`` narrowed to one seed this is the ``config.json``
    that replays it.  The objects a run builds from the settings are built
    here once, so their own range checks surface as ConfigError before
    anything is written.
    """
    try:
        settings = _read_block(raw, "")
        seeds = settings["seeds"]
        _require(len(set(seeds)) == len(seeds), "seeds must be distinct")
        block = settings["optimizer"]
        if block in ("llm", "ga"):
            settings[block] = _read_block(raw.get(block, {}), block)
        _es_config(settings, seed=0)
        _strategy(settings, Path(settings["output_dir"]), make_problem(settings))
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return settings


def load_config(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def make_problem(settings: dict):
    problem = settings["problem"]
    if problem in AXISYM:
        constraint = (
            GeometricConstraint.fixed_volume()
            if problem == "axisym_volume"
            else GeometricConstraint.fixed_area()
        )
        return AxisymDragProblem(
            n_modes=settings["K"],
            constraint=constraint,
            n_samples=settings["n_samples"],
            n_elements=settings["n_elements"],
        )
    if problem == "airfoil":
        evaluator = EvaluatorConfig(
            command=settings["evaluator_command"],
            reynolds=settings["reynolds"],
            timeout=settings["evaluator_timeout"],
            baseline_ratio=settings["baseline_ratio"],
        )
        free = settings["free_indices"]
        return AirfoilProblem(
            n_free_points=settings["n_F"],
            free_indices=None if free is None else tuple(free),
            evaluator=evaluator,
            samples_per_segment=settings["samples_per_segment"],
            handle_fraction=settings["handle_fraction"],
        )
    return QuadraticProblem(dimension=settings["dimension"], target=settings["target"])


def _es_config(settings: dict, seed: int) -> EsConfig:
    return EsConfig(
        budget=settings["budget"],
        population_size=settings["population_size"],
        sigma=settings["sigma"],
        n_initial=settings["n_ini"],
        selection=SelectionConfig(
            top_generations=settings["top_generations"],
            recent_generations=settings["recent_generations"],
            designs_per_generation=settings["designs_per_generation"],
        ),
        seed=seed,
        max_workers=settings["max_workers"],
    )


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


class RecordWriter:
    """Appends one JSON line per record; timestamps count evaluations."""

    def __init__(self, path: Path, bounds: Bounds, start_index: int = 0) -> None:
        self.path = path
        self.bounds = bounds
        self.index = start_index

    def __call__(self, records: Sequence[ScoredRecord]) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            for record in records:
                encoded = encode_design(record.design, self.bounds)
                handle.write(
                    json.dumps(
                        {
                            "generation": record.generation,
                            "design": [float(v) for v in record.design],
                            "encoded": [int(v) for v in encoded],
                            "score": float(record.score),
                            "status": record.status,
                            "timestamp": self.index,
                        }
                    )
                    + "\n"
                )
                self.index += 1


def _read_record(entry, dimension: int | None, where: str) -> ScoredRecord:
    """One parsed records line as a ScoredRecord, or a ConfigError naming it."""
    _require(isinstance(entry, dict), f"{where} is not a JSON object")
    g = entry.get("generation")
    _require(_fits("integer", g) and g >= 0, f"{where} lacks a generation index")
    design = entry.get("design")
    _require(
        _fits("number list", design)
        and len(design) > 0
        and dimension in (None, len(design)),
        f"{where}: design must be a list of {dimension or 'one or more'} numbers",
    )
    _require(_fits("number", entry.get("score")), f"{where}: score must be a number")
    try:
        return ScoredRecord(
            np.array(design, dtype=float), entry["score"], g, entry.get("status")
        )
    except (ValueError, OverflowError) as exc:  # bad status, or an int beyond float
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_records(
    path: Path, population_size: int, dimension: int | None
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
        _require(
            record.generation == len(generations) - 1,
            f"{where}: generation {record.generation} out of order",
        )
        generations[-1].append(record)
    for body in generations[:-1]:
        _require(
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


def load_records(
    path: Path, population_size: int, dimension: int | None = None
) -> RecordBuffer:
    """Rebuild the buffer from disk, dropping a partial trailing generation.

    A final line without its newline is a write cut short by a kill and is
    dropped too, and the file is rewritten without the dropped lines; any
    other malformed line, or a design whose length is not ``dimension``
    (when given), is an error.
    """
    buffer, lines, dropped = _parse_records(path, population_size, dimension)
    if dropped:
        with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(line + "\n" for line in lines[: len(buffer)])
    return buffer


# Keys a resumed run may change: they extend the run or do not touch its records.
_RESUMABLE_KEYS = ("budget", "output_dir", "max_workers")


def _check_same_run(
    run_dir: Path, snapshot: dict, population_size: int, dimension: int
) -> None:
    """Refuse to resume records that a different config wrote.

    The stored ``config.json`` must equal ``snapshot`` except in
    ``_RESUMABLE_KEYS``.  Nothing is written either way.
    """
    path = run_dir / "config.json"
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
        _require(isinstance(stored, dict), "not a JSON object")
    except (OSError, ValueError) as exc:
        # A malformed records line is reported before the missing config.
        _parse_records(run_dir / "records.jsonl", population_size, dimension)
        raise ConfigError(
            f"cannot resume: {path} must hold the config that wrote the records ({exc})"
        ) from exc
    current = json.loads(json.dumps(snapshot))
    changed = sorted(
        key
        for key in stored.keys() | current.keys()
        if key not in _RESUMABLE_KEYS and stored.get(key) != current.get(key)
    )
    _require(
        not changed,
        f"cannot resume: this config differs from {path} in {', '.join(changed)};"
        f" a resumed run may change only {', '.join(_RESUMABLE_KEYS)}",
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_columns(path: Path, header: list[str], *columns) -> None:
    """Numeric columns as a CSV table of ``.12g`` cells."""
    _write_csv(path, header, ([f"{v:.12g}" for v in row] for row in zip(*columns)))


def _write_profile(path: Path, profile: BodyProfile) -> None:
    columns = profile.s, profile.r, profile.z, profile.phi
    _write_columns(path, ["s", "r", "z", "phi"], *columns)


def _write_tractions(path: Path, mesh, q_r, q_z) -> None:
    # s: the midpoints' arclength rescaled to [-1, 1], as in the profile
    s = 2.0 * mesh.midpoints_arc / mesh.total_arclength - 1.0
    _write_columns(path, ["s", "f_r", "f_z"], s, q_r, q_z)


def _write_json(path: Path, doc) -> None:
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def write_trajectory(path: Path, buffer: RecordBuffer) -> None:
    rows = []
    best_so_far = -np.inf
    for g in range(buffer.n_generations):
        best = buffer.best_in(g).score
        best_so_far = max(best_so_far, best)
        rows.append([g, repr(float(best)), repr(float(best_so_far))])
    _write_csv(
        path, ["generation", "best_score_in_generation", "best_score_so_far"], rows
    )


def _write_summary(
    path: Path, settings: dict, problem, buffer: RecordBuffer, detail
) -> None:
    best = buffer.best_record()
    summary = {
        "problem": settings["problem"],
        "optimizer": settings["optimizer"],
        "n_generations": buffer.n_generations,
        "n_records": len(buffer),
        "best_score": float(best.score),
        "best_generation": best.generation,
        "best_design": [float(v) for v in best.design],
        "best_encoded": [int(v) for v in encode_design(best.design, problem.bounds)],
    }
    if detail is not None:
        _, profile, drag = detail
        summary["best_normalized_drag"] = drag.normalized
        summary["best_drag_force"] = drag.drag
        summary["scale_lambda"] = profile.lam
    _write_json(path, summary)


def _strategy(settings: dict, run_dir: Path, problem) -> AskStrategy:
    if settings["optimizer"] == "ga":
        _require(
            settings["ga"]["elite_count"] <= settings["population_size"],
            "ga.elite_count must be at most population_size",
        )
        return GaSearch(GaConfig(**settings["ga"]))
    if settings["optimizer"] == "mock":
        return GaussianSearch(MockProposer())
    llm_cfg = LlmConfig(audit_path=str(run_dir / "llm_audit.jsonl"), **settings["llm"])
    return GaussianSearch(LlmProposer(config=llm_cfg, objective=problem.objective))


def run_single_seed(settings: dict, seed: int, resume: bool) -> Path:
    run_dir = Path(settings["output_dir"]) / f"seed_{seed}"
    records_path = run_dir / "records.jsonl"
    problem = make_problem(settings)
    snapshot = {**settings, "seeds": [seed]}

    buffer = RecordBuffer()
    if records_path.exists() and records_path.stat().st_size > 0:
        if not resume:
            raise ConfigError(
                f"{records_path} already holds records; pass --resume to continue"
            )
        population_size = settings["population_size"]
        dimension = problem.bounds.dimension
        _check_same_run(run_dir, snapshot, population_size, dimension)
        buffer = load_records(records_path, population_size, dimension)

    _write_json(run_dir / "config.json", snapshot)  # makes run_dir

    writer = RecordWriter(records_path, problem.bounds, start_index=len(buffer))
    buffer = run_optimization(
        problem,
        _strategy(settings, run_dir, problem),
        _es_config(settings, seed),
        initial_buffer=buffer,
        on_generation=writer,
    )

    write_trajectory(run_dir / "trajectory.csv", buffer)
    best = buffer.best_record()
    detail = None
    if isinstance(problem, AxisymDragProblem) and best.status == STATUS_OK:
        detail = problem.evaluate_detail(best.design)
        _write_profile(run_dir / "best_profile.csv", detail[1])
    _write_summary(run_dir / "summary.json", settings, problem, buffer, detail)
    return run_dir


def cmd_run(config_path: str, out: str | None, resume: bool) -> int:
    settings = load_config(config_path)
    if out is not None:
        settings["output_dir"] = out
    for seed in settings["seeds"]:
        run_dir = run_single_seed(settings, seed, resume)
        print(f"seed {seed}: {run_dir}")
    return EXIT_OK


def _read_trajectory(path: Path) -> np.ndarray:
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        return np.array([float(row["best_score_so_far"]) for row in rows])
    except (KeyError, TypeError, ValueError) as exc:
        # a missing column, a short row, a cell that is not a number
        raise ConfigError(f"cannot read the trajectory {path}: {exc!r}") from exc


def _collect_trajectories(root: Path) -> list[np.ndarray]:
    direct = root / "trajectory.csv"
    if direct.exists():
        return [_read_trajectory(direct)]
    found = sorted(root.glob("seed_*/trajectory.csv"))
    _require(bool(found), f"no trajectory.csv under {root}")
    return [_read_trajectory(p) for p in found]


def cmd_compare(run_dirs: list[str], out: str) -> int:
    """Per-generation mean/min/max of best-so-far, one column group per method."""
    _require(bool(run_dirs), "compare needs at least one run directory")
    groups = []
    for raw in run_dirs:
        root = Path(raw)
        _require(root.exists(), f"run directory {root} does not exist")
        groups.append((root.name, _collect_trajectories(root)))
    lengths = [len(t) for _, ts in groups for t in ts]
    horizon = min(lengths)
    if horizon != max(lengths):
        print(
            f"warning: budgets differ ({max(lengths)} vs {horizon});"
            f" truncating to {horizon} generations",
            file=sys.stderr,
        )
    header = ["generation"]
    columns = []
    for label, trajectories in groups:
        stacked = np.vstack([t[:horizon] for t in trajectories])
        header += [f"{label}_mean", f"{label}_min", f"{label}_max"]
        columns += [stacked.mean(axis=0), stacked.min(axis=0), stacked.max(axis=0)]
    out_path = Path(out)
    _write_csv(
        out_path, header,
        ([g] + [repr(float(col[g])) for col in columns] for g in range(horizon)),
    )
    print(out_path)
    return EXIT_OK


def cmd_sweep_nini(config_path: str, nini_values: list[int], out: str | None) -> int:
    """Mean best-so-far trajectory per seeding-generation count."""
    settings = load_config(config_path)
    _require(
        settings["problem"] in AXISYM,
        "the seeding sweep is defined for the axisymmetric problems",
    )
    _require(
        settings["optimizer"] in ("mock", "llm"),
        "the seeding sweep varies n_ini, which the ga optimizer does not use",
    )
    _require(
        bool(nini_values) and all(v >= 1 for v in nini_values),
        "nini values must be positive integers",
    )
    _require(
        len(set(nini_values)) == len(nini_values), "nini values must be distinct"
    )
    base_out = Path(out) if out is not None else Path(settings["output_dir"])
    mean_columns = {}
    final_bests: dict[int, list[float]] = {}
    for value in nini_values:
        sub = {**settings, "n_ini": value, "output_dir": str(base_out / f"nini_{value}")}
        trajectories = []
        for seed in sub["seeds"]:
            run_dir = run_single_seed(sub, seed, resume=False)
            trajectories.append(_read_trajectory(run_dir / "trajectory.csv"))
        stacked = np.vstack(trajectories)
        mean_columns[value] = stacked.mean(axis=0)
        final_bests[value] = [float(t[-1]) for t in trajectories]
    sweep_path = base_out / "sweep_nini.csv"
    _write_csv(
        sweep_path,
        ["generation"] + [f"nini{v}_mean_best_so_far" for v in nini_values],
        (
            [g] + [repr(float(mean_columns[v][g])) for v in nini_values]
            for g in range(settings["budget"])
        ),
    )
    _write_json(
        base_out / "sweep_summary.json",
        {
            str(v): {
                "final_bests": final_bests[v],
                "mean_final_best": float(np.mean(final_bests[v])),
            }
            for v in nini_values
        },
    )
    print(sweep_path)
    return EXIT_OK


def cmd_evaluate(
    config_path: str,
    design_text: str,
    out: str | None,
    profile_out: str | None,
    traction_out: str | None,
) -> int:
    """Score one design vector outside any run."""
    settings = load_config(config_path)
    problem = make_problem(settings)
    try:
        design = np.array(
            [float(tok) for tok in design_text.replace(" ", "").split(",") if tok],
            dtype=float,
        )
    except ValueError as exc:
        raise ConfigError(f"cannot parse design vector: {exc}") from exc
    _require(
        design.shape == (problem.bounds.dimension,),
        f"design needs {problem.bounds.dimension} components, got {design.size}",
    )
    _require(
        problem.bounds.contains(design, atol=1e-9),
        "design lies outside the problem bounds",
    )
    report: dict = {
        "problem": settings["problem"],
        "design": [float(v) for v in design],
        "encoded": [int(v) for v in encode_design(design, problem.bounds)],
    }
    profile = None
    try:
        if isinstance(problem, AxisymDragProblem):
            score, profile, drag = problem.evaluate_detail(design)
        else:
            score = float(problem.evaluate(design))
        report.update(status=STATUS_OK, score=score)
    except EvaluationFailed as exc:
        report.update(
            status=STATUS_FAILED, score=float(problem.penalty_score), error=str(exc)
        )
    if profile is not None:
        report.update(
            normalized_drag=drag.normalized,
            drag_force=drag.drag,
            n_elements=drag.n_elements,
            scale_lambda=profile.lam,
        )
        if profile_out:
            _write_profile(Path(profile_out), profile)
            report["profile_csv"] = profile_out
        if traction_out:
            _write_tractions(Path(traction_out), drag.mesh, drag.q_r, drag.q_z)
            report["traction_csv"] = traction_out
    if out is None:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        _write_json(Path(out), report)
        print(out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapeopt",
        description="Shape optimization runs: Gaussian search with a"
        " proposer-driven mean, or a genetic-algorithm baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured optimization")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--out", help="override the configured output directory")
    p_run.add_argument(
        "--resume",
        action="store_true",
        help="continue from persisted records instead of refusing to overwrite",
    )

    p_cmp = sub.add_parser("compare", help="aggregate best-so-far across runs")
    p_cmp.add_argument(
        "--runs", nargs="+", required=True,
        help="run directories (each a seed dir or a directory of seed_* dirs)",
    )
    p_cmp.add_argument("--out", required=True, help="comparison CSV path")

    p_sweep = sub.add_parser(
        "sweep-nini", help="sweep the number of randomly seeded generations"
    )
    p_sweep.add_argument("--config", required=True, help="JSON config path")
    p_sweep.add_argument(
        "--nini", nargs="+", type=int, required=True, help="n_ini values to sweep"
    )
    p_sweep.add_argument("--out", help="override the configured output directory")

    p_eval = sub.add_parser("evaluate", help="score a single design vector")
    p_eval.add_argument("--config", required=True, help="JSON config path")
    p_eval.add_argument(
        "--design", required=True, help="comma-separated design components"
    )
    p_eval.add_argument("--out", help="write the JSON report here (default stdout)")
    p_eval.add_argument("--profile-out", help="meridian profile CSV (axisym only)")
    p_eval.add_argument("--traction-out", help="traction CSV (axisym only)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out, args.resume)
        if args.command == "compare":
            return cmd_compare(args.runs, args.out)
        if args.command == "sweep-nini":
            return cmd_sweep_nini(args.config, args.nini, args.out)
        return cmd_evaluate(
            args.config, args.design, args.out, args.profile_out, args.traction_out
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProposerError as exc:
        print(f"proposer failure: {exc} (partial outputs preserved)", file=sys.stderr)
        return EXIT_PROPOSER
    except EvaluatorFatal as exc:
        print(f"evaluator failure: {exc}", file=sys.stderr)
        return EXIT_EVALUATOR


if __name__ == "__main__":
    raise SystemExit(main())
