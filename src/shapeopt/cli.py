"""Command-line runner: configure, run, resume, compare, sweep, evaluate.

One JSON config document describes a run; the only environment input is
the API key variable named inside it.  Each seed's files, and the rules
that let runs resume and replay bit-exactly, belong to ``rundir``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import rundir
from .airfoil import EvaluatorConfig
from .axisym import GeometricConstraint
from .evolution import (
    STATUS_FAILED,
    STATUS_OK,
    AskStrategy,
    EsConfig,
    EvaluationFailed,
    EvaluatorFatal,
    GaussianSearch,
    ProposerError,
    encode_design,
    run_optimization,
)
from .ga import GaConfig, GaSearch
from .llm import LlmConfig, LlmProposer, MockProposer
from .problems import AirfoilProblem, AxisymDragProblem, QuadraticProblem
# RecordWriter and load_records stay reachable here: benchmark hooks patch them on cli.
from .rundir import ConfigError, RecordWriter, fits, load_records, require  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROPOSER = 3
EXIT_EVALUATOR = 4

PROBLEMS = ("airfoil", "axisym_volume", "axisym_area", "analytic_test")
OPTIMIZERS = ("llm", "mock", "ga")
AXISYM = ("axisym_volume", "axisym_area")
REQUIRED = object()


class Key(NamedTuple):
    """One config table row.  ``kind`` is "integer", "number", "string" or a
    list of one ("integer list"); a trailing "?" admits null.  Booleans are
    not numbers, numbers must be finite, and strings and lists must not be
    empty.  No ``problems`` means all; a dotted name lives in the block of
    the optimizer named before the dot.
    """

    name: str
    default: object
    kind: str
    problems: tuple[str, ...] = ()
    choices: tuple[str, ...] = ()


# Types and choices only: the object that uses a value checks its range, so
# library callers meet the same limits, and its class attribute is the
# default.  Row order is the snapshot's key order.
CONFIG_KEYS = (
    Key("problem", REQUIRED, "string", choices=PROBLEMS),
    Key("optimizer", REQUIRED, "string", choices=OPTIMIZERS),
    Key("budget", 40, "integer"),
    Key("population_size", EsConfig.population_size, "integer"),
    Key("n_ini", EsConfig.n_initial, "integer"),
    Key("seeds", [0], "integer list"),
    Key("output_dir", "runs", "string"),
    Key("max_workers", EsConfig.max_workers, "integer"),
    Key("K", AxisymDragProblem.n_modes, "integer", problems=AXISYM),
    Key("n_samples", AxisymDragProblem.n_samples, "integer", problems=AXISYM),
    Key("n_elements", AxisymDragProblem.n_elements, "integer", problems=AXISYM),
    Key("n_F", AirfoilProblem.n_free_points, "integer", problems=("airfoil",)),
    Key("evaluator_command", REQUIRED, "string list", problems=("airfoil",)),
    Key("reynolds", EvaluatorConfig.reynolds, "number", problems=("airfoil",)),
    Key("baseline_ratio", EvaluatorConfig.baseline_ratio, "number", problems=("airfoil",)),
    Key("evaluator_timeout", EvaluatorConfig.timeout, "number?", problems=("airfoil",)),
    Key("dimension", QuadraticProblem.dimension, "integer", problems=("analytic_test",)),
    Key("target", QuadraticProblem.target, "number list?", problems=("analytic_test",)),
    Key("llm.endpoint", REQUIRED, "string"),
    Key("llm.model", REQUIRED, "string"),
    Key("llm.max_retries", LlmConfig.max_retries, "integer"),
    Key("llm.timeout", LlmConfig.timeout, "number"),
    Key("llm.api_key_env", LlmConfig.api_key_env, "string"),
    Key("ga.blend_alpha", GaConfig.blend_alpha, "number"),
    Key("ga.mutation_sigma", GaConfig.mutation_sigma, "number?"),
)


def _read_key(key: Key, value):
    """Check one value against its row; numbers come back as floats."""
    name, _, kind, _, choices = key
    require(value is not REQUIRED, f"{name} is required")
    null = " or null" if kind.endswith("?") else ""
    require(fits(kind, value), f"{name} must be a JSON {kind.rstrip('?')}{null}")
    if value is None:
        return None
    require(value != [] and value != "", f"{name} must not be empty")
    for v in value if isinstance(value, list) else [value]:
        # json reads NaN and Infinity, which no key can use
        require(not kind.startswith("number") or math.isfinite(v),
                f"{name} must be a finite number")
    require(not choices or value in choices, f"{name} must be one of {choices}")
    if isinstance(value, list):
        return list(value)
    return float(value) if kind.startswith("number") else value


def _read_block(doc, block: str) -> dict:
    """Values of the table rows one JSON object holds, defaults filled in."""
    label = f"{block} config" if block else "config"
    require(isinstance(doc, dict), f"{label} must be a JSON object")
    rows = {
        key.name.rpartition(".")[2]: key
        for key in CONFIG_KEYS
        if key.name.rpartition(".")[0] == block
    }
    known = set(rows) if block else {key.name.partition(".")[0] for key in CONFIG_KEYS}
    unknown = set(doc) - known
    require(not unknown, f"unknown {label} keys: {sorted(unknown)}")
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
    that replays it.  The configs a run builds from the settings are built
    here, an EsConfig for every seed, so their range checks surface as
    ConfigError before anything is written.  The chat client is not: only
    a run builds it (see ``run_single_seed``).
    """
    try:
        settings = _read_block(raw, "")
        seeds = settings["seeds"]
        require(len(set(seeds)) == len(seeds), "seeds must be distinct")
        block = settings["optimizer"]
        if block in ("llm", "ga"):
            settings[block] = _read_block(raw.get(block, {}), block)
            (LlmConfig if block == "llm" else GaConfig)(**settings[block])
        for seed in seeds:
            _es_config(settings, seed)
        make_problem(settings)
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
        return AirfoilProblem(n_free_points=settings["n_F"], evaluator=evaluator)
    return QuadraticProblem(dimension=settings["dimension"], target=settings["target"])


def _es_config(settings: dict, seed: int) -> EsConfig:
    return EsConfig(
        budget=settings["budget"],
        population_size=settings["population_size"],
        n_initial=settings["n_ini"],
        seed=seed,
        max_workers=settings["max_workers"],
    )


def _strategy(
    settings: dict, problem, audit: Callable[[dict], None], stack: contextlib.ExitStack
) -> AskStrategy:
    """The seed's strategy; ``stack`` closes the chat client's connection."""
    if settings["optimizer"] == "ga":
        return GaSearch(GaConfig(**settings["ga"]))
    if settings["optimizer"] == "mock":
        return GaussianSearch(MockProposer())
    llm_cfg = LlmConfig(**settings["llm"])
    proposer = stack.enter_context(
        contextlib.closing(LlmProposer(llm_cfg, problem.objective, audit=audit))
    )
    return GaussianSearch(proposer)


def run_single_seed(settings: dict, seed: int, resume: bool) -> Path:
    run_dir = Path(settings["output_dir"]) / f"seed_{seed}"
    problem = make_problem(settings)
    snapshot = {**settings, "seeds": [seed]}
    with contextlib.ExitStack() as stack:
        try:
            strategy = _strategy(settings, problem, rundir.audit_log(run_dir), stack)
        except ValueError as exc:  # the chat client refuses the API key
            raise ConfigError(str(exc)) from exc
        buffer, writer = stack.enter_context(
            rundir.open_run(run_dir, snapshot, problem.bounds, resume)
        )
        buffer = run_optimization(
            problem,
            strategy,
            _es_config(settings, seed),
            initial_buffer=buffer,
            on_generation=writer,
        )
        best = buffer.best_record()
        detail = None
        if isinstance(problem, AxisymDragProblem) and best.status == STATUS_OK:
            detail = problem.evaluate_detail(best.design)
        rundir.finish_run(run_dir, settings, problem.bounds, buffer, detail)
    return run_dir


def cmd_run(config_path: str, out: str | None, resume: bool) -> int:
    settings = load_config(config_path)
    if out is not None:
        settings["output_dir"] = out
    for seed in settings["seeds"]:
        run_dir = run_single_seed(settings, seed, resume)
        print(f"seed {seed}: {run_dir}")
    return EXIT_OK


def cmd_compare(run_dirs: list[str], out: str) -> int:
    """Per-generation mean/min/max of best-so-far, one column group per method."""
    require(bool(run_dirs), "compare needs at least one run directory")
    groups = []
    for raw in run_dirs:
        root = Path(raw)
        require(root.exists(), f"run directory {root} does not exist")
        label = root.resolve().name  # heads the method's columns, even for "."
        require(label not in dict(groups), f"two run directories are named {label!r}")
        groups.append((label, rundir.collect_trajectories(root)))
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
    rundir.write_csv(
        out_path, header,
        ([g] + [repr(float(col[g])) for col in columns] for g in range(horizon)),
    )
    print(out_path)
    return EXIT_OK


def cmd_sweep_nini(config_path: str, nini_values: list[int], out: str | None) -> int:
    """Mean best-so-far trajectory per seeding-generation count."""
    settings = load_config(config_path)
    require(
        settings["problem"] in AXISYM,
        "the seeding sweep is defined for the axisymmetric problems",
    )
    require(
        settings["optimizer"] in ("mock", "llm"),
        "the seeding sweep varies n_ini, which the ga optimizer does not use",
    )
    require(
        len(set(nini_values)) == len(nini_values), "nini values must be distinct"
    )
    base_out = Path(out) if out is not None else Path(settings["output_dir"])
    subs = [
        parse_config({**settings, "n_ini": v, "output_dir": str(base_out / f"nini_{v}")})
        for v in nini_values
    ]
    mean_columns = {}
    final_bests: dict[int, list[float]] = {}
    for value, sub in zip(nini_values, subs):
        trajectories = []
        for seed in sub["seeds"]:
            run_dir = run_single_seed(sub, seed, resume=False)
            trajectories.append(rundir.read_trajectory(run_dir / "trajectory.csv"))
        stacked = np.vstack(trajectories)
        mean_columns[value] = stacked.mean(axis=0)
        final_bests[value] = [float(t[-1]) for t in trajectories]
    sweep_path = base_out / "sweep_nini.csv"
    rundir.write_csv(
        sweep_path,
        ["generation"] + [f"nini{v}_mean_best_so_far" for v in nini_values],
        (
            [g] + [repr(float(mean_columns[v][g])) for v in nini_values]
            for g in range(settings["budget"])
        ),
    )
    rundir.write_json(
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
    require(
        isinstance(problem, AxisymDragProblem) or not (profile_out or traction_out),
        f"--profile-out and --traction-out need an axisym problem,"
        f" not {settings['problem']}",
    )
    try:
        design = np.array(
            [float(tok) for tok in design_text.replace(" ", "").split(",") if tok],
            dtype=float,
        )
    except ValueError as exc:
        raise ConfigError(f"cannot parse design vector: {exc}") from exc
    require(
        design.shape == (problem.bounds.dimension,),
        f"design needs {problem.bounds.dimension} components, got {design.size}",
    )
    require(problem.bounds.contains(design), "design lies outside the problem bounds")
    report: dict = {
        "problem": settings["problem"],
        "design": design.tolist(),
        "encoded": encode_design(design, problem.bounds).tolist(),
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
            rundir.write_profile(Path(profile_out), profile)
            report["profile_csv"] = profile_out
        if traction_out:
            rundir.write_tractions(Path(traction_out), drag.mesh, drag.q_r, drag.q_z)
            report["traction_csv"] = traction_out
    if out is None:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        rundir.write_json(Path(out), report)
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
