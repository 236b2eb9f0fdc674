"""Config validation, run artifacts, resume, compare, sweep, evaluate, exits."""

import ast
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeopt import cli, rundir
from shapeopt.axisym import MAX_SAMPLES
from shapeopt.cli import (
    EXIT_CONFIG,
    EXIT_EVALUATOR,
    EXIT_OK,
    EXIT_PROPOSER,
    OPTIMIZERS,
    PROBLEMS,
    ConfigError,
    RecordWriter,
    load_records,
    main,
    parse_config,
)
from shapeopt.airfoil import N_CONTROL_POINTS, EvaluatorConfig
from shapeopt.evolution import (
    LARGEST,
    MAX_POPULATION,
    MAX_WORKERS,
    STATUS_FAILED,
    STATUS_OK,
    Bounds,
    EsConfig,
    ScoredRecord,
)
from shapeopt.ga import GaConfig, run_ga
from shapeopt.llm import MAX_RETRIES, LlmConfig, build_prompt
from shapeopt.problems import (
    MAX_DIMENSION,
    AirfoilProblem,
    AxisymDragProblem,
    QuadraticProblem,
)
from shapeopt.stokesbem import MAX_ELEMENTS

ANALYTIC = {
    "problem": "analytic_test",
    "optimizer": "mock",
    "budget": 4,
    "population_size": 3,
    "n_ini": 1,
    "seeds": [0],
    "dimension": 2,
}

AXISYM_TINY = {
    "problem": "axisym_volume",
    "optimizer": "mock",
    "budget": 2,
    "population_size": 2,
    "n_ini": 1,
    "seeds": [0],
    "K": 1,
    "n_samples": 201,
    "n_elements": 8,
}


AIRFOIL = {"problem": "airfoil", "evaluator_command": ["solver"]}
LLM_BLOCK = {"endpoint": "http://x/v1", "model": "m"}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


# ------------------------------------------------------------ config parsing

def test_parse_config_materializes_defaults():
    settings = parse_config({"problem": "analytic_test", "optimizer": "mock"})
    assert settings == {
        "problem": "analytic_test", "optimizer": "mock", "budget": 40,
        "population_size": 8, "n_ini": 2, "seeds": [0], "output_dir": "runs",
        "max_workers": 1, "dimension": 3, "target": None,
    }


@pytest.mark.parametrize(
    "overrides",
    [
        {"problem": "unknown"},
        {"optimizer": "sgd"},
        {"budget": 0},
        {"budget": True},
        {"budget": "4"},
        {"population_size": 0},
        {"n_ini": 0},
        {"max_workers": 0},
        {"seeds": []},
        {"seeds": [1, 1]},
        {"seeds": "0"},
        {"output_dir": ""},
        {**AIRFOIL, "n_F": 0},
        {**AIRFOIL, "n_F": 5},
        {"mystery_key": 1},
        {"dimension": 0},
        {"target": [1.0]},  # wrong length for dimension 3
        {"seeds": [-1]},
        {"optimizer": "ga", "ga": {"mutation_sigma": 0}},
        {"optimizer": "ga", "ga": {"blend_alpha": 0}},
        {"optimizer": "ga", "ga": {"mutation_sigma": "abc"}},
        {"optimizer": "ga", "ga": []},
        {"optimizer": "llm", "llm": {**LLM_BLOCK, "timeout": "abc"}},
        {**AIRFOIL, "reynolds": "abc"},
        {**AIRFOIL, "reynolds": "100"},  # numeric keys take JSON numbers only
        {**AIRFOIL, "n_F": True},
        {**AIRFOIL, "reynolds": True},
        {"optimizer": "llm", "llm": {**LLM_BLOCK, "max_retries": -1}},
        {"optimizer": "llm", "llm": {**LLM_BLOCK, "timeout": 0}},
        {**AIRFOIL, "evaluator_timeout": -1},
        {**AIRFOIL, "evaluator_timeout": 0},
        {"target": [math.nan, 0.1, 0.2]},
        {"target": [0.1, math.inf, 0.2]},
        {"optimizer": "ga", "ga": {"blend_alpha": -math.inf}},
        {"optimizer": "ga", "ga": {"mutation_sigma": math.nan}},
        {"optimizer": "llm", "llm": {**LLM_BLOCK, "timeout": math.inf}},
        {"optimizer": "llm", "llm": {**LLM_BLOCK, "timeout": 1e308}},
        {"optimizer": "llm", "llm": {**LLM_BLOCK, "timeout": 86400.5}},
        {**AIRFOIL, "baseline_ratio": math.nan},
        {**AIRFOIL, "evaluator_timeout": math.inf},
        {**AIRFOIL, "evaluator_timeout": 2.2e6},
        {"dimension": 2, "target": [1e308, -0.0]},
        {"dimension": 2, "target": [0.5, -1e308]},
        {"optimizer": "ga", "ga": {"mutation_sigma": -1e308}},
        {"optimizer": "ga", "ga": {"mutation_sigma": 1e308}},
        {"optimizer": "ga", "ga": {"blend_alpha": 1e308}},
        {**AIRFOIL, "evaluator_command": "solver"},
    ],
)
def test_parse_config_rejects(overrides):
    doc = {"problem": "analytic_test", "optimizer": "mock", **overrides}
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize(
    "overrides",
    [
        {"K": 0},
        {"K": 9},
        {"n_samples": 200},  # even
        {"n_samples": 199},  # too small
        {"n_elements": 4},
        {"n_elements": 500},
    ],
)
def test_parse_config_axisym_limits(overrides):
    doc = {"problem": "axisym_volume", "optimizer": "mock", **overrides}
    with pytest.raises(ConfigError):
        parse_config(doc)


# Each range the CLI refuses is refused by the object that uses the value, so
# a library caller cannot run with a value the CLI would reject.
REQUIRED_ARGS = {
    EsConfig: {"budget": 1},
    EvaluatorConfig: {"command": ["solver"]},
    LlmConfig: LLM_BLOCK,
    QuadraticProblem: {"dimension": 2},
}


@pytest.mark.parametrize(
    "build, name, value",
    [
        (EsConfig, "max_workers", 0),
        (EsConfig, "seed", -1),
        (GaConfig, "blend_alpha", 1e308),
        (GaConfig, "mutation_sigma", 1e308),
        (LlmConfig, "timeout", 86400.5),
        (EvaluatorConfig, "timeout", 2.2e6),
        (QuadraticProblem, "target", [1e308, 0]),
        (AxisymDragProblem, "n_samples", 199),
        (AxisymDragProblem, "n_samples", 200),
        (AxisymDragProblem, "n_elements", 4),
        (AxisymDragProblem, "n_elements", 500),
        (AirfoilProblem, "n_free_points", 5),
        (EsConfig, "population_size", MAX_POPULATION + 1),
        (EsConfig, "population_size", 2**62),
        (EsConfig, "max_workers", MAX_WORKERS + 1),
        (EsConfig, "max_workers", 2**62),
        (EvaluatorConfig, "reynolds", 1e308),
        (EvaluatorConfig, "baseline_ratio", -1e308),
        (AxisymDragProblem, "n_samples", MAX_SAMPLES + 2),
        (LlmConfig, "max_retries", MAX_RETRIES + 1),
        (LlmConfig, "endpoint", "ftp://127.0.0.1/x"),
    ],
)
def test_owners_refuse_out_of_range_values(build, name, value):
    with pytest.raises(ValueError, match=name):
        build(**{**REQUIRED_ARGS.get(build, {}), name: value})


def test_size_bounds_admit_their_limits():
    assert EsConfig(budget=1, population_size=MAX_POPULATION).population_size == 10_000
    assert EsConfig(budget=1, max_workers=MAX_WORKERS).max_workers == 32
    assert QuadraticProblem(dimension=MAX_DIMENSION).bounds.dimension == 1000
    assert AxisymDragProblem(n_samples=MAX_SAMPLES).n_samples == 100_001
    assert LlmConfig(**LLM_BLOCK, max_retries=MAX_RETRIES).max_retries == 20
    for dimension in (0, MAX_DIMENSION + 1, 10**12):
        with pytest.raises(ValueError, match="dimension"):
            QuadraticProblem(dimension=dimension)


# Each would crash or write "score": Infinity after config.json was written.
@pytest.mark.parametrize(
    "doc",
    [
        {**ANALYTIC, "population_size": 2**62},
        {**ANALYTIC, "dimension": 10**12},
        {**AIRFOIL, "optimizer": "mock", "baseline_ratio": -1e308},
        {"problem": "axisym_volume", "optimizer": "mock", "budget": 1,
         "population_size": 1, "n_samples": 2**62 + 1},
        # An endpoint the transport cannot send to, or one that would reach
        # another protocol, and a retry count whose requests grow unbounded.
        # One generation, so a run that slipped through would ask nothing.
        *({**ANALYTIC, "budget": 1, "optimizer": "llm", "llm": llm} for llm in (
            {**LLM_BLOCK, "endpoint": "foo"},
            {**LLM_BLOCK, "endpoint": "ftp://127.0.0.1/x"},
            {**LLM_BLOCK, "endpoint": "file:///etc/passwd"},
            {"endpoint": "http://127.0.0.1:9/v1", "model": "m", "max_retries": 2**62},
        )),
    ],
)
def test_oversized_or_overflowing_values_exit_2_before_writing(tmp_path, capsys, doc):
    config = write_config(tmp_path, doc)
    out = tmp_path / "runs"
    assert run_cli("run", "--config", config, "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_api_key_no_header_can_carry_exits_2_before_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHAPEOPT_API_KEY", "sk-unit\n")
    doc = {**ANALYTIC, "budget": 1, "optimizer": "llm", "llm": LLM_BLOCK}
    out = tmp_path / "runs"
    assert run_cli("run", "--config", write_config(tmp_path, doc), "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: $SHAPEOPT_API_KEY must be printable ASCII without spaces\n"
    assert not out.exists()


def test_parse_config_airfoil_requires_evaluator():
    doc = {"problem": "airfoil", "optimizer": "mock"}
    with pytest.raises(ConfigError, match="evaluator_command"):
        parse_config(doc)
    doc["evaluator_command"] = []
    with pytest.raises(ConfigError):
        parse_config(doc)
    doc["evaluator_command"] = ["solver"]
    settings = parse_config(doc)
    assert settings["n_F"] == 3
    assert settings["reynolds"] == 100.0
    assert settings["evaluator_timeout"] == 300.0
    doc["evaluator_timeout"] = None  # no time limit
    assert parse_config(doc)["evaluator_timeout"] is None


def test_parse_config_llm_block():
    doc = {"problem": "analytic_test", "optimizer": "llm"}
    with pytest.raises(ConfigError):
        parse_config(doc)  # llm block missing
    doc["llm"] = {"endpoint": "http://x/v1"}
    with pytest.raises(ConfigError):
        parse_config(doc)  # model missing
    doc["llm"]["model"] = "m"
    settings = parse_config(doc)
    assert settings["llm"] == {
        "endpoint": "http://x/v1",
        "model": "m",
        "max_retries": 2,
        "timeout": 60.0,
        "api_key_env": "SHAPEOPT_API_KEY",
    }
    doc["llm"]["temperature"] = 0.5
    with pytest.raises(ConfigError, match="unknown llm"):
        parse_config(doc)


def test_parse_config_ga_block():
    doc = {"problem": "analytic_test", "optimizer": "ga", "population_size": 4}
    settings = parse_config(doc)
    assert settings["ga"] == {"blend_alpha": 0.5, "mutation_sigma": None}
    doc["ga"] = {"nonsense": 1}
    with pytest.raises(ConfigError, match="unknown ga"):
        parse_config(doc)


# Settings that are module constants, not config keys, with valid values.
CONSTANT_KEYS = {
    "sigma": 0.2,
    "top_generations": 3,
    "recent_generations": 2,
    "designs_per_generation": 3,
    "free_indices": [0, 1, 2],
    "samples_per_segment": 32,
    "handle_fraction": 0.3,
    "ga.tournament_size": 2,
    "ga.crossover_rate": 0.9,
    "ga.mutation_rate": 0.2,
    "ga.elite_count": 1,
}


@pytest.mark.parametrize("key", CONSTANT_KEYS)
def test_constant_settings_are_unknown_keys(tmp_path, capsys, key):
    block, _, name = key.rpartition(".")
    value = CONSTANT_KEYS[key]
    if block:
        doc = {**ANALYTIC, "optimizer": "ga", "ga": {name: value}}
    else:
        doc = {**AIRFOIL, "optimizer": "mock", name: value}
    out = tmp_path / "runs"
    config = write_config(tmp_path, {**doc, "output_dir": str(out)})
    assert run_cli("run", "--config", config) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"keys: ['{name}']" in err
    assert not out.exists()


# Integers stay small apart from two that overflow: parse_config builds the
# problem, and its arrays grow with "dimension".
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 1000) | st.sampled_from([2**63, 10**400])
    | st.floats() | st.text(max_size=4) | st.sampled_from(PROBLEMS + OPTIMIZERS)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
SECTION_KEYS = {
    "": [
        "budget", "population_size", "n_ini", "seeds", "output_dir", "max_workers",
        "K", "n_samples", "n_elements", "n_F", "evaluator_command", "reynolds",
        "baseline_ratio", "evaluator_timeout", "dimension", "target",
    ],
    "llm": ["endpoint", "model", "max_retries", "timeout", "api_key_env"],
    "ga": ["blend_alpha", "mutation_sigma"],
}


def section_docs(block):
    names = SECTION_KEYS[block] + ["mystery"]
    return st.dictionaries(st.sampled_from(names), JSON_VALUES, max_size=len(names))


@st.composite
def config_docs(draw):
    doc = draw(section_docs(""))
    doc["problem"] = draw(st.sampled_from(PROBLEMS) | JSON_VALUES)
    doc["optimizer"] = draw(st.sampled_from(OPTIMIZERS) | JSON_VALUES)
    for block in ("llm", "ga"):
        if draw(st.booleans()):
            doc[block] = draw(section_docs(block) | JSON_VALUES)
    return doc


@settings(max_examples=400, deadline=None)
@given(doc=config_docs())
def test_parse_config_returns_settings_or_config_error(doc):
    try:
        parsed = parse_config(doc)
    except ConfigError:
        return
    assert parsed["problem"] in PROBLEMS and parsed["optimizer"] in OPTIMIZERS


# Documents that run in milliseconds when valid: each key has a small valid
# value, and up to two keys take a fuzzed one.  Sizes are fuzzed only among
# small values, so a fuzzed budget or population cannot make a run long.
CHEAP_VALID = {
    "optimizer": st.sampled_from(["mock", "ga"]),
    "budget": st.integers(1, 2),
    "population_size": st.integers(1, 3),
    "dimension": st.integers(1, 3),
    "n_ini": st.integers(1, 2),
    "seeds": st.lists(st.integers(0, 5), min_size=1, max_size=2, unique=True),
}
SIZES = ("budget", "population_size", "dimension")
SMALL_JUNK = st.integers(-1, 3) | st.sampled_from([None, True, 1.5, "2", [], {}])


@st.composite
def cheap_run_docs(draw):
    doc = {"problem": "analytic_test"}
    doc.update({name: draw(valid) for name, valid in CHEAP_VALID.items()})
    fuzzed = st.lists(st.sampled_from([*CHEAP_VALID, "target", "ga"]), max_size=2)
    for name in draw(fuzzed):
        doc[name] = draw(SMALL_JUNK if name in SIZES else JSON_VALUES)
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=cheap_run_docs(), blocked=st.booleans())
def test_main_run_exits_0_or_2_without_traceback(doc, blocked):
    with tempfile.TemporaryDirectory() as tmp:
        blocker = Path(tmp) / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        doc["output_dir"] = str((blocker if blocked else Path(tmp)) / "runs")
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config)])
    assert code in (EXIT_OK, EXIT_CONFIG)
    assert code == EXIT_CONFIG or not blocked, "a run wrote through a regular file"
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("config error: ")
        assert err.getvalue().count("\n") == 1


def write_flow_stub(tmp_path):
    """An evaluator command whose every design has lift-to-drag ratio 0.5."""
    stub = tmp_path / "stub.py"
    stub.write_text(
        "import json, sys\n"
        "out = sys.argv[sys.argv.index('--out') + 1]\n"
        "json.dump({'lift': 1.0, 'drag': 2.0, 'ratio': 0.5}, open(out, 'w'))\n"
    )
    return [sys.executable, str(stub)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_runs_at_the_largest_scales_do_not_overflow(tmp_path):
    stub = write_flow_stub(tmp_path)
    big = LARGEST
    docs = [
        {**ANALYTIC, "target": [big, -big]},
        {**ANALYTIC, "optimizer": "ga", "ga": {"blend_alpha": big, "mutation_sigma": big}},
        {
            **AIRFOIL,
            "optimizer": "mock",
            "budget": 2,
            "population_size": 2,
            "n_ini": 1,
            "n_F": 2,
            "reynolds": big,
            "baseline_ratio": -big,
            "evaluator_command": stub,
        },
    ]
    for n, doc in enumerate(docs):
        config = write_config(tmp_path, doc, f"config{n}.json")
        out = tmp_path / f"run{n}"
        assert run_cli("run", "--config", config, "--out", str(out)) == EXIT_OK
        summary = json.loads((out / "seed_0" / "summary.json").read_text())
        assert math.isfinite(summary["best_score"])


def test_parse_config_timeouts_reach_one_day():
    doc = {**AIRFOIL, "optimizer": "llm", "llm": {**LLM_BLOCK, "timeout": 86400}}
    settings = parse_config({**doc, "evaluator_timeout": 86400})
    assert settings["evaluator_timeout"] == settings["llm"]["timeout"] == 86400.0


# Values Python's json reads into numbers that no key can use, or that
# overflow what a key feeds; -0.0 is finite and sits on the zero bounds.
SPECIAL_NUMBERS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -0.0])
NUMERIC_KEYS = ("target", "budget", "dimension")
GA_NUMERIC_KEYS = ("blend_alpha", "mutation_sigma")


@st.composite
def special_number_docs(draw):
    doc = {"problem": "analytic_test"}
    doc.update({name: draw(valid) for name, valid in CHEAP_VALID.items()})
    special = SPECIAL_NUMBERS | st.floats(-1.0, 1.0)
    for name in draw(st.lists(st.sampled_from(NUMERIC_KEYS), min_size=1, max_size=2)):
        if name == "target":
            doc[name] = draw(st.lists(special, min_size=1, max_size=3))
        else:
            doc[name] = draw(SPECIAL_NUMBERS)
    if doc["optimizer"] == "ga":
        keys = st.lists(st.sampled_from(GA_NUMERIC_KEYS), max_size=2, unique=True)
        doc["ga"] = {name: draw(SPECIAL_NUMBERS) for name in draw(keys)}
    return doc


@settings(max_examples=80, deadline=None)
@given(doc=special_number_docs())
def test_main_run_refuses_or_runs_special_numbers(doc):
    with tempfile.TemporaryDirectory() as tmp:
        doc["output_dir"] = str(Path(tmp) / "runs")
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))  # writes NaN and Infinity as json reads them
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config)])
    numbers = [*doc.values(), *doc.get("target", []), *doc.get("ga", {}).values()]
    finite = all(math.isfinite(v) for v in numbers if isinstance(v, float))
    assert code == EXIT_CONFIG or (code == EXIT_OK and finite)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("config error: ")
        assert err.getvalue().count("\n") == 1


# Edge values for every integer and number key, with the odd neighbours of
# the two large powers, which keys that refuse even counts would never meet.
EDGE_VALUES = (-1, 0, 1, 2**31, 2**31 + 1, 2**62, 2**62 + 1, 1e308, -1e308, 5e-324)
EDGES = st.sampled_from(EDGE_VALUES)
# Keys that size what one evaluation allocates, with the largest value
# their owners accept.
SIZE_LIMITS = {
    "K": 8, "n_samples": MAX_SAMPLES, "n_elements": MAX_ELEMENTS, "n_F": N_CONTROL_POINTS,
}


def draw_keys(draw, doc, names):
    """Set up to two of ``names`` to edge values; the rest keep their defaults."""
    for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        value = draw(st.lists(EDGES, min_size=3, max_size=3)) if name == "target" else draw(EDGES)
        if name == "seeds":
            value = [value]
        block, _, key = name.rpartition(".")
        (doc.setdefault(block, {}) if block else doc)[key] = value


def refuse_constant(text):
    raise ValueError(f"non-standard JSON constant {text}")


@st.composite
def analytic_edge_docs(draw):
    # population_size and max_workers stay small: a run at an edge value
    # would allocate that many designs or start that many threads.
    budget = st.sampled_from([1, 2]) | st.sampled_from([v for v in EDGE_VALUES if v <= 2])
    doc = {"problem": "analytic_test", "optimizer": draw(st.sampled_from(["mock", "ga"])),
           "population_size": 2, "budget": draw(budget)}
    draw_keys(draw, doc, ["n_ini", "seeds", "dimension", "target",
                          "ga.blend_alpha", "ga.mutation_sigma"])
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=analytic_edge_docs())
def test_runs_at_edge_values_exit_0_or_2_and_write_strict_json(doc):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runs"
        doc["output_dir"] = str(out)
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config)])
        assert code in (EXIT_OK, EXIT_CONFIG), err.getvalue()
        if code == EXIT_CONFIG:
            assert err.getvalue().startswith("config error: ")
            assert err.getvalue().count("\n") == 1
            assert not out.exists()
            return
        outputs = [*out.rglob("*.json"), *out.rglob("*.jsonl")]
        assert {path.name for path in outputs} >= {"config.json", "summary.json", "records.jsonl"}
        for path in outputs:
            for line in path.read_text().splitlines() if path.suffix == ".jsonl" else [path.read_text()]:
                json.loads(line, parse_constant=refuse_constant)


@st.composite
def parse_only_edge_docs(draw):
    problem = draw(st.sampled_from(["axisym_volume", "axisym_area", "airfoil"]))
    optimizer = draw(st.sampled_from(["mock", "ga", "llm"]))
    doc = {"problem": problem, "optimizer": optimizer, "llm": dict(LLM_BLOCK)}
    if problem == "airfoil":
        doc["evaluator_command"] = ["solver"]
        names = ["n_F", "reynolds", "baseline_ratio", "evaluator_timeout"]
    else:
        names = ["K", "n_samples", "n_elements"]
    draw_keys(draw, doc, ["budget", "n_ini", *names, "llm.max_retries", "llm.timeout",
                          "ga.blend_alpha", "ga.mutation_sigma"])
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=parse_only_edge_docs())
def test_drag_airfoil_and_llm_keys_at_edge_values_parse_or_refuse(doc):
    # Checked without a run: a drag or airfoil run at an edge value that
    # parses would take long, and an llm run needs an endpoint.
    try:
        settings = parse_config(doc)
    except ConfigError:
        return
    json.dumps(settings, allow_nan=False)
    for name, limit in SIZE_LIMITS.items():
        assert settings.get(name, 0) <= limit, name


@settings(max_examples=100, deadline=None)
@given(population=EDGES, workers=EDGES)
def test_es_config_at_edge_values_builds_or_refuses(population, workers):
    try:
        config = EsConfig(budget=1, population_size=population, max_workers=workers)
    except ValueError:
        return
    assert 1 <= config.population_size <= MAX_POPULATION and config.max_workers >= 1


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        cli.load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        cli.load_config(bad)


# -------------------------------------------------------------- run artifacts

def test_run_writes_expected_artifacts(tmp_path, capsys):
    config = write_config(tmp_path, {**ANALYTIC, "seeds": [0, 1]})
    out = tmp_path / "runs"
    assert run_cli("run", "--config", config, "--out", str(out)) == EXIT_OK
    stdout = capsys.readouterr().out
    assert f"seed 0: {out / 'seed_0'}" in stdout
    for seed in (0, 1):
        run_dir = out / f"seed_{seed}"
        records = (run_dir / "records.jsonl").read_text().splitlines()
        assert len(records) == 4 * 3
        entries = [json.loads(line) for line in records]
        assert [e["timestamp"] for e in entries] == list(range(12))
        assert all(
            set(e) == {"generation", "design", "encoded", "score", "status", "timestamp"}
            for e in entries
        )
        trajectory = (run_dir / "trajectory.csv").read_text().splitlines()
        assert trajectory[0] == "generation,best_score_in_generation,best_score_so_far"
        assert len(trajectory) == 1 + 4
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["n_records"] == 12
        assert summary["best_score"] == max(e["score"] for e in entries)
        snapshot = json.loads((run_dir / "config.json").read_text())
        assert snapshot["seeds"] == [seed]


LLM_SNAPSHOT = """{
  "problem": "analytic_test",
  "optimizer": "llm",
  "budget": 2,
  "population_size": 3,
  "n_ini": 2,
  "seeds": [
    SEED
  ],
  "output_dir": OUT,
  "max_workers": 1,
  "dimension": 2,
  "target": [
    0.1,
    -0.2
  ],
  "llm": {
    "endpoint": "http://x/v1",
    "model": "m",
    "max_retries": 2,
    "timeout": 5.0,
    "api_key_env": "SHAPEOPT_API_KEY"
  }
}
"""

GA_SNAPSHOT = """{
  "problem": "analytic_test",
  "optimizer": "ga",
  "budget": 2,
  "population_size": 3,
  "n_ini": 1,
  "seeds": [
    SEED
  ],
  "output_dir": OUT,
  "max_workers": 1,
  "dimension": 2,
  "target": null,
  "ga": {
    "blend_alpha": 0.5,
    "mutation_sigma": 1.0
  }
}
"""


def test_config_json_bytes(tmp_path):
    # Key order is table order; numbers read as floats; every default is
    # written; seeds narrow to the run's own; --out replaces output_dir.
    # With n_ini equal to the budget the llm run never calls its endpoint.
    llm_out = str(tmp_path / "llm")
    llm = {
        **ANALYTIC, "optimizer": "llm", "budget": 2, "n_ini": 2,
        "target": [0.1, -0.2], "seeds": [5, 1], "output_dir": llm_out,
        "llm": {**LLM_BLOCK, "timeout": 5},
    }
    assert run_cli("run", "--config", write_config(tmp_path, llm, "llm.json")) == EXIT_OK
    ga_out = str(tmp_path / "ga")
    ga = {**ANALYTIC, "optimizer": "ga", "budget": 2, "seeds": [4],
          "ga": {"mutation_sigma": 1}}
    config = write_config(tmp_path, ga, "ga.json")
    assert run_cli("run", "--config", config, "--out", ga_out) == EXIT_OK
    for template, out, seed in (
        (LLM_SNAPSHOT, llm_out, 5), (LLM_SNAPSHOT, llm_out, 1), (GA_SNAPSHOT, ga_out, 4)
    ):
        expected = template.replace("SEED", str(seed)).replace("OUT", json.dumps(out))
        assert (Path(out) / f"seed_{seed}" / "config.json").read_text() == expected


def test_run_is_bit_deterministic(tmp_path):
    config = write_config(tmp_path, ANALYTIC)
    run_cli("run", "--config", config, "--out", str(tmp_path / "a"))
    run_cli("run", "--config", config, "--out", str(tmp_path / "b"))
    a = (tmp_path / "a" / "seed_0" / "records.jsonl").read_bytes()
    b = (tmp_path / "b" / "seed_0" / "records.jsonl").read_bytes()
    assert a == b


def test_run_refuses_overwrite_without_resume(tmp_path, capsys):
    config = write_config(tmp_path, ANALYTIC)
    out = str(tmp_path / "runs")
    assert run_cli("run", "--config", config, "--out", out) == EXIT_OK
    assert run_cli("run", "--config", config, "--out", out) == EXIT_CONFIG
    assert "--resume" in capsys.readouterr().err


def test_a_run_directory_takes_one_process_at_a_time(
    tmp_path, capsys, local_endpoint, chat_handler
):
    doc = {**ANALYTIC, "optimizer": "llm", "llm": {"endpoint": local_endpoint, "model": "m"}}
    config = write_config(tmp_path, doc)
    assert run_cli("run", "--config", config, "--out", str(tmp_path / "solo")) == EXIT_OK
    solo = (tmp_path / "solo" / "seed_0" / "records.jsonl").read_bytes()
    out = tmp_path / "runs"
    run_dir = out / "seed_0"
    argv = [sys.executable, "-m", "shapeopt.cli", "run", "--config", config, "--out", str(out)]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}

    def start_holder():
        """A run in another process, stalled on its first question to the model."""
        asked = len(chat_handler.seen)
        holder = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 60
        while len(chat_handler.seen) == asked and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(chat_handler.seen) > asked
        return holder

    # The holder waits 1 s for its reply: time enough for two refusals.
    chat_handler.stall = 1.0
    holder = start_holder()
    before = {path.name: path.read_bytes() for path in run_dir.iterdir()}
    for resume in ([], ["--resume"]):
        capsys.readouterr()
        assert run_cli("run", "--config", config, "--out", str(out), *resume) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(run_dir) in err
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before
    chat_handler.stall = 0.0
    assert holder.wait(timeout=60) == EXIT_OK
    assert (run_dir / "records.jsonl").read_bytes() == solo

    # A killed holder leaves no lock behind.
    shutil.rmtree(out)
    chat_handler.stall = 1.0
    holder = start_holder()
    holder.kill()
    holder.wait(timeout=60)
    chat_handler.stall = 0.0
    assert run_cli("run", "--config", config, "--out", str(out), "--resume") == EXIT_OK
    assert (run_dir / "records.jsonl").read_bytes() == solo


def test_resume_after_truncation_matches_full_run(tmp_path):
    config = write_config(tmp_path, ANALYTIC)
    run_cli("run", "--config", config, "--out", str(tmp_path / "full"))
    reference = (tmp_path / "full" / "seed_0" / "records.jsonl").read_bytes()

    run_cli("run", "--config", config, "--out", str(tmp_path / "partial"))
    records = tmp_path / "partial" / "seed_0" / "records.jsonl"
    lines = records.read_text().splitlines()
    # keep two complete generations plus one dangling record
    records.write_text("\n".join(lines[:7]) + "\n")
    assert (
        run_cli("run", "--config", config, "--out", str(tmp_path / "partial"), "--resume")
        == EXIT_OK
    )
    assert records.read_bytes() == reference


def test_resume_with_complete_file_keeps_bytes(tmp_path):
    config = write_config(tmp_path, ANALYTIC)
    out = str(tmp_path / "runs")
    run_cli("run", "--config", config, "--out", out)
    records = tmp_path / "runs" / "seed_0" / "records.jsonl"
    before = records.read_bytes()
    assert run_cli("run", "--config", config, "--out", out, "--resume") == EXIT_OK
    assert records.read_bytes() == before


def test_snapshot_replays_bit_exactly(tmp_path):
    config = write_config(tmp_path, {**ANALYTIC, "seeds": [3]})
    run_cli("run", "--config", config, "--out", str(tmp_path / "first"))
    first = tmp_path / "first" / "seed_3"
    replay_config = str(first / "config.json")
    run_cli("run", "--config", replay_config, "--out", str(tmp_path / "second"))
    assert (tmp_path / "second" / "seed_3" / "records.jsonl").read_bytes() == (
        first / "records.jsonl"
    ).read_bytes()


def test_ga_run_budget_counts_generations(tmp_path):
    doc = {**ANALYTIC, "optimizer": "ga", "budget": 5}
    config = write_config(tmp_path, doc)
    run_cli("run", "--config", config, "--out", str(tmp_path / "ga"))
    records = (tmp_path / "ga" / "seed_0" / "records.jsonl").read_text().splitlines()
    assert len(records) == 5 * 3
    generations = {json.loads(line)["generation"] for line in records}
    assert generations == set(range(5))


def test_ga_run_resume_matches(tmp_path):
    doc = {**ANALYTIC, "optimizer": "ga", "budget": 6}
    config = write_config(tmp_path, doc)
    run_cli("run", "--config", config, "--out", str(tmp_path / "full"))
    reference = (tmp_path / "full" / "seed_0" / "records.jsonl").read_bytes()
    run_cli("run", "--config", config, "--out", str(tmp_path / "cut"))
    records = tmp_path / "cut" / "seed_0" / "records.jsonl"
    records.write_text("\n".join(records.read_text().splitlines()[:10]) + "\n")
    run_cli("run", "--config", config, "--out", str(tmp_path / "cut"), "--resume")
    assert records.read_bytes() == reference


def test_bad_config_value_exits_2_before_writing(tmp_path, capsys):
    doc = {**ANALYTIC, "optimizer": "ga", "ga": {"mutation_sigma": -1.0}}
    config = write_config(tmp_path, doc)
    out = tmp_path / "runs"
    assert run_cli("run", "--config", config, "--out", str(out)) == EXIT_CONFIG
    assert "mutation_sigma" in capsys.readouterr().err
    assert not (out / "seed_0").exists()


def test_resume_after_torn_write_matches_full_run(tmp_path):
    config = write_config(tmp_path, ANALYTIC)
    run_cli("run", "--config", config, "--out", str(tmp_path / "full"))
    reference = (tmp_path / "full" / "seed_0" / "records.jsonl").read_bytes()

    run_cli("run", "--config", config, "--out", str(tmp_path / "torn"))
    records = tmp_path / "torn" / "seed_0" / "records.jsonl"
    lines = reference.split(b"\n")
    # two complete generations, then a kill halfway through the next line
    records.write_bytes(b"\n".join(lines[:6]) + b"\n" + lines[6][: len(lines[6]) // 2])
    assert (
        run_cli("run", "--config", config, "--out", str(tmp_path / "torn"), "--resume")
        == EXIT_OK
    )
    assert records.read_bytes() == reference


def test_resume_with_wrong_dimension_exits_2_and_keeps_bytes(tmp_path, capsys):
    config = write_config(tmp_path, {**ANALYTIC, "dimension": 3})
    out = str(tmp_path / "run")
    assert run_cli("run", "--config", config, "--out", out) == EXIT_OK
    run_dir = tmp_path / "run" / "seed_0"
    records = run_dir / "records.jsonl"
    cut = []
    for line in records.read_text().splitlines():
        entry = json.loads(line)
        entry["design"] = entry["design"][:2]
        cut.append(json.dumps(entry) + "\n")
    records.write_text("".join(cut))
    before = records.read_bytes()
    (run_dir / "config.json").unlink()
    assert run_cli("run", "--config", config, "--out", out, "--resume") == EXIT_CONFIG
    assert "design must be a list of 3 numbers" in capsys.readouterr().err
    assert records.read_bytes() == before
    assert not (run_dir / "config.json").exists()


def test_resume_with_different_config_exits_2_and_keeps_bytes(tmp_path, capsys):
    config = write_config(tmp_path, ANALYTIC)
    out = str(tmp_path / "run")
    assert run_cli("run", "--config", config, "--out", out) == EXIT_OK
    run_dir = tmp_path / "run" / "seed_0"
    before = {name: (run_dir / name).read_bytes() for name in ("records.jsonl", "config.json")}
    changed = write_config(tmp_path, {**ANALYTIC, "n_ini": 2, "budget": 6}, "changed.json")
    assert run_cli("run", "--config", changed, "--out", out, "--resume") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "differs from" in err and " in n_ini;" in err  # budget may change
    assert {name: (run_dir / name).read_bytes() for name in before} == before

    (run_dir / "config.json").unlink()
    assert run_cli("run", "--config", config, "--out", out, "--resume") == EXIT_CONFIG
    assert "config.json" in capsys.readouterr().err
    assert (run_dir / "records.jsonl").read_bytes() == before["records.jsonl"]
    assert not (run_dir / "config.json").exists()


def test_failed_config_write_keeps_the_old_file(tmp_path, monkeypatch):
    config = write_config(tmp_path, ANALYTIC)
    out = str(tmp_path / "run")
    assert run_cli("run", "--config", config, "--out", out) == EXIT_OK
    run_dir = tmp_path / "run" / "seed_0"
    before = {path.name: path.read_bytes() for path in run_dir.iterdir()}

    def torn_dump(obj, handle, **kwargs):
        handle.write(json.dumps(obj, **kwargs)[:20])
        raise OSError("disk full")

    monkeypatch.setattr(rundir.json, "dump", torn_dump)
    with pytest.raises(OSError, match="disk full"):
        run_cli("run", "--config", config, "--out", out, "--resume")
    # the old config.json is whole, and no temp file is left beside it
    assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before


def blocked_path(tmp_path, *parts):
    """A path that passes through a regular file, so no directory can hold it."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return str(blocker.joinpath(*parts))


def test_unusable_output_dir_exits_2(tmp_path, capsys):
    out = blocked_path(tmp_path, "runs")
    config = write_config(tmp_path, {**ANALYTIC, "output_dir": out})
    assert run_cli("run", "--config", config) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and out in err


def test_compare_to_unusable_path_exits_2(tmp_path, capsys):
    run = make_run(tmp_path, "method_a", [0])
    out = blocked_path(tmp_path, "x.csv")
    assert run_cli("compare", "--runs", str(run), "--out", out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and out in err


def test_evaluate_to_unusable_path_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, ANALYTIC)
    out = blocked_path(tmp_path, "r.json")
    code = run_cli("evaluate", "--config", config, "--design", "0.3,0.3", "--out", out)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and out in err


def test_failed_compare_write_keeps_the_old_file(tmp_path, monkeypatch):
    run = make_run(tmp_path, "method_a", [0])
    out = tmp_path / "report" / "comparison.csv"
    assert run_cli("compare", "--runs", str(run), "--out", str(out)) == EXIT_OK
    before = out.read_bytes()

    class TornWriter:
        def __init__(self, handle):
            self.handle = handle

        def writerow(self, row):
            self.handle.write(",".join(map(str, row))[:7])
            raise OSError("disk full")

    monkeypatch.setattr(rundir.csv, "writer", TornWriter)
    with pytest.raises(OSError, match="disk full"):
        run_cli("compare", "--runs", str(run), "--out", str(out))
    # the old CSV is whole, and no temp file is left beside it
    assert [p.name for p in out.parent.iterdir()] == ["comparison.csv"]
    assert out.read_bytes() == before


def test_resume_may_extend_the_budget(tmp_path):
    longer = write_config(tmp_path, {**ANALYTIC, "budget": 6}, "longer.json")
    run_cli("run", "--config", longer, "--out", str(tmp_path / "full"))
    reference = tmp_path / "full" / "seed_0"

    config = write_config(tmp_path, ANALYTIC)
    out = str(tmp_path / "extended")
    run_cli("run", "--config", config, "--out", out)
    assert run_cli("run", "--config", longer, "--out", out, "--resume") == EXIT_OK
    run_dir = tmp_path / "extended" / "seed_0"
    assert (run_dir / "records.jsonl").read_bytes() == (reference / "records.jsonl").read_bytes()
    assert json.loads((run_dir / "config.json").read_text())["budget"] == 6


def run_python(script):
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_run_without_llm_does_not_import_requests(tmp_path):
    config = write_config(tmp_path, {**ANALYTIC, "output_dir": str(tmp_path / "run")})
    run_python(f"""
import sys
from shapeopt.cli import main
assert main(["run", "--config", {config!r}]) == 0
loaded = [name for name in ("requests", "urllib.request", "http.client", "ssl")
          if name in sys.modules]
assert not loaded, f"a mock run imported {{loaded}}"
""")
    assert (tmp_path / "run" / "seed_0" / "records.jsonl").exists()


def test_evaluate_on_an_llm_config_neither_builds_the_chat_client_nor_reads_the_key(
    tmp_path, monkeypatch
):
    # Scoring one design never asks the model, so a key that a run refuses
    # does not stop it either.
    monkeypatch.setenv("SHAPEOPT_API_KEY", "sk-unit\n")
    config = write_config(tmp_path, {**ANALYTIC, "optimizer": "llm", "llm": LLM_BLOCK})
    run_python(f"""
import sys
from shapeopt.cli import main
assert main(["evaluate", "--config", {config!r}, "--design=0.1,0.2"]) == 0
loaded = [name for name in ("urllib.request", "ssl") if name in sys.modules]
assert not loaded, f"evaluate imported {{loaded}}"
""")


SCIPY_MODULES = """
import sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
"""


def test_runs_without_a_drag_problem_do_not_import_scipy(tmp_path):
    doc = {**ANALYTIC, "budget": 3, "output_dir": str(tmp_path / "run")}
    config = write_config(tmp_path, doc)
    airfoil = {**AIRFOIL, "optimizer": "mock"}
    run_python(SCIPY_MODULES + f"""
from shapeopt.cli import main, parse_config
assert not scipy_modules(), scipy_modules()
assert main(["run", "--config", {config!r}]) == 0
assert not scipy_modules(), scipy_modules()
parse_config({airfoil!r})
assert not scipy_modules(), scipy_modules()
""")
    assert (tmp_path / "run" / "seed_0" / "records.jsonl").exists()


def test_drag_runs_do_not_import_scipy(tmp_path):
    # The solver computes its elliptic integrals itself, so neither
    # building a drag problem, nor a run, nor scoring one design loads scipy.
    doc = {**AXISYM_TINY, "budget": 3, "n_elements": 24, "output_dir": str(tmp_path / "run")}
    config = write_config(tmp_path, doc)
    exports = [str(tmp_path / name) for name in ("report.json", "profile.csv", "tractions.csv")]
    run_python(SCIPY_MODULES + f"""
from shapeopt.cli import cmd_evaluate, main, parse_config
parse_config({doc!r})
assert not scipy_modules(), scipy_modules()
assert main(["run", "--config", {config!r}]) == 0
assert cmd_evaluate({config!r}, "-1.5708", *{exports!r}) == 0
assert not scipy_modules(), scipy_modules()
""")
    assert (tmp_path / "run" / "seed_0" / "records.jsonl").exists()
    assert json.loads((tmp_path / "report.json").read_text())["status"] == "ok"
    assert (tmp_path / "tractions.csv").exists()


def imported_roots(tree):
    """Top-level package of every import in a module, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_of_the_package_imports_scipy_or_requests():
    package = Path(cli.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        roots = set(imported_roots(ast.parse(path.read_text())))
        assert not roots & {"scipy", "requests"}, path.name


# A meta-path finder that fails every scipy and requests import, as on an
# install of the runtime dependencies only.
REFUSE_TEST_ONLY = """
import sys
class RefuseTestOnly:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "requests"):
            raise ModuleNotFoundError(f"no module named {name!r}", name=name)
sys.meta_path.insert(0, RefuseTestOnly())
"""


def test_runs_evaluations_and_meshes_need_no_scipy_or_requests(tmp_path, local_endpoint):
    stub = write_flow_stub(tmp_path)
    docs = {
        "analytic": ({**ANALYTIC, "budget": 2}, "0.1,0.2"),
        "drag": ({**AXISYM_TINY, "n_elements": 24}, "-1.5708"),
        "airfoil": ({**AIRFOIL, "optimizer": "mock", "budget": 2, "population_size": 2,
                     "n_ini": 1, "n_F": 2, "evaluator_command": stub}, "0,0,0,0,0,0"),
        "llm": ({**ANALYTIC, "optimizer": "llm", "budget": 3,
                 "llm": {"endpoint": local_endpoint, "model": "m"}}, "0.1,0.2"),
    }
    calls = []
    for name, (doc, design) in docs.items():
        config = write_config(tmp_path, {**doc, "output_dir": str(tmp_path / name)}, f"{name}.json")
        calls.append(["run", "--config", config])
        calls.append(["evaluate", "--config", config, f"--design={design}"])
    run_python(REFUSE_TEST_ONLY + f"""
import numpy as np
from shapeopt.cli import main
from shapeopt.stokesbem import mesh_from_meridian, solve_drag
for argv in {calls!r}:
    assert main(argv) == 0, argv
theta = np.linspace(0.0, np.pi, 101)
assert solve_drag(mesh_from_meridian(np.sin(theta), -np.cos(theta), theta, 24)).drag > 0
loaded = [name for name in sys.modules if name.split(".")[0] in ("scipy", "requests")]
assert not loaded, loaded
""")
    for name in docs:
        assert (tmp_path / name / "seed_0" / "summary.json").exists()
    audit = (tmp_path / "llm" / "seed_0" / "llm_audit.jsonl").read_text().splitlines()
    assert [json.loads(line)["parsed"] for line in audit] == [[42, 24], [42, 24]]


def test_killed_runs_resume_to_the_uninterrupted_bytes(tmp_path):
    # The small axisym campaign of the acceptance resume test, with a budget
    # that keeps the loop busy for about a second.
    doc = {**AXISYM_TINY, "budget": 160, "population_size": 3}
    config = write_config(tmp_path, doc)
    # Every run uses one output directory, which config.json names.
    out = tmp_path / "runs"
    records = out / "seed_0" / "records.jsonl"
    argv = [sys.executable, "-m", "shapeopt.cli", "run", "--config", config,
            "--out", str(out)]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}

    def finish(*extra):
        done = subprocess.run(
            argv + list(extra), env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        return {name: (out / "seed_0" / name).read_bytes()
                for name in ("records.jsonl", "config.json")}

    reference = finish()
    # Delays count from the first record, so that they fall in the loop
    # however long start-up takes; a late one may land after the run ends.
    for delay in np.random.default_rng(2).uniform(0.0, 1.2, 5):
        shutil.rmtree(out)
        victim = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        deadline = time.monotonic() + 60
        while not records.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(delay)
        victim.kill()
        victim.wait(timeout=60)
        assert finish("--resume") == reference, f"kill at {delay:.2f} s"


def test_ga_cli_matches_library_loop(tmp_path):
    budget = 5
    ga = {"blend_alpha": 0.25, "mutation_sigma": 0.05}
    doc = {**ANALYTIC, "optimizer": "ga", "budget": budget, "seeds": [4], "ga": ga}
    config = write_config(tmp_path, doc)
    run_cli("run", "--config", config, "--out", str(tmp_path / "cli"))

    problem = QuadraticProblem(dimension=2)
    library = tmp_path / "library.jsonl"
    config = EsConfig(budget=budget, population_size=3, seed=4)
    writer = RecordWriter(library, problem.bounds)
    run_ga(problem, GaConfig(**ga), config, on_generation=writer)
    assert (tmp_path / "cli" / "seed_4" / "records.jsonl").read_bytes() == (
        library.read_bytes()
    )


def test_best_design_is_solved_once_after_the_loop(tmp_path, monkeypatch):
    calls = []
    solve = AxisymDragProblem.evaluate_detail
    loop = cli.run_optimization

    def count_after_loop(*args, **kwargs):
        result = loop(*args, **kwargs)

        def counted(problem, x):
            calls.append(x)
            return solve(problem, x)

        monkeypatch.setattr(AxisymDragProblem, "evaluate_detail", counted)
        return result

    monkeypatch.setattr(cli, "run_optimization", count_after_loop)
    config = write_config(tmp_path, {**AXISYM_TINY, "n_elements": 16})
    assert run_cli("run", "--config", config, "--out", str(tmp_path / "ax")) == EXIT_OK
    run_dir = tmp_path / "ax" / "seed_0"
    assert (run_dir / "best_profile.csv").exists()
    assert "best_normalized_drag" in json.loads((run_dir / "summary.json").read_text())
    assert len(calls) == 1


# ------------------------------------------------------------------ records io

def test_load_records_drops_partial_tail(tmp_path):
    path = tmp_path / "records.jsonl"
    rows = [
        {"generation": g, "design": [0.0], "encoded": [500],
         "score": float(g * 2 + i), "status": "ok", "timestamp": g * 2 + i}
        for g in range(2)
        for i in range(2)
    ]
    rows.append({"generation": 2, "design": [0.0], "encoded": [500],
                 "score": 9.0, "status": "ok", "timestamp": 4})
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    buffer = load_records(path, population_size=2, dimension=1)
    assert (buffer.n_generations, len(buffer)) == (2, 4)
    assert len(path.read_text().splitlines()) == 4


def test_failed_records_rewrite_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    good = {"generation": 0, "design": [0.0], "encoded": [500],
            "score": 1.0, "status": "ok", "timestamp": 0}
    path.write_text(json.dumps(good) + "\n" + json.dumps(good)[:20])
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(rundir.os, "replace", refuse)
    with pytest.raises(OSError, match="killed"):
        load_records(path, population_size=1, dimension=1)
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]
    assert path.read_bytes() == before


def test_load_records_rejects_corruption(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text("{broken\n")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_records(path, 2, 1)
    good = {"generation": 0, "design": [0.0], "encoded": [500],
            "score": 1.0, "status": "ok", "timestamp": 0}
    path.write_text(
        json.dumps(good) + "\n" + json.dumps({**good, "generation": 2}) + "\n"
    )
    with pytest.raises(ConfigError, match="out of order"):
        load_records(path, 1, 1)
    path.write_text(
        json.dumps(good) + "\n" + json.dumps({**good, "generation": 1}) + "\n"
        + json.dumps({**good, "generation": 1}) + "\n"
    )
    with pytest.raises(ConfigError, match="interior generation"):
        load_records(path, 2, 1)
    for line in (
        "[1, 2]",
        json.dumps({k: v for k, v in good.items() if k != "design"}),
        json.dumps({**good, "status": "weird"}),
        json.dumps({**good, "score": "abc"}),
        json.dumps({**good, "score": None}),
        json.dumps({**good, "design": "ab"}),
        json.dumps({**good, "score": 10**400}),
        json.dumps({**good, "score": math.inf}),  # written as Infinity
        json.dumps({**good, "score": math.nan}),
    ):
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_records(path, 1, 1)


def test_load_records_refuses_what_json_only_looks_like(tmp_path):
    path = tmp_path / "records.jsonl"
    good = {"generation": 0, "design": [0.0, 1], "encoded": [500, 1000],
            "score": 1, "status": "ok", "timestamp": 0}
    path.write_text(json.dumps(good) + "\n")
    assert load_records(path, 1, dimension=2).best_record().score == 1.0
    for change, message in (
        ({"generation": True}, "lacks a generation index"),
        ({"generation": 0.0}, "lacks a generation index"),
        ({"generation": -1}, "lacks a generation index"),
        ({"design": [True, 0.0]}, "design must be a list of 2 numbers"),
        ({"design": [0.0, None]}, "design must be a list of 2 numbers"),
        ({"design": [0.0, [1.0]]}, "design must be a list of 2 numbers"),
        ({"design": {"0": 0.0}}, "design must be a list of 2 numbers"),
        ({"design": [0.0]}, "design must be a list of 2 numbers"),
        ({"score": False}, "score must be a number"),
        ({"score": [1.0]}, "score must be a number"),
        ({"score": -math.inf}, "score must be finite"),
    ):
        path.write_text(json.dumps({**good, **change}) + "\n")
        with pytest.raises(ConfigError, match=f"line 1:? {message}"):
            load_records(path, 1, dimension=2)


def parent_encode(design, bounds):
    """One design's grid values by the formula records have always used."""
    x = np.asarray(design, dtype=float)
    scaled = (np.clip(x, bounds.lower, bounds.upper) - bounds.lower) / (
        bounds.upper - bounds.lower
    )
    return np.clip(np.floor(scaled * 1000 + 0.5).astype(int), 0, 1000)


def contract_records(bounds, generation):
    """Designs at box edges, round-off past them, half-steps, -0.0 and 1e-300."""
    lo, hi = bounds.lower, bounds.upper
    half = lo + (np.array([0, 499, 999]) + 0.5) * (hi - lo) / 1000
    designs = [lo, hi, lo - 5e-10, hi + 5e-10, half, np.full(3, -0.0),
               np.array([1e-300, -1e-300, 0.0]), 0.5 * (lo + hi)]
    scores = [-0.0, 1e-300, 0.1234567, -1e300, 2.5, 0.0, 1e-7, 123456789.0]
    status = [STATUS_OK, STATUS_FAILED] * 4
    return [ScoredRecord(d, s, generation, t) for d, s, t in zip(designs, scores, status)]


def test_prompt_and_record_lines_keep_their_bytes(tmp_path):
    # half-steps of the first two components are exact in float64
    bounds = Bounds(np.array([-500.0, 0.0, -1.0]), np.array([500.0, 1.0, 1.0]))
    first, second = contract_records(bounds, 0), contract_records(bounds, 1)
    lines = [
        "values: [{}], score: {:.6g}".format(
            ", ".join(str(int(v)) for v in parent_encode(r.design, bounds)), r.score
        )
        for r in first
    ]
    text = build_prompt(first, bounds, "obj").text
    assert "better):\n" + "\n".join(lines) + "\n\nPropose" in text

    path = tmp_path / "records.jsonl"
    writer = RecordWriter(path, bounds, start_index=5)
    writer(first)
    writer(second)
    expected = "".join(
        json.dumps(
            {
                "generation": r.generation,
                "design": [float(v) for v in r.design],
                "encoded": [int(v) for v in parent_encode(r.design, bounds)],
                "score": float(r.score),
                "status": r.status,
                "timestamp": 5 + i,
            },
            allow_nan=False,
        )
        + "\n"
        for i, r in enumerate(first + second)
    )
    assert path.read_text(encoding="utf-8") == expected
    assert '"design": [-0.0, -0.0, -0.0]' in expected and "1e-300" in expected


# --------------------------------------------------------------------- compare

def make_run(tmp_path, name, seeds, budget=4):
    doc = {**ANALYTIC, "seeds": seeds, "budget": budget}
    config = write_config(tmp_path, doc, name=f"{name}.json")
    out = tmp_path / name
    run_cli("run", "--config", config, "--out", str(out))
    return out


def test_compare_groups_by_directory(tmp_path, capsys):
    a = make_run(tmp_path, "method_a", [0, 1])
    b = make_run(tmp_path, "method_b", [2])
    out = tmp_path / "comparison.csv"
    assert run_cli("compare", "--runs", str(a), str(b), "--out", str(out)) == EXIT_OK
    rows = out.read_text().splitlines()
    header = rows[0].split(",")
    assert header == [
        "generation",
        "method_a_mean", "method_a_min", "method_a_max",
        "method_b_mean", "method_b_min", "method_b_max",
    ]
    assert len(rows) == 1 + 4
    # single-seed group has zero spread
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[4] == cells[5] == cells[6]
        assert float(cells[2]) <= float(cells[1]) <= float(cells[3])


def test_compare_accepts_single_seed_directory(tmp_path):
    a = make_run(tmp_path, "direct", [0])
    out = tmp_path / "one.csv"
    assert run_cli("compare", "--runs", str(a / "seed_0"), "--out", str(out)) == EXIT_OK
    assert out.read_text().splitlines()[0].startswith("generation,seed_0_mean")


def test_compare_truncates_mismatched_budgets(tmp_path, capsys):
    a = make_run(tmp_path, "long", [0], budget=6)
    b = make_run(tmp_path, "short", [1], budget=3)
    out = tmp_path / "mixed.csv"
    assert run_cli("compare", "--runs", str(a), str(b), "--out", str(out)) == EXIT_OK
    assert "truncating to 3" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 1 + 3


def test_compare_refuses_runs_with_the_same_name(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = make_run(tmp_path / "a", "run", [0])
    b = make_run(tmp_path / "b", "run", [1])
    out = tmp_path / "x.csv"
    assert run_cli("compare", "--runs", str(a), str(b), "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'run'" in err
    assert not out.exists()


def test_compare_labels_dot_by_the_directory_name(tmp_path, monkeypatch, capsys):
    run = make_run(tmp_path, "ga_an", [0])
    monkeypatch.chdir(run / "seed_0")
    assert run_cli("compare", "--runs", ".", "--out", "x.csv") == EXIT_OK
    assert (run / "seed_0" / "x.csv").read_text().startswith("generation,seed_0_mean,")
    # "." and "../ga_an" name the same run, which compare refuses
    monkeypatch.chdir(run)
    out = tmp_path / "y.csv"
    code = run_cli("compare", "--runs", ".", "../ga_an", "--out", str(out))
    assert code == EXIT_CONFIG
    assert "'ga_an'" in capsys.readouterr().err
    assert not out.exists()


def test_compare_missing_directory(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run_cli("compare", "--runs", str(tmp_path / "nope"), "--out", str(out))
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "table",
    [
        "generation,best_score_in_generation,best_score_so_far\n0,-1.0,abc\n",
        "generation,best_score_in_generation\n0,-1.0\n",
        "generation,best_score_in_generation,best_score_so_far\n0,-1.0\n",
    ],
    ids=["non_numeric_cell", "missing_column", "short_row"],
)
def test_compare_malformed_trajectory_exits_2(tmp_path, capsys, table):
    trajectory = tmp_path / "seed_0" / "trajectory.csv"
    trajectory.parent.mkdir()
    trajectory.write_text(table)
    out = tmp_path / "x.csv"
    code = run_cli("compare", "--runs", str(tmp_path / "seed_0"), "--out", str(out))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(trajectory) in err
    assert not out.exists()


# ------------------------------------------------------------------ sweep-nini

def test_sweep_nini_runs_axisym(tmp_path):
    config = write_config(tmp_path, AXISYM_TINY)
    out = tmp_path / "sweep"
    assert run_cli("sweep-nini", "--config", config, "--nini", "1", "2",
                   "--out", str(out)) == EXIT_OK
    table = (out / "sweep_nini.csv").read_text().splitlines()
    assert table[0] == "generation,nini1_mean_best_so_far,nini2_mean_best_so_far"
    assert len(table) == 1 + AXISYM_TINY["budget"]
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert set(summary) == {"1", "2"}
    assert all("mean_final_best" in v and "final_bests" in v for v in summary.values())
    assert (out / "nini_1" / "seed_0" / "records.jsonl").exists()
    assert (out / "nini_2" / "seed_0" / "records.jsonl").exists()


def test_sweep_nini_rejects_wrong_problem_or_optimizer(tmp_path, capsys):
    config = write_config(tmp_path, ANALYTIC)
    assert run_cli("sweep-nini", "--config", config, "--nini", "1",
                   "--out", str(tmp_path / "s")) == EXIT_CONFIG
    config = write_config(tmp_path, {**AXISYM_TINY, "optimizer": "ga"}, "ga.json")
    assert run_cli("sweep-nini", "--config", config, "--nini", "1",
                   "--out", str(tmp_path / "s2")) == EXIT_CONFIG
    config = write_config(tmp_path, AXISYM_TINY, "dup.json")
    assert run_cli("sweep-nini", "--config", config, "--nini", "2", "2",
                   "--out", str(tmp_path / "s3")) == EXIT_CONFIG


def test_sweep_nini_bad_value_exits_2_before_any_run(tmp_path, capsys):
    config = write_config(tmp_path, AXISYM_TINY)
    out = tmp_path / "sweep"
    assert run_cli("sweep-nini", "--config", config, "--nini", "2", "0",
                   "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "n_ini" in err
    assert not (out / "nini_2").exists()


# -------------------------------------------------------------------- evaluate

def test_evaluate_analytic_to_stdout(tmp_path, capsys):
    config = write_config(tmp_path, ANALYTIC)
    assert run_cli("evaluate", "--config", config, "--design", "0.3, 0.3") == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "ok" and report["score"] == 0.0
    assert report["encoded"] == [650, 650]


def test_evaluate_axisym_with_exports(tmp_path, capsys):
    config = write_config(tmp_path, {**AXISYM_TINY, "K": 2, "n_elements": 40})
    report_path = tmp_path / "report.json"
    profile_path = tmp_path / "profile.csv"
    traction_path = tmp_path / "traction.csv"
    assert run_cli(
        # the --design=value form keeps argparse from reading the leading
        # minus sign as an option prefix
        "evaluate", "--config", config, f"--design={-math.pi / 2},0",
        "--out", str(report_path),
        "--profile-out", str(profile_path),
        "--traction-out", str(traction_path),
    ) == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["normalized_drag"] == pytest.approx(1.0, abs=5e-3)
    assert report["scale_lambda"] == pytest.approx(math.pi / 2, rel=1e-4)
    assert report["score"] == -report["normalized_drag"]
    profile_rows = profile_path.read_text().splitlines()
    assert profile_rows[0] == "s,r,z,phi" and len(profile_rows) == 202
    first = [float(tok) for tok in profile_rows[1].split(",")]
    assert first[0] == -1.0 and first[1] == 0.0
    traction_rows = traction_path.read_text().splitlines()
    assert traction_rows[0] == "s,f_r,f_z" and len(traction_rows) == 41
    s_values = np.array([float(row.split(",")[0]) for row in traction_rows[1:]])
    assert -1.0 < s_values[0] and s_values[-1] < 1.0
    assert np.all(np.diff(s_values) > 0)


def test_evaluate_axisym_failed_design_reports_penalty(tmp_path, capsys):
    config = write_config(tmp_path, {**AXISYM_TINY, "K": 2})
    profile_path = tmp_path / "profile.csv"
    code = run_cli(
        "evaluate", "--config", config, "--design", "1.0,0.0",
        "--profile-out", str(profile_path),
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "failed"
    assert report["score"] == AxisymDragProblem().penalty_score
    assert "negative radius" in report["error"]
    assert "profile_csv" not in report and not profile_path.exists()


def test_evaluate_airfoil_failed_evaluator_reports_penalty(tmp_path, capsys):
    stub = tmp_path / "stub.py"
    stub.write_text("raise SystemExit(3)\n")
    command = [sys.executable, str(stub)]
    doc = {**AIRFOIL, "optimizer": "mock", "evaluator_command": command}
    config = write_config(tmp_path, doc)
    code = run_cli("evaluate", "--config", config, "--design", ",".join("0" * 9))
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "failed" and report["score"] == -5.0
    assert report["error"] == "flow evaluation failed: exited with code 3"


def test_evaluate_airfoil_report_quotes_the_evaluator_traceback(tmp_path, capsys):
    stub = tmp_path / "stub.py"
    stub.write_text("raise RuntimeError('mesh generation diverged')\n")
    command = [sys.executable, str(stub)]
    doc = {**AIRFOIL, "optimizer": "mock", "evaluator_command": command}
    config = write_config(tmp_path, doc)
    code = run_cli("evaluate", "--config", config, "--design", ",".join("0" * 9))
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "failed" and report["score"] == -5.0
    assert report["error"] == (
        "flow evaluation failed: exited with code 1:"
        " RuntimeError: mesh generation diverged"
    )


@pytest.mark.parametrize("flag", ["--profile-out", "--traction-out"])
@pytest.mark.parametrize("problem", ["analytic_test", "airfoil"])
def test_evaluate_exports_need_an_axisym_problem(tmp_path, capsys, problem, flag):
    # The stand-in evaluator leaves a mark, so a scored design would show.
    mark = tmp_path / "evaluated"
    stub = tmp_path / "stub.py"
    stub.write_text(f"open({str(mark)!r}, 'w').close()\n")
    doc, design = {
        "analytic_test": (ANALYTIC, "0.3,0.3"),
        "airfoil": (
            {**AIRFOIL, "optimizer": "mock", "evaluator_command": [sys.executable, str(stub)]},
            ",".join("0" * 9),
        ),
    }[problem]
    export = tmp_path / "export.csv"
    code = run_cli(
        "evaluate", "--config", write_config(tmp_path, doc), "--design", design,
        flag, str(export),
    )
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert flag in captured.err and problem in captured.err
    assert not export.exists() and not mark.exists()


def test_evaluate_rejects_bad_designs(tmp_path, capsys):
    config = write_config(tmp_path, ANALYTIC)
    assert run_cli("evaluate", "--config", config, "--design", "0.1") == EXIT_CONFIG
    assert run_cli("evaluate", "--config", config, "--design", "2.0,0.0") == EXIT_CONFIG
    assert run_cli("evaluate", "--config", config, "--design", "a,b") == EXIT_CONFIG


# ------------------------------------------------------------------ exit codes

def test_unreachable_llm_endpoint_exits_3_with_partial_outputs(tmp_path, capsys):
    doc = {
        **ANALYTIC,
        "optimizer": "llm",
        "budget": 3,
        "llm": {
            "endpoint": "http://127.0.0.1:9/v1/chat/completions",
            "model": "m",
            "max_retries": 0,
            "timeout": 0.5,
        },
    }
    config = write_config(tmp_path, doc)
    out = tmp_path / "llm_run"
    assert run_cli("run", "--config", config, "--out", str(out)) == EXIT_PROPOSER
    assert "partial outputs preserved" in capsys.readouterr().err
    records = (out / "seed_0" / "records.jsonl").read_text().splitlines()
    assert len(records) == 3  # the seeded generation persisted before the abort
    audit = (out / "seed_0" / "llm_audit.jsonl").read_text().splitlines()
    assert len(audit) == 1
    assert json.loads(audit[0])["error"]


def test_missing_flow_solver_exits_4(tmp_path, capsys, monkeypatch):
    # a problem whose evaluator is unusable at run time, not just misconfigured
    monkeypatch.setattr(
        cli, "make_problem", lambda settings: AirfoilProblem(n_free_points=3)
    )
    doc = {
        "problem": "airfoil",
        "optimizer": "mock",
        "budget": 2,
        "population_size": 2,
        "n_ini": 1,
        "seeds": [0],
        "evaluator_command": ["ignored"],
    }
    config = write_config(tmp_path, doc)
    code = run_cli("run", "--config", config, "--out", str(tmp_path / "af"))
    assert code == EXIT_EVALUATOR
    assert "evaluator failure" in capsys.readouterr().err


def test_evaluator_that_cannot_start_exits_4(tmp_path, capsys):
    # with two workers the failure is raised on a worker of the run's pool
    for workers in (1, 2):
        doc = {
            **AIRFOIL,
            "optimizer": "mock",
            "budget": 2,
            "population_size": 2,
            "n_ini": 1,
            "seeds": [0],
            "max_workers": workers,
            "evaluator_command": ["/nonexistent/evaluator"],
        }
        config = write_config(tmp_path, doc)
        out = tmp_path / f"af{workers}"
        assert run_cli("run", "--config", config, "--out", str(out)) == EXIT_EVALUATOR
        assert "evaluator failure" in capsys.readouterr().err
        records = out / "seed_0" / "records.jsonl"
        assert not records.exists() or records.read_text() == ""


def test_airfoil_run_with_stub_evaluator(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(
        "import json, sys\n"
        "out = sys.argv[sys.argv.index('--out') + 1]\n"
        "n = sum(1 for _ in open(sys.argv[1]))\n"
        "json.dump({'lift': 1.0, 'drag': 2.0, 'ratio': 1.0 / n}, open(out, 'w'))\n"
    )
    import sys as _sys

    doc = {
        "problem": "airfoil",
        "optimizer": "mock",
        "budget": 2,
        "population_size": 2,
        "n_ini": 1,
        "seeds": [0],
        "n_F": 2,
        "evaluator_command": [_sys.executable, str(stub)],
    }
    config = write_config(tmp_path, doc)
    out = tmp_path / "airfoil_run"
    assert run_cli("run", "--config", config, "--out", str(out)) == EXIT_OK
    summary = json.loads((out / "seed_0" / "summary.json").read_text())
    assert summary["best_score"] == pytest.approx(2.0 / 129)  # 4*32+1 lines, doubled
