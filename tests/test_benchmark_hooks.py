"""The benchmark still runs on shapeopt: its configs parse, its hooks fire.

``perfbench/workloads.py`` writes one run config per workload, and
``perfbench/campaign.py`` wraps shapeopt functions and methods by name.  A
dropped config key would end a campaign in exit 2 and a rename in ``src/``
would end it in AttributeError, so this parses every workload's config and
installs the tracing and timing hooks in a fresh process to drive one small
mock run through them.  Nothing under ``perfbench/`` is changed.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shapeopt
from shapeopt.cli import parse_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_parse(name, tmp_path):
    workload = WORKLOADS[name]
    doc = workload.run_config(7, str(tmp_path), endpoint="http://127.0.0.1:9/v1")
    settings = parse_config(doc)
    assert settings["budget"] == workload.budget
    assert settings["optimizer"] == doc["optimizer"]

SCRIPT = """
import json
import sys
from pathlib import Path

import campaign
from spans import Tracer

work = Path(sys.argv[1])
run = campaign.Campaign(work / "report.json", 0.0, False, Tracer(clock=campaign.CLOCK))
run.install_tracing()
run.install_timing()
config = work / "config.json"
config.write_text(json.dumps({
    "problem": "analytic_test", "optimizer": "mock", "budget": 3,
    "population_size": 2, "n_ini": 1, "output_dir": str(work / "runs"),
}))
code = campaign.cli.main(["run", "--config", str(config)])
print(json.dumps({
    "code": code,
    "marks": sorted(run.marks),
    "spans": sorted({span[1] for span in run.tracer.spans}),
}))
"""


def test_campaign_hooks_install_and_fire(tmp_path):
    src = os.path.dirname(os.path.dirname(shapeopt.__file__))
    path = os.pathsep.join(
        filter(None, [src, str(PERFBENCH), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["code"] == 0
    assert set(report["marks"]) >= {"t_entry", "t_loop", "t_loop_end", "t_exit"}
    assert set(report["spans"]) >= {
        "cli.run_single_seed",
        "cli.write_records",
        "evolution.loop",
        "evolution.evaluate_designs",
        "evolution.sample",
        "evolution.select",
        "llm.mock_propose",
        "problems.evaluate",
    }
