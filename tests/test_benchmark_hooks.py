"""The benchmark's campaign hooks still find, and fire on, every name they patch.

``perfbench/campaign.py`` wraps shapeopt functions and methods by name.  A
rename in ``src/`` would end every benchmark campaign in AttributeError, so
this installs its tracing and timing hooks in a fresh process and drives one
small mock run through them.  Nothing under ``perfbench/`` is changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import shapeopt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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
