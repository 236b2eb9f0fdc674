"""Drag runs with several workers score in forked processes.

The records stay byte for byte those of a serial run, the workers are
forked before the first ask and end with the run however it stops, and
a run stopped any way resumes to the uninterrupted bytes.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from shapeopt import cli, evolution, rundir
from shapeopt.cli import EXIT_INTERRUPTED, EXIT_OK, main
from shapeopt.evolution import EsConfig, GaussianSearch, run_optimization
from shapeopt.llm import MockProposer
from shapeopt.problems import AxisymDragProblem

SRC = os.path.dirname(os.path.dirname(cli.__file__))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])
)}
OUTPUTS = ("records.jsonl", "summary.json", "trajectory.csv", "best_profile.csv")


def children(pid):
    """Pids of the live children of process ``pid``, from every one of its threads."""
    found = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        found += (task / "children").read_text().split()
    return sorted(int(child) for child in found)


def state(pid):
    """The process state letter of ``pid``, or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rpartition(")")[2].split()[0]


def outputs(run_dir):
    return {name: (run_dir / name).read_bytes() for name in OUTPUTS}


def run(config, out, *extra):
    assert main(["run", "--config", str(config), "--out", str(out), *extra]) == EXIT_OK
    return out / "seed_0"


def threads():
    """How many threads this process runs, as the kernel counts them."""
    status = Path("/proc/self/status").read_text()
    return int(status.split("Threads:")[1].split()[0])


@pytest.mark.parametrize("doc", [
    {"problem": "axisym_volume", "optimizer": "mock", "K": 2},
    {"problem": "axisym_area", "optimizer": "ga", "K": 5},
], ids=["volume_mock", "area_ga"])
def test_worker_processes_write_the_serial_bytes(tmp_path, monkeypatch, doc):
    forks = []  # the threads at each fork: Python 3.12 warns at more than one
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(threads()) or real_fork())
    written = {}
    for workers in (1, 2):
        config = tmp_path / f"w{workers}.json"
        config.write_text(json.dumps(
            {**doc, "budget": 5, "n_elements": 60, "max_workers": workers}
        ))
        run_dir = run(config, tmp_path / f"w{workers}")
        written[workers] = outputs(run_dir)
        # cut to two generations and resume
        lines = written[workers]["records.jsonl"].splitlines(keepends=True)
        (run_dir / "records.jsonl").write_bytes(b"".join(lines[:16]))
        assert outputs(run(config, tmp_path / f"w{workers}", "--resume")) == written[workers]
    assert written[2] == written[1]
    assert forks == [1] * 4  # two workers for the run and two for its resume


class FirstAskSeesWorkers(GaussianSearch):
    """Records this process's children at each ask."""

    def __init__(self):
        super().__init__(MockProposer())
        self.seen = []

    def ask(self, buffer, rng, problem, config):
        self.seen.append(children(os.getpid()))
        return super().ask(buffer, rng, problem, config)


def test_workers_are_forked_before_the_first_ask_and_end_with_the_loop():
    problem = AxisymDragProblem(n_elements=24)
    strategy = FirstAskSeesWorkers()
    config = EsConfig(budget=3, population_size=3, max_workers=8)
    run_optimization(problem, strategy, config)
    # one pool for the run, of at most one worker per design
    assert len(strategy.seen[0]) == 3
    assert strategy.seen == [strategy.seen[0]] * 3
    assert children(os.getpid()) == []
    assert [state(pid) for pid in strategy.seen[0]] == [None] * 3


class Exploding(AxisymDragProblem):
    def evaluate(self, x):
        raise RuntimeError("not an evaluation failure")


def test_an_error_in_a_worker_ends_the_run_and_its_workers():
    config = EsConfig(budget=2, population_size=4, max_workers=2)
    with pytest.raises(RuntimeError, match="not an evaluation failure"):
        run_optimization(Exploding(n_elements=24), GaussianSearch(MockProposer()), config)
    assert children(os.getpid()) == []


SLOW_RUN = """
import time
from shapeopt.evolution import EsConfig, GaussianSearch, run_optimization
from shapeopt.llm import MockProposer
from shapeopt.problems import AxisymDragProblem

class Slow(AxisymDragProblem):
    def evaluate(self, x):
        time.sleep(60)

config = EsConfig(budget=1, population_size=2, max_workers=2)
run_optimization(Slow(n_elements=24), GaussianSearch(MockProposer()), config)
"""


def test_workers_of_a_killed_run_die_in_the_middle_of_a_design():
    victim = subprocess.Popen([sys.executable, "-c", SLOW_RUN], env=ENV)
    deadline = time.monotonic() + 60
    while len(children(victim.pid)) < 2:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    workers = children(victim.pid)
    time.sleep(0.1)  # both are asleep in their first design
    victim.kill()
    victim.wait(timeout=60)
    deadline = time.monotonic() + 1.0
    while any(state(pid) not in (None, "Z") for pid in workers):
        assert time.monotonic() < deadline, [state(pid) for pid in workers]
        time.sleep(0.01)


def test_a_worker_does_not_hold_the_run_lock(tmp_path):
    problem = AxisymDragProblem(n_elements=24)
    snapshot = {"population_size": 2}
    with rundir.open_run(tmp_path, snapshot, problem.bounds, resume=False):
        pool = evolution._ForkedPool(problem, 1)  # forked with the lock's descriptor
    try:
        # the run that forked it is over, so its directory is free
        with rundir.open_run(tmp_path, snapshot, problem.bounds, resume=True):
            pass
    finally:
        pool.close()


@pytest.fixture(scope="module")
def drag_run(tmp_path_factory):
    """A 2-worker drag run's config and its uninterrupted outputs."""
    root = tmp_path_factory.mktemp("drag")
    config = root / "config.json"
    config.write_text(json.dumps({
        "problem": "axisym_volume", "optimizer": "mock", "budget": 60,
        "K": 2, "n_elements": 60, "max_workers": 2, "output_dir": str(root / "runs"),
    }))
    return config, outputs(run(config, root / "reference"))


@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM, signal.SIGINT],
                         ids=["SIGKILL", "SIGTERM", "SIGINT"])
def test_a_stopped_run_leaves_no_worker_and_resumes(drag_run, tmp_path, signum):
    config, reference = drag_run
    out = tmp_path / "runs"
    records = out / "seed_0" / "records.jsonl"
    victim = subprocess.Popen(
        [sys.executable, "-m", "shapeopt.cli", "run", "--config", str(config),
         "--out", str(out)],
        env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and (
        not records.exists() or records.read_bytes().count(b"\n") < 8
    ):
        time.sleep(0.002)
    workers = children(victim.pid)
    assert len(workers) == 2
    if signum == signal.SIGINT:
        os.killpg(victim.pid, signum)  # as Ctrl-C reaches the terminal's process group
    else:
        os.kill(victim.pid, signum)
    _, err = victim.communicate(timeout=60)
    if signum == signal.SIGINT:
        assert victim.returncode == EXIT_INTERRUPTED
        assert err == "interrupted; continue with --resume\n"
    else:
        assert victim.returncode == -signum
    deadline = time.monotonic() + 1.0
    while any(state(pid) not in (None, "Z") for pid in workers):
        assert time.monotonic() < deadline, [state(pid) for pid in workers]
        time.sleep(0.01)
    assert outputs(run(config, out, "--resume")) == reference


# Runs the CLI and records, at each fork, how many threads the process
# runs and how many TCP connections it holds; the last line is the record.
FORK_WATCH = """
import json, os, sys
from pathlib import Path
from shapeopt.cli import main

def tcp_inodes():
    inodes = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        if os.path.exists(table):
            inodes |= {line.split()[9] for line in open(table).readlines()[1:]}
    return inodes

forks, real_fork = [], os.fork
def fork():
    status = Path("/proc/self/status").read_text()
    threads = int(status.split("Threads:")[1].split()[0])
    links = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
        except FileNotFoundError:  # the listing's own descriptor
            pass
    held = [link for link in links
            if link.startswith("socket:[") and link[8:-1] in tcp_inodes()]
    forks.append([threads, len(held)])
    return real_fork()
os.fork = fork
code = main(sys.argv[1:])
print(json.dumps({"code": code, "forks": forks}))
"""


def test_llm_drag_run_forks_before_its_chat_connection(
    tmp_path, keepalive_endpoint, chat_handler
):
    reply = chat_handler.answer

    def answer(body):
        # the fourth request of the resumed run fails, and its retry reconnects
        chat_handler.status = 503 if len(chat_handler.seen) == broken else 200
        return reply

    broken = None
    chat_handler.answer = answer
    config = tmp_path / "llm.json"
    config.write_text(json.dumps({
        "problem": "axisym_volume", "optimizer": "llm", "budget": 8, "n_ini": 1,
        "n_elements": 24, "max_workers": 2, "output_dir": str(tmp_path / "runs"),
        "llm": {"endpoint": keepalive_endpoint, "model": "m"},
    }))

    def watched(*extra):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", FORK_WATCH, "run", "--config", str(config), *extra],
            env=ENV, capture_output=True, text=True, timeout=120,
        )
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["code"] == EXIT_OK, done.stderr
        # one thread and no chat connection at each of the two forks
        assert report["forks"] == [[1, 0], [1, 0]]
        return time.monotonic() - started

    watched()
    records = tmp_path / "runs" / "seed_0" / "records.jsonl"
    reference = records.read_bytes()
    assert chat_handler.connections == 1
    # cut past n_ini, so the resume's first ask asks the model
    records.write_bytes(b"".join(reference.splitlines(keepends=True)[:24]))
    broken = len(chat_handler.seen) + 4
    elapsed = watched("--resume")
    assert records.read_bytes() == reference
    # A worker that held the dropped connection would keep it open, and the
    # stand-in would wait out its idle timeout before taking the next one.
    assert elapsed < chat_handler.timeout / 2
    assert chat_handler.connections == 3
    assert chat_handler.status == 200
