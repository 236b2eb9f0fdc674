"""shapeopt benchmark: one workload, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload drag_mock --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout.  Each campaign is ``shapeopt run``
on a generated config in a fresh process with BLAS pinned to one thread.
A run repeats one campaign, seeded with ``--seed``, a fixed number of
times, sized from ``--seconds`` and the workload's campaign time on the
reference host (always at least once).  Each generation's time is the
median over the repeats, which drops host stalls that hit only one repeat.
Set-up is timed on several extra cold starts that stop where the first
generation would begin.  ``--trace 1`` repeats the campaigns with
every layer wrapped in spans and reports per-layer figures instead, plus
the tracing overhead.  Correctness checks run in the same command; the
last line of standard output is the JSON result, and any failed check
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
N_PROBES = 3
CHILD_TIMEOUT_S = 170.0
CLOCK = time.monotonic


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of every ``kind`` metric (``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class BenchError(RuntimeError):
    """A campaign process or stand-in did not behave; the run is invalid."""


@dataclass
class CampaignRun:
    seed: int
    run_dir: Path
    reports: list[dict]
    chat: dict | None = None

    @property
    def setup_s(self) -> float:
        first = self.reports[0]
        return first["t_loop"] - first["t_spawn"]

    @property
    def wall_s(self) -> float:
        """Campaign wall time: run entry to the end of finalization, per process."""
        return sum(r["t_exit"] - r["t_entry"] for r in self.reports)

    @property
    def records_path(self) -> Path:
        return self.run_dir / f"seed_{self.seed}" / "records.jsonl"

    def generation_ms(self) -> list[float]:
        out = []
        for r in self.reports:
            edges = r["gen_starts"] + [r["t_loop_end"]]
            out += [1e3 * (b - a) for a, b in zip(edges[:-1], edges[1:])]
        return out


@dataclass
class Runner:
    """Starts campaign processes and stand-ins for one workload."""

    workload: Workload
    bench_seed: int
    work: Path
    _dirs: int = field(default=0, init=False)

    def env(self) -> dict:
        env = dict(os.environ)
        env.update(PINNED_THREADS)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(self.work / "tmp")
        return env

    def _start_chat(self, stats: Path) -> tuple[subprocess.Popen, str]:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "chatstub.py"), "--stats", str(stats)],
            stdout=subprocess.PIPE, text=True, env=self.env(),
        )
        port = proc.stdout.readline().strip()
        if not port.isdigit():
            proc.kill()
            proc.wait()
            raise BenchError("stand-in chat endpoint did not start")
        return proc, f"http://127.0.0.1:{port}/v1/chat/completions"

    @staticmethod
    def _stop_chat(proc: subprocess.Popen, stats: Path) -> dict | None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        if not stats.exists():
            return None
        return json.loads(stats.read_text(encoding="utf-8"))

    def campaign(
        self, *, trace: bool = False, probe: bool = False, split: bool = True
    ) -> CampaignRun:
        """One campaign; ``split`` stops the LLM campaign at mid-budget and resumes it."""
        w = self.workload
        self._dirs += 1
        cdir = self.work / f"c{self._dirs:03d}"
        cdir.mkdir(parents=True)
        seed = self.bench_seed
        phases = [(None, False)]
        if w.resume_at is not None and split and not probe:
            phases = [(w.resume_at, False), (None, True)]
        t0 = CLOCK()
        chat_proc = endpoint = None
        chat_stats = cdir / "chat_stats.json"
        reports = []
        try:
            if w.uses_chat:
                chat_proc, endpoint = self._start_chat(chat_stats)
            for k, (budget, resume) in enumerate(phases):
                config = w.run_config(
                    seed, str(cdir / "runs"), budget=budget, endpoint=endpoint
                )
                config_path = cdir / f"config{k}.json"
                config_path.write_text(json.dumps(config), encoding="utf-8")
                report = cdir / f"report{k}.json"
                argv = [
                    sys.executable, str(BENCH_DIR / "campaign.py"),
                    "--config", str(config_path), "--report", str(report),
                    "--t-spawn", repr(t0 if k == 0 else CLOCK()),
                ]
                argv += ["--resume"] * resume + ["--probe"] * probe + ["--trace"] * trace
                try:
                    proc = subprocess.run(
                        argv, env=self.env(), capture_output=True, text=True,
                        timeout=CHILD_TIMEOUT_S,
                    )
                except subprocess.TimeoutExpired as exc:
                    raise BenchError(f"campaign timed out: {' '.join(argv)}") from exc
                if proc.returncode != 0 or not report.exists():
                    raise BenchError(
                        f"campaign exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
                    )
                reports.append(json.loads(report.read_text(encoding="utf-8")))
        finally:
            chat = self._stop_chat(chat_proc, chat_stats) if chat_proc else None
        return CampaignRun(seed, cdir / "runs", reports, chat)

    def window(self, seconds: float, *, trace: bool = False) -> list[CampaignRun]:
        """The run's repeats of its campaign, back to back."""
        return [self.campaign(trace=trace) for _ in range(self.workload.repeats(seconds))]


def host_block() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(PINNED_THREADS["OPENBLAS_NUM_THREADS"]),
    }


def end_to_end(workload, runs: list[CampaignRun], setups: list[float], accuracy: dict) -> tuple[dict, dict]:
    """End-to-end metrics and the details that go with them."""
    from checks import read_records
    from spans import tail_percentile

    # Repeats share the seed, so generation k does the same work in each.
    gens = [statistics.median(g) for g in zip(*(run.generation_ms() for run in runs))]
    tail, tail_pct, n_gens = tail_percentile(gens)
    per_campaign = workload.budget * workload.population
    first = read_records(runs[0].records_path)
    metrics = {
        "setup_s": statistics.median(setups),
        "evals_per_s": statistics.median(per_campaign / run.wall_s for run in runs),
        "generation_p50_ms": statistics.median(gens),
        "generation_tail_ms": tail,
        "peak_rss_mb": max(r["rss_mb"] for run in runs for r in run.reports),
        "best_loss": -max(rec["score"] for rec in first),
        "scored_share": sum(rec["status"] == "ok" for rec in first) / len(first),
        **accuracy,
    }
    details = {
        "repeats": len(runs),
        "evaluations": len(runs) * per_campaign,
        "generations": n_gens,
        "generation_tail_percentile": tail_pct,
        "setup_samples": len(setups),
        "penalized_share": 1.0 - metrics["scored_share"],
    }
    return metrics, details


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Measure one workload; returns metrics, details, check problems and counts."""
    import checks
    import layers
    from shapeopt.cli import make_problem, parse_config

    runner = Runner(workload, seed, work)
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    n_checks = 0

    accuracy, found = checks.solver_accuracy()
    panel_worst, panel_found = checks.panel_check()
    problems += found + panel_found
    n_checks += 2

    setups = [runner.campaign(probe=True).setup_s for _ in range(N_PROBES)]
    runs = runner.window(seconds)
    setups += [run.setup_s for run in runs]
    metrics, details = end_to_end(workload, runs, setups, accuracy)
    details["panel_max_relerr"] = panel_worst

    traced = runner.window(seconds, trace=True) if trace else []
    first_config = json.loads((runs[0].run_dir.parent / "config0.json").read_text(encoding="utf-8"))
    bounds = make_problem(parse_config(first_config)).bounds
    expected = workload.budget * workload.population
    for run in runs + traced:
        n_checks += 1
        problems += [
            f"campaign seed {run.seed}: {p}"
            for p in checks.records_check(checks.read_records(run.records_path), bounds, expected)
        ]
    for plain, traced_run in zip(runs, traced):
        n_checks += 1
        if plain.records_path.read_bytes() != traced_run.records_path.read_bytes():
            problems.append(f"campaign seed {plain.seed}: tracing changed the records")
    if workload.resume_at is not None:
        n_checks += 1
        whole = runner.campaign(split=False)
        if whole.records_path.read_bytes() != runs[0].records_path.read_bytes():
            problems.append(
                f"campaign seed {runs[0].seed}: resumed records differ from an"
                " uninterrupted run"
            )

    result = {"metrics": metrics, "details": details, "problems": problems}
    evaluations = details["evaluations"]
    if trace:
        layer_metrics, table, found = layers.per_layer(
            workload, traced, metrics["evals_per_s"], metric_units("per_layer")
        )
        problems += found
        n_checks += 1
        evaluations += len(traced) * expected
        result.update(layer_metrics=layer_metrics, table=table)
    result.update(attempted=evaluations + n_checks, failed=len(problems))
    return result


def format_table(table: list[dict]) -> str:
    lines = [f"{'span':28} {'calls':>8} {'total_ms':>12} {'self_ms':>12} {'self_%':>7}"]
    for row in table:
        lines.append(
            f"{row['name']:28} {row['calls']:8d} {row['total_ms']:12.3f}"
            f" {row['self_ms']:12.3f} {row['self_pct']:7.2f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shapeopt" / "cli.py").is_file():
        print(f"no shapeopt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        host = host_block()
        print("host " + json.dumps(host))
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    details = result["details"]
    units = metric_units("end_to_end")
    for name, unit in units.items():
        print(f"{name:22} {result['metrics'][name]:.6g} {unit}")
    print(
        f"generation tail is p{details['generation_tail_percentile']}"
        f" of {details['generations']} generations;"
        f" campaign run {details['repeats']} time(s), {details['setup_samples']} set-up samples"
    )
    if args.trace:
        print(format_table(result["table"]))
        print(f"tracing overhead: untraced/traced evals_per_s = {result['layer_metrics']['trace.overhead']['value']:.4f}")
        metrics = result["layer_metrics"]
    else:
        metrics = {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        }
    OUT_ROOT.mkdir(exist_ok=True)
    out = OUT_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"host": host, **result}, indent=1), encoding="utf-8")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
