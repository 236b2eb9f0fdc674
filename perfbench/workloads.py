"""The four benchmark workloads and the run config generated from a seed.

Every workload is a closed loop: the optimizer waits for each generation
before it asks for the next, and at most ``max_workers`` designs (never
more than the two cores the benchmark was sized for) are scored at once.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass
from pathlib import Path

FLOW_COMMAND = [sys.executable, str(Path(__file__).with_name("flowstub.py"))]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # Wall seconds of one campaign, run entry to the end of finalization,
    # on the reference host (2-vCPU Xeon, one BLAS thread).  How often a
    # run repeats the campaign follows from ``--seconds`` and this alone,
    # never from how fast the program ran, so a faster program does the
    # same work and its generation tail is the same percentile of the same
    # number of generations.
    campaign_s: float
    # Generations run before the campaign is stopped and continued with
    # ``--resume``; None runs the campaign in one process.
    resume_at: int | None = None

    @property
    def budget(self) -> int:
        return self.config["budget"]

    @property
    def population(self) -> int:
        return self.config["population_size"]

    @property
    def uses_chat(self) -> bool:
        return self.config["optimizer"] == "llm"

    def repeats(self, seconds: float) -> int:
        """Repeats of the campaign in a run of ``seconds``; always at least one."""
        return max(1, round(seconds / self.campaign_s))

    def run_config(
        self,
        seed: int,
        output_dir: str,
        *,
        budget: int | None = None,
        endpoint: str | None = None,
    ) -> dict:
        doc = copy.deepcopy(self.config)
        doc["seeds"] = [seed]
        doc["output_dir"] = output_dir
        if budget is not None:
            doc["budget"] = budget
        if self.uses_chat:
            doc["llm"] = {
                "endpoint": endpoint,
                "model": "stand-in",
                "max_retries": 2,
                "timeout": 30.0,
                "api_key_env": "PERFBENCH_NO_KEY",
            }
        if doc["problem"] == "airfoil":
            doc["evaluator_command"] = list(FLOW_COMMAND)
        return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="drag_mock",
            config={
                "problem": "axisym_volume",
                "optimizer": "mock",
                "budget": 40,
                "population_size": 8,
                "n_ini": 2,
                "K": 2,
                "n_samples": 801,
                "n_elements": 120,
                "max_workers": 1,
            },
            campaign_s=28.0,
        ),
        Workload(
            name="drag_ga_fine",
            config={
                "problem": "axisym_area",
                "optimizer": "ga",
                "budget": 12,
                "population_size": 8,
                "K": 5,
                "n_samples": 801,
                "n_elements": 240,
                "max_workers": 2,
                # Penalized designs skip the solve, so a seed that draws many
                # of them does less work.  Smaller steps than the defaults
                # (mutation 0.31 rad, blend 0.5) keep the penalized share,
                # and so the work per campaign, from swinging with the seed.
                "ga": {"mutation_sigma": 0.05, "blend_alpha": 0.25},
            },
            campaign_s=20.0,
        ),
        Workload(
            name="llm_long",
            config={
                "problem": "analytic_test",
                "optimizer": "llm",
                "budget": 600,
                "population_size": 8,
                "n_ini": 2,
                "dimension": 8,
                # Outside the [-1, 1] box: the best reachable design is the
                # corner, which clamped samples hit exactly, so the best
                # score of a long campaign does not depend on the seed.
                "target": [1.25] * 8,
                "max_workers": 1,
            },
            resume_at=300,
            campaign_s=3.1,
        ),
        Workload(
            name="airfoil_ga",
            config={
                "problem": "airfoil",
                "optimizer": "ga",
                "budget": 32,
                "population_size": 8,
                "n_F": 3,
                "reynolds": 100.0,
                # The stand-in evaluator's ratio stays below sqrt(Re)/2 = 5,
                # so every score is the (negative) shortfall from that ideal.
                "baseline_ratio": 5.0,
                "evaluator_timeout": 60.0,
                "max_workers": 2,
            },
            campaign_s=10.0,
        ),
    )
}
