"""Mean proposers: a chat-completions client and a deterministic mock.

The optimization loop hands its curated records to a proposer and gets
back the next sampling mean.  The online proposer renders the records as
a five-part few-shot prompt, queries a chat endpoint at temperature zero,
and parses one bracketed integer vector out of the reply.  The offline
mock recombines the best records with logarithmic rank weights, which
gives the pipeline plausible convergence behavior without a network.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .evolution import (
    DAY,
    ENCODING_STEPS,
    Bounds,
    ProposerError,
    ScoredRecord,
    decode_design,
    encode_design,
)

__all__ = [
    "LlmConfig",
    "LlmProposer",
    "MockProposer",
    "PromptBundle",
    "ResponseParseError",
    "TransportError",
    "build_prompt",
    "format_reminder",
    "mock_propose",
    "parse_mean_response",
    "propose_mean_via_llm",
]

SYSTEM_PROMPT = (
    "You are an optimization assistant. You study scored design records and"
    " propose the mean design vector for the next sampling round."
)

_VECTOR_RE = re.compile(r"\[\s*[+-]?\d+(?:\s*,\s*[+-]?\d+)*\s*\]")


class ResponseParseError(ValueError):
    """The reply did not contain a usable integer vector."""


class TransportError(RuntimeError):
    """The request never produced a reply (network, HTTP, or body shape)."""


@dataclass
class LlmConfig:
    """Connection settings; every request asks for temperature zero."""

    endpoint: str
    model: str
    max_retries: int = 2
    timeout: float = 60.0
    api_key_env: str = "SHAPEOPT_API_KEY"
    audit_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0.0 < self.timeout <= DAY:
            raise ValueError(f"timeout must lie in (0, {DAY:g}] seconds")


@dataclass
class PromptBundle:
    """A rendered prompt plus what a valid reply must look like."""

    text: str
    dimension: int


def _render_record(encoded: np.ndarray, score: float) -> str:
    values = ", ".join(str(int(v)) for v in encoded)
    return f"values: [{values}], score: {score:.6g}"


def _example_vector(dimension: int) -> str:
    return "[" + ", ".join(["500"] * dimension) + "]"


def format_reminder(dimension: int) -> str:
    return (
        "Your previous reply could not be used. Reply with exactly one"
        f" bracketed comma-separated list of {dimension} integers between 0"
        f" and {ENCODING_STEPS}, for example {_example_vector(dimension)},"
        " and nothing else."
    )


def build_prompt(
    records: Sequence[ScoredRecord], bounds: Bounds, objective: str
) -> PromptBundle:
    """Render the five-part few-shot prompt.

    Parts, in order: the task assignment, the dimensionality and objective,
    the integer parameter range, the scored records with the request for
    the next mean, and the output-format instruction.  Records are rendered
    in the order given (the selection puts the strongest last).
    """
    if not records:
        raise ValueError("cannot build a prompt from zero records")
    d = bounds.dimension
    lines = [_render_record(encode_design(r.design, bounds), r.score) for r in records]
    parts = [
        (
            "You are running an evolutionary optimization. Each iteration"
            " samples a population of design vectors around a mean vector,"
            " evaluates them, and records the scores. Study the records"
            " below and propose the mean design vector for the next"
            " iteration so that future scores increase."
        ),
        f"The design vector has {d} components. Objective: {objective}",
        (
            f"Every component is an integer in the range 0 to"
            f" {ENCODING_STEPS} inclusive."
        ),
        (
            "Scored records, ordered weakest to strongest (higher score is"
            " better):\n"
            + "\n".join(lines)
            + "\n\nPropose the mean design vector for the next iteration."
        ),
        (
            "Reply with exactly one bracketed comma-separated list of"
            f" {d} integers, for example {_example_vector(d)}, and nothing"
            " else."
        ),
    ]
    return PromptBundle(text="\n\n".join(parts), dimension=d)


def parse_mean_response(text: str, dimension: int) -> np.ndarray:
    """Extract the last bracketed integer list from a reply as an int vector.

    Taking the last list tolerates chain-of-thought prefixes.  A missing
    list, a wrong length and a component off the grid each raise
    ResponseParseError with their own message.
    """
    matches = _VECTOR_RE.findall(text)
    if not matches:
        raise ResponseParseError("no bracketed integer list in the reply")
    components = [int(tok) for tok in re.findall(r"[+-]?\d+", matches[-1])]
    if len(components) != dimension:
        raise ResponseParseError(
            f"expected {dimension} components, got {len(components)}"
        )
    encoded = np.array(components, dtype=int)
    if np.any(encoded < 0) or np.any(encoded > ENCODING_STEPS):
        raise ResponseParseError(
            f"components must lie in [0, {ENCODING_STEPS}], got {components}"
        )
    return encoded


def _extract_text(body: object) -> str:
    """Assistant text from a chat-completions response body."""
    try:
        message = body["choices"][0]["message"]  # type: ignore[index]
        content = message["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"unexpected response shape: {exc!r}") from exc
    if isinstance(content, str):
        return content
    if isinstance(content, list):
        # Some providers return a list of typed blocks.
        return "".join(
            block.get("text", "") for block in content if isinstance(block, dict)
        )
    raise TransportError(f"unsupported content type {type(content).__name__}")


def _http_transport(cfg: LlmConfig) -> Callable[[dict], str]:
    def send(payload: dict) -> str:
        # Imported here: only runs that call an endpoint pay for loading it.
        import requests

        headers = {"Content-Type": "application/json"}
        key = os.environ.get(cfg.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        try:
            response = requests.post(
                cfg.endpoint, json=payload, headers=headers, timeout=cfg.timeout
            )
            response.raise_for_status()
            body = response.json()
        except requests.JSONDecodeError as exc:  # also a RequestException
            raise TransportError(f"response is not JSON: {exc}") from exc
        except requests.RequestException as exc:
            raise TransportError(f"request failed: {exc}") from exc
        return _extract_text(body)

    return send


def _append_audit(cfg: LlmConfig, entry: dict) -> None:
    if cfg.audit_path is None:
        return
    with open(cfg.audit_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")


def propose_mean_via_llm(
    bundle: PromptBundle,
    cfg: LlmConfig,
    transport: Callable[[dict], str] | None = None,
) -> np.ndarray:
    """One proposal with retries; returns the parsed integer mean.

    Each attempt sends the conversation so far; a parse failure appends the
    bad reply plus a format reminder before retrying, a transport failure
    retries the same payload.  Both kinds consume attempts
    (max_retries + 1 in total) before the proposer gives up.
    """
    if transport is None:
        transport = _http_transport(cfg)
    messages = [
        {"role": "system", "content": SYSTEM_PROMPT},
        {"role": "user", "content": bundle.text},
    ]
    attempts = cfg.max_retries + 1
    last_error: Exception | None = None
    for attempt in range(attempts):
        payload = {
            "model": cfg.model,
            "temperature": 0.0,
            "messages": list(messages),
        }
        audit = {"attempt": attempt, "request": payload}
        try:
            text = transport(payload)
        except TransportError as exc:
            last_error = exc
            _append_audit(cfg, {**audit, "response": None, "error": str(exc)})
            continue
        try:
            mean = parse_mean_response(text, bundle.dimension)
        except ResponseParseError as exc:
            last_error = exc
            _append_audit(cfg, {**audit, "response": text, "error": str(exc)})
            messages.append({"role": "assistant", "content": text})
            messages.append(
                {"role": "user", "content": format_reminder(bundle.dimension)}
            )
            continue
        _append_audit(cfg, {**audit, "response": text, "parsed": mean.tolist()})
        return mean
    raise ProposerError(f"no usable mean after {attempts} attempts: {last_error}")


def mock_propose(records: Sequence[ScoredRecord], bounds: Bounds) -> np.ndarray:
    """Deterministic offline proposal: log-rank recombination.

    Takes the K* = min(4, record count) best records, weights rank j by
    ln(K*+1) − ln(j) (normalized to sum to one), and returns the weighted
    average of the encoded vectors rounded half-up.  A convex combination,
    so the result always stays on the integer grid inside the hull.
    """
    if not records:
        raise ValueError("cannot propose from zero records")
    ranked = sorted(records, key=lambda r: r.score, reverse=True)
    k = min(4, len(ranked))
    weights = np.log(k + 1) - np.log(np.arange(1, k + 1, dtype=float))
    weights /= weights.sum()
    encoded = np.array(
        [encode_design(r.design, bounds) for r in ranked[:k]], dtype=float
    )
    return np.floor(weights @ encoded + 0.5).astype(int)


class MockProposer:
    """Offline stand-in with the proposer interface of the search loop."""

    def propose(self, records: Sequence[ScoredRecord], bounds: Bounds) -> np.ndarray:
        return decode_design(mock_propose(records, bounds), bounds)


@dataclass
class LlmProposer:
    """Online proposer: prompt → endpoint → parsed integer mean → design."""

    config: LlmConfig
    objective: str
    transport: Callable[[dict], str] | None = None

    def propose(self, records: Sequence[ScoredRecord], bounds: Bounds) -> np.ndarray:
        bundle = build_prompt(records, bounds, self.objective)
        mean = propose_mean_via_llm(bundle, self.config, self.transport)
        return decode_design(mean, bounds)
