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
from dataclasses import dataclass, field
from typing import Callable, Sequence
from urllib.parse import unquote, urlsplit, urlunsplit

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
    "no_audit",
    "parse_mean_response",
    "propose_mean_via_llm",
]

SYSTEM_PROMPT = (
    "You are an optimization assistant. You study scored design records and"
    " propose the mean design vector for the next sampling round."
)

# Each parse retry resends the bad reply and a format reminder, so the last
# request of a proposal carries two more messages per retry than the first.
MAX_RETRIES = 20

# Printable ASCII without spaces: what the request line and the bearer
# token may carry.
_PRINTABLE = re.compile(r"[!-~]+")
# Bytes of an error reply that its TransportError, and so the audit, quote:
# room for a provider's reason, such as an exhausted quota, not a whole page.
_ERROR_BODY_BYTES = 2048
# Client errors that a later request can get past: a timeout, a conflict and
# a rate limit.  Any other 4xx (a wrong key, model or URL) ends the proposal.
_RETRIED_4XX = frozenset({408, 409, 429})
_VECTOR_RE = re.compile(r"\[\s*[+-]?\d+(?:\s*,\s*[+-]?\d+)*\s*\]")


class ResponseParseError(ValueError):
    """The reply did not contain a usable integer vector."""


class TransportError(RuntimeError):
    """The request never produced a usable reply (network, HTTP, or body shape).

    ``status`` is the HTTP status of an error reply, None when there was none.
    """

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


def _is_http_url(text: str) -> bool:
    """Whether the transport can send to ``text``: http(s), a host, a valid port."""
    if not _PRINTABLE.fullmatch(text):
        return False
    try:
        url = urlsplit(text)
        url.port  # raises on a port that is not a number in 0..65535
    except ValueError:
        return False
    return url.scheme in ("http", "https") and bool(url.hostname)


@dataclass
class LlmConfig:
    """Connection settings; every request asks for temperature zero."""

    endpoint: str
    model: str
    max_retries: int = 2
    timeout: float = 60.0
    api_key_env: str = "SHAPEOPT_API_KEY"

    def __post_init__(self) -> None:
        if not _is_http_url(self.endpoint):
            raise ValueError(
                "endpoint must be an http or https URL with a host, in printable"
                f" ASCII without spaces, got {self.endpoint!r}"
            )
        if not 0 <= self.max_retries <= MAX_RETRIES:
            raise ValueError(f"max_retries must lie in [0, {MAX_RETRIES}]")
        if not 0.0 < self.timeout <= DAY:
            raise ValueError(f"timeout must lie in (0, {DAY:g}] seconds")


@dataclass
class PromptBundle:
    """A rendered prompt plus what a valid reply must look like."""

    text: str
    dimension: int


def _render_record(encoded: list[int], score: float) -> str:
    values = ", ".join(map(str, encoded))
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
    encoded = encode_design([r.design for r in records], bounds).tolist()
    lines = [_render_record(row, r.score) for row, r in zip(encoded, records)]
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
    try:
        components = [int(tok) for tok in re.findall(r"[+-]?\d+", matches[-1])]
    except ValueError as exc:  # more digits than int() converts
        raise ResponseParseError(
            f"components must lie in [0, {ENCODING_STEPS}], got a number too long to convert"
        ) from exc
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


class _HttpTransport:
    """A sender that POSTs each payload to the endpoint and returns the reply text.

    It holds one HTTP/1.1 connection, opened on the first request and kept
    for every later one, parse retries included.  Any failure closes it, so
    a late reply can never answer a later request, and so does a reply that
    ends the connection (HTTP/1.0, ``Connection: close``).  A connection the
    server closed while it sat idle is dropped before the next request.

    After each request it sets ``TCP_QUICKACK``.  A server that writes a
    reply's headers and body as two segments without ``TCP_NODELAY``, as
    ``http.server`` does, otherwise holds the body until the client's
    delayed ACK of the headers, about 40 ms, on every reused connection.
    Where the platform has no ``TCP_QUICKACK`` (or no ``poll``), every
    request asks for ``Connection: close`` and gets its own connection.

    Proxies come from the ``*_proxy`` environment variables, read here once;
    an https endpoint is tunnelled through the proxy with CONNECT.  TLS
    checks the system CA store.  Any status outside 2xx is an error whose
    TransportError carries the status and quotes the start of the reply.
    The API key is read from the environment once, here.
    """

    def __init__(self, cfg: LlmConfig) -> None:
        # Imported here: only runs that call an endpoint pay for loading them.
        import http.client
        import select
        import socket
        import urllib.request

        from . import __version__

        self._headers = {
            "Content-Type": "application/json",
            "User-Agent": f"shapeopt/{__version__}",
        }
        key = os.environ.get(cfg.api_key_env, "")
        if key:
            if not _PRINTABLE.fullmatch(key):  # the message must not quote the key
                raise ValueError(f"${cfg.api_key_env} must be printable ASCII without spaces")
            self._headers["Authorization"] = f"Bearer {key}"
        self._keep_alive = hasattr(socket, "TCP_QUICKACK") and hasattr(select, "poll")
        if not self._keep_alive:
            self._headers["Connection"] = "close"

        url = urlsplit(cfg.endpoint)
        https = url.scheme == "https"
        host, port = url.hostname, url.port or (443 if https else 80)
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))
        connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy is None or urllib.request.proxy_bypass(url.netloc):
            self._connection = connection(host, port, timeout=cfg.timeout)
            return
        proxy_url = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        self._connection = connection(
            proxy_url.hostname, proxy_url.port or 80, timeout=cfg.timeout
        )
        proxy_headers = {}
        if proxy_url.username is not None:
            import base64

            credentials = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
            proxy_headers["Proxy-Authorization"] = (
                "Basic " + base64.b64encode(credentials.encode()).decode()
            )
        if https:
            self._connection.set_tunnel(host, port, headers=proxy_headers)
        else:  # a plain-HTTP proxy takes the absolute URI
            self._target = f"http://{url.netloc}{self._target}"
            self._headers.update(proxy_headers)

    def __call__(self, payload: dict) -> str:
        sock = self._connection.sock
        if sock is not None and _readable(sock):
            self._connection.close()  # the server closed it while it sat idle
        try:
            text = self._exchange(json.dumps(payload).encode())
        except BaseException:
            self._connection.close()  # so that no late reply answers a later request
            raise
        if not self._keep_alive:
            self._connection.close()
        return text

    def close(self) -> None:
        """Close the connection; the next request opens a new one."""
        self._connection.close()

    def _exchange(self, body: bytes) -> str:
        import http.client
        import socket

        connection = self._connection
        try:
            connection.request("POST", self._target, body, self._headers)
            if self._keep_alive:
                connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            # On will_close the reply takes over the socket, and closing it closes that.
            with connection.getresponse() as response:
                if not 200 <= response.status < 300:
                    try:
                        detail = response.read(_ERROR_BODY_BYTES)
                    except (OSError, http.client.HTTPException):
                        detail = b""
                    raise TransportError(
                        f"request failed: HTTP {response.status} {response.reason}:"
                        f" {detail.decode('utf-8', errors='replace')}",
                        status=response.status,
                    )
                raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"request failed: {exc}") from exc
        try:
            reply = json.loads(raw)
        except ValueError as exc:  # also a bad UTF-8 body
            raise TransportError(f"response is not JSON: {exc}") from exc
        return _extract_text(reply)


def _readable(sock) -> bool:
    """Whether an idle socket has something to read: the server's close, or stray bytes."""
    import select

    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def no_audit(entry: dict) -> None:
    """The default audit: keep no entry."""


def propose_mean_via_llm(
    bundle: PromptBundle,
    cfg: LlmConfig,
    transport: Callable[[dict], str],
    audit: Callable[[dict], None] = no_audit,
) -> np.ndarray:
    """One proposal with retries; returns the parsed integer mean.

    Each attempt sends the conversation so far; a parse failure appends the
    bad reply plus a format reminder before retrying, a transport failure
    retries the same payload.  Both kinds consume attempts
    (max_retries + 1 in total) before the proposer gives up, except that a
    4xx status other than 408, 409 and 429 gives up at once.  ``audit``
    gets one entry per attempt.
    """
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
        sent = {"attempt": attempt, "request": payload}
        try:
            text = transport(payload)
        except TransportError as exc:
            last_error = exc
            audit({**sent, "response": None, "error": str(exc), "status": exc.status})
            status = exc.status
            if status is not None and 400 <= status < 500 and status not in _RETRIED_4XX:
                raise ProposerError(f"no retry after HTTP {status}: {exc}") from exc
            continue
        try:
            mean = parse_mean_response(text, bundle.dimension)
        except ResponseParseError as exc:
            last_error = exc
            audit({**sent, "response": text, "error": str(exc)})
            messages.append({"role": "assistant", "content": text})
            messages.append(
                {"role": "user", "content": format_reminder(bundle.dimension)}
            )
            continue
        audit({**sent, "response": text, "parsed": mean.tolist()})
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
    encoded = encode_design([r.design for r in ranked[:k]], bounds).astype(float)
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
    audit: Callable[[dict], None] = no_audit
    _built: _HttpTransport | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.transport is None:
            self.transport = self._built = _HttpTransport(self.config)

    def close(self) -> None:
        """Close the connection of a transport built here; an injected one is the caller's."""
        if self._built is not None:
            self._built.close()

    def propose(self, records: Sequence[ScoredRecord], bounds: Bounds) -> np.ndarray:
        bundle = build_prompt(records, bounds, self.objective)
        mean = propose_mean_via_llm(bundle, self.config, self.transport, self.audit)
        return decode_design(mean, bounds)
