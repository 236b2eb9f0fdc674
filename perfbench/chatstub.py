"""Stand-in chat-completions endpoint for the benchmark's LLM workload.

    python3 chatstub.py --stats stats.json

Serves HTTP/1.1 on an ephemeral localhost port, one connection at a time,
and prints the port on its first output line once it accepts requests.
Each reply is a log-rank recombination of the records in the prompt: the
four best encoded vectors, weighted by ln(k+1) - ln(j) and rounded half
up.  Every ``BAD_EVERY``-th request instead gets a reply with no vector,
which exercises the client's format-reminder retry; two bad replies never
follow each other, so the client's retry budget is never used up.  The replies depend
only on the request and its position, so a run is deterministic.

On SIGTERM it writes ``{"requests", "connections", "service_s"}`` to the
stats file and exits; service time is the handler's own time per request.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import signal
import sys
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

RECORD_RE = re.compile(r"values: \[([^\]]*)\], score: (\S+)")
NO_VECTOR_REPLY = "The records suggest a trend; I need to think about it further."
TOP_K = 4
BAD_EVERY = 5


def recombine(prompt: str) -> list[int]:
    """Log-rank weighted mean of the best encoded vectors in the prompt."""
    records = [
        ([int(v) for v in values.split(",")], float(score))
        for values, score in RECORD_RE.findall(prompt)
    ]
    if not records:
        raise ValueError("prompt holds no records")
    ranked = sorted(records, key=lambda rec: rec[1], reverse=True)
    k = min(TOP_K, len(ranked))
    weights = [math.log(k + 1) - math.log(j) for j in range(1, k + 1)]
    total = sum(weights)
    dimension = len(ranked[0][0])
    return [
        math.floor(sum(w * vec[i] for w, (vec, _) in zip(weights, ranked)) / total + 0.5)
        for i in range(dimension)
    ]


def reply_text(body: dict, request_index: int) -> str:
    """The assistant text for the ``request_index``-th request (from 1)."""
    if request_index % BAD_EVERY == 0:
        return NO_VECTOR_REPLY
    user_turns = [m["content"] for m in body["messages"] if m["role"] == "user"]
    return "[" + ", ".join(str(v) for v in recombine(user_turns[0])) + "]"


class StubServer(HTTPServer):
    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), Handler)
        self.timeout = 0.2
        self.requests = 0
        self.connections = 0
        self.service_s = 0.0

    def get_request(self):
        conn = super().get_request()
        self.connections += 1
        return conn

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "connections": self.connections,
            "service_s": self.service_s,
        }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10.0  # a client that leaves a keep-alive connection idle
    server: StubServer

    def do_POST(self) -> None:
        start = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.requests += 1
        text = reply_text(body, self.server.requests)
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": text}}]}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.wfile.flush()
        self.server.service_s += time.perf_counter() - start

    def log_message(self, format, *args) -> None:  # noqa: A002 - base signature
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="stand-in chat endpoint")
    parser.add_argument("--stats", required=True, help="where to write counts on exit")
    args = parser.parse_args(argv)

    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    server = StubServer()
    try:
        print(server.server_address[1], flush=True)
        while not stopping:
            server.handle_request()
    finally:
        server.server_close()
        with open(args.stats, "w", encoding="utf-8") as handle:
            json.dump(server.stats(), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
