"""Test-session set-up that must run before numpy is imported.

The drag tests solve many small dense systems.  A multi-threaded BLAS
spins extra threads against the test process on such sizes and makes
the suite's wall time vary, so BLAS runs on one thread unless the
environment already says otherwise.  Subprocesses that tests start
inherit the setting.

It also holds the local chat endpoint that the LLM and CLI tests share.
"""

import http.server
import json
import os
import threading
import time

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    """A chat-completions stand-in; each test gets its own subclass."""

    seen: list = []
    answer = json.dumps(
        {"choices": [{"message": {"role": "assistant", "content": "[42, 24]"}}]}
    ).encode()
    status = 200
    stall = 0.0  # seconds to wait before replying

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        raw = self.rfile.read(length)
        type(self).seen.append({
            "auth": self.headers.get("Authorization"),
            "agent": self.headers.get("User-Agent"),
            "type": self.headers.get("Content-Type"),
            "body": json.loads(raw),
        })
        time.sleep(type(self).stall)
        out = type(self).answer
        try:
            self.send_response(type(self).status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            self.wfile.write(out)
        except OSError:
            pass  # a client that timed out has hung up

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_handler():
    """The stand-in's handler class: set ``answer``, ``status`` or ``stall``
    on it, and read the requests it saw from ``seen``."""
    return type("ChatHandler", (_ChatHandler,), {"seen": []})


@pytest.fixture
def local_endpoint(chat_handler):
    """URL of a local chat endpoint that answers ``[42, 24]`` by default."""
    server = http.server.HTTPServer(("127.0.0.1", 0), chat_handler)
    # shutdown() waits for the server's next poll, 0.5 s apart by default
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join()
