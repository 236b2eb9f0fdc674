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
    connections = 0
    # The reply body, or a function of the request's JSON that returns it.
    answer = json.dumps(
        {"choices": [{"message": {"role": "assistant", "content": "[42, 24]"}}]}
    ).encode()
    status = 200
    stall = 0.0  # seconds to wait before replying
    hold = None  # a threading.Event that each reply waits for

    def setup(self):
        super().setup()
        type(self).connections += 1

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append({
            "path": self.path,
            "host": self.headers.get("Host"),
            "auth": self.headers.get("Authorization"),
            "proxy_auth": self.headers.get("Proxy-Authorization"),
            "agent": self.headers.get("User-Agent"),
            "type": self.headers.get("Content-Type"),
            "connection": self.headers.get("Connection"),
            "body": body,
        })
        time.sleep(type(self).stall)
        if type(self).hold is not None:
            type(self).hold.wait(timeout=10)
        answer = type(self).answer
        out = answer(body) if callable(answer) else answer
        try:
            self.send_response(type(self).status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            self.wfile.write(out)
        except OSError:
            pass  # a client that timed out has hung up

    def do_CONNECT(self):
        """As a proxy that refuses every tunnel."""
        type(self).seen.append({
            "path": self.path, "proxy_auth": self.headers.get("Proxy-Authorization")
        })
        self.send_error(502)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_handler():
    """The stand-in's handler class: set ``answer``, ``status``, ``stall`` or
    ``hold`` on it, and read the requests it saw from ``seen`` and the
    connections it accepted from ``connections``."""
    return type("ChatHandler", (_ChatHandler,), {"seen": []})


def _serve(handler):
    """Serve ``handler`` on a localhost port, one connection at a time."""
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    # shutdown() waits for the server's next poll, 0.5 s apart by default
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()
    thread.join()


@pytest.fixture
def local_endpoint(chat_handler):
    """URL of a local HTTP/1.0 chat endpoint that answers ``[42, 24]`` by
    default and closes the connection after each reply."""
    yield from _serve(chat_handler)


@pytest.fixture
def keepalive_endpoint(chat_handler):
    """The same stand-in on HTTP/1.1.  It keeps each connection open until
    the client closes it or leaves it idle for the handler's ``timeout``, and
    writes a reply's headers and body as two segments with Nagle's algorithm
    on.  A connection the client leaks holds up the next one that long."""
    chat_handler.protocol_version = "HTTP/1.1"
    chat_handler.timeout = 5.0
    yield from _serve(chat_handler)
