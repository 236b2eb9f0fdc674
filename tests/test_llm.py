"""Prompt rendering, reply parsing, retry policy, and the offline proposer."""

import gc
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapeopt
from shapeopt import cli
from shapeopt.evolution import Bounds, ProposerError, ScoredRecord, decode_design
from shapeopt.llm import (
    MAX_RETRIES,
    SYSTEM_PROMPT,
    LlmConfig,
    LlmProposer,
    MockProposer,
    ResponseParseError,
    TransportError,
    _extract_text,
    _http_transport,
    build_prompt,
    format_reminder,
    mock_propose,
    parse_mean_response,
    propose_mean_via_llm,
)

BOUNDS2 = Bounds.uniform(2, -1.0, 1.0)


def record(design, score):
    return ScoredRecord(np.asarray(design, dtype=float), score, 0)


# ------------------------------------------------------------------ prompt

FROZEN_PROMPT = (
    "You are running an evolutionary optimization. Each iteration samples a"
    " population of design vectors around a mean vector, evaluates them, and"
    " records the scores. Study the records below and propose the mean design"
    " vector for the next iteration so that future scores increase."
    "\n\n"
    "The design vector has 2 components. Objective: minimize drag"
    "\n\n"
    "Every component is an integer in the range 0 to 1000 inclusive."
    "\n\n"
    "Scored records, ordered weakest to strongest (higher score is better):\n"
    "values: [0, 0], score: 0.5\n"
    "values: [1000, 1000], score: 1.25\n\n"
    "Propose the mean design vector for the next iteration."
    "\n\n"
    "Reply with exactly one bracketed comma-separated list of 2 integers,"
    " for example [500, 500], and nothing else."
)


def test_prompt_snapshot():
    bundle = build_prompt(
        [record([-1.0, -1.0], 0.5), record([1.0, 1.0], 1.25)],
        BOUNDS2,
        "minimize drag",
    )
    assert bundle.text == FROZEN_PROMPT
    assert bundle.dimension == 2


def test_prompt_has_five_parts_in_order():
    bundle = build_prompt([record([0.0, 0.0], 1.0)], BOUNDS2, "obj")
    parts = bundle.text.split("\n\n")
    # the records part itself contains a blank line before the request
    assert len(parts) == 6
    assert "evolutionary optimization" in parts[0]
    assert "2 components" in parts[1] and "obj" in parts[1]
    assert "0 to 1000" in parts[2]
    assert parts[3].startswith("Scored records") and "values:" in parts[3]
    assert parts[4] == "Propose the mean design vector for the next iteration."
    assert parts[5].startswith("Reply with exactly one")


def test_prompt_one_line_per_record_in_given_order():
    records = [record([x, x], float(i)) for i, x in enumerate([-1.0, 0.0, 1.0])]
    text = build_prompt(records, BOUNDS2, "obj").text
    lines = [line for line in text.splitlines() if line.startswith("values:")]
    assert lines == [
        "values: [0, 0], score: 0",
        "values: [500, 500], score: 1",
        "values: [1000, 1000], score: 2",
    ]


def test_prompt_score_formatting():
    text = build_prompt([record([0.0, 0.0], 0.123456789)], BOUNDS2, "o").text
    assert "score: 0.123457" in text  # six significant digits


def test_prompt_requires_records():
    with pytest.raises(ValueError):
        build_prompt([], BOUNDS2, "obj")


def test_prompt_deterministic():
    records = [record([0.25, -0.5], 2.0)]
    assert (
        build_prompt(records, BOUNDS2, "obj").text
        == build_prompt(records, BOUNDS2, "obj").text
    )


def test_system_prompt_is_separate_from_user_prompt():
    bundle = build_prompt([record([0.0, 0.0], 1.0)], BOUNDS2, "obj")
    assert SYSTEM_PROMPT not in bundle.text


# ----------------------------------------------------------------- parsing

def test_parse_plain_vector():
    assert np.array_equal(parse_mean_response("[1, 2, 3]", 3), [1, 2, 3])


def test_parse_tolerates_surrounding_prose():
    text = "Looking at the trend, I suggest:\n[500, 250, 750]\nGood luck!"
    assert np.array_equal(
        parse_mean_response(text, 3), [500, 250, 750]
    )


def test_parse_takes_last_vector():
    text = "Previously [1, 1] worked, but now try [900, 100]."
    assert np.array_equal(parse_mean_response(text, 2), [900, 100])


def test_parse_whitespace_variants():
    assert np.array_equal(
        parse_mean_response("[ 10 ,20,  30 ]", 3), [10, 20, 30]
    )


def test_parse_error_taxonomy():
    for text, message in (
        ("no list here", "no bracketed integer list"),
        ("[1.5, 2.5]", "no bracketed integer list"),  # floats are not integer lists
        ("[1, 2, 3]", "expected 2 components, got 3"),
        ("[0, 1001]", r"components must lie in \[0, 1000\], got \[0, 1001\]"),
        ("[-1, 5]", r"components must lie in \[0, 1000\], got \[-1, 5\]"),
    ):
        with pytest.raises(ResponseParseError, match=message):
            parse_mean_response(text, 2)


def test_parse_boundary_values():
    assert np.array_equal(parse_mean_response("[0, 1000]", 2), [0, 1000])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=8))
def test_render_parse_round_trip(components):
    text = "[" + ", ".join(str(c) for c in components) + "]"
    parsed = parse_mean_response(text, len(components))
    assert parsed.tolist() == components


def test_format_reminder_mentions_dimension_and_example():
    msg = format_reminder(3)
    assert "3 integers" in msg and "[500, 500, 500]" in msg


# ------------------------------------------------------------ mock proposer

def test_mock_single_record_is_identity():
    out = mock_propose([record([0.25, -0.5], 1.0)], BOUNDS2)
    assert np.array_equal(out, [625, 250])


def test_mock_two_record_log_rank_blend():
    # weights ln3-ln1 : ln3-ln2 normalized -> 0.7304.. and 0.2695..
    out = mock_propose(
        [record([-1.0, -1.0], 1.0), record([1.0, 1.0], 0.5)], BOUNDS2
    )
    w2 = (math.log(3) - math.log(2)) / (2 * math.log(3) - math.log(2))
    assert np.array_equal(out, np.floor(np.array([w2, w2]) * 1000 + 0.5))
    assert np.array_equal(out, [270, 270])


def test_mock_identical_records_fixed_point():
    records = [record([0.2, 0.2], s) for s in (1.0, 2.0, 3.0)]
    assert np.array_equal(mock_propose(records, BOUNDS2), [600, 600])


def test_mock_uses_at_most_four_best():
    # a catastrophic fifth-best record must not influence the result
    good = [record([0.5, 0.5], 10.0 - i) for i in range(4)]
    noise = [record([-1.0, -1.0], -100.0)]
    assert np.array_equal(
        mock_propose(good + noise, BOUNDS2), mock_propose(good, BOUNDS2)
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mock_stays_in_encoded_hull(data):
    n = data.draw(st.integers(1, 7))
    records = [
        record(
            [data.draw(st.floats(-1, 1)), data.draw(st.floats(-1, 1))],
            data.draw(st.floats(-5, 5, allow_nan=False)),
        )
        for _ in range(n)
    ]
    out = mock_propose(records, BOUNDS2)
    encoded = np.array([np.floor((r.design + 1) / 2 * 1000 + 0.5) for r in records])
    assert np.all(out >= encoded.min(axis=0) - 1)
    assert np.all(out <= encoded.max(axis=0) + 1)
    assert out.dtype.kind == "i"


def test_mock_proposer_decodes_to_design_space():
    proposer = MockProposer()
    out = proposer.propose([record([0.25, -0.5], 1.0)], BOUNDS2)
    assert np.allclose(out, [0.25, -0.5])
    assert BOUNDS2.contains(out)


def test_mock_requires_records():
    with pytest.raises(ValueError):
        mock_propose([], BOUNDS2)


# ------------------------------------------------------------- retry policy

class ScriptedTransport:
    """Returns canned replies (or raises) and keeps every payload."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.payloads = []

    def __call__(self, payload):
        self.payloads.append(json.loads(json.dumps(payload)))  # deep copy
        item = self.replies.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def make_bundle():
    return build_prompt([record([0.0, 0.0], 1.0)], BOUNDS2, "obj")


def make_config(**kwargs):
    return LlmConfig(endpoint="http://unit.test/v1", model="test-model", **kwargs)


def test_first_attempt_success():
    transport = ScriptedTransport(["[10, 20]"])
    mean = propose_mean_via_llm(make_bundle(), make_config(), transport)
    assert np.array_equal(mean, [10, 20])
    payload = transport.payloads[0]
    assert payload["temperature"] == 0.0
    assert payload["model"] == "test-model"
    assert [m["role"] for m in payload["messages"]] == ["system", "user"]
    assert payload["messages"][0]["content"] == SYSTEM_PROMPT


def test_parse_failure_appends_reply_and_reminder():
    transport = ScriptedTransport(["I think 500ish", "[500, 500]"])
    mean = propose_mean_via_llm(make_bundle(), make_config(), transport)
    assert np.array_equal(mean, [500, 500])
    retry = transport.payloads[1]["messages"]
    assert [m["role"] for m in retry] == ["system", "user", "assistant", "user"]
    assert retry[2]["content"] == "I think 500ish"
    assert retry[3]["content"] == format_reminder(2)


def test_transport_failure_retries_same_payload():
    transport = ScriptedTransport([TransportError("down"), "[1, 2]"])
    mean = propose_mean_via_llm(make_bundle(), make_config(), transport)
    assert np.array_equal(mean, [1, 2])
    assert transport.payloads[0] == transport.payloads[1]


def test_attempts_exhausted_raises_proposer_error():
    transport = ScriptedTransport(["junk", "junk", "junk"])
    with pytest.raises(ProposerError):
        propose_mean_via_llm(make_bundle(), make_config(max_retries=2), transport)
    assert len(transport.payloads) == 3


def test_zero_retries_means_one_attempt():
    transport = ScriptedTransport([TransportError("down"), "[1, 2]"])
    with pytest.raises(ProposerError):
        propose_mean_via_llm(make_bundle(), make_config(max_retries=0), transport)
    assert len(transport.payloads) == 1


def test_audit_log_one_line_per_attempt():
    entries = []
    transport = ScriptedTransport(["gibberish", "[7, 8]"])
    propose_mean_via_llm(make_bundle(), make_config(), transport, entries.append)
    assert [e["attempt"] for e in entries] == [0, 1]
    assert entries[0]["response"] == "gibberish" and "error" in entries[0]
    assert entries[1]["parsed"] == [7, 8]
    assert all(e["request"]["temperature"] == 0.0 for e in entries)


def test_config_rejects_negative_retries():
    with pytest.raises(ValueError):
        make_config(max_retries=-1)


def test_config_bounds_retries():
    assert make_config(max_retries=MAX_RETRIES).max_retries == MAX_RETRIES
    for retries in (MAX_RETRIES + 1, 2**62):
        with pytest.raises(ValueError, match="max_retries"):
            make_config(max_retries=retries)


@pytest.mark.parametrize(
    "endpoint",
    [
        "http://x/v1",
        "https://api.example.com/v1/chat/completions",
        "HTTP://127.0.0.1:8080/v1?key=a%20b",
        "http://[::1]:8080/v1",
    ],
)
def test_config_accepts_http_urls(endpoint):
    assert LlmConfig(endpoint=endpoint, model="m").endpoint == endpoint


@pytest.mark.parametrize(
    "endpoint",
    [
        "foo",
        "",
        "ftp://127.0.0.1/x",
        "file:///etc/passwd",
        "127.0.0.1:8080/v1",
        "http://",
        "http:///v1",
        "http://:8080/v1",
        "http://x:99999/v1",
        "http://x:port/v1",
        "http://[::1/v1",
        "http://x/chat completions",
        "http://x/v1\n",
        "http://x/d\u00e9mo",
    ],
)
def test_config_refuses_what_the_transport_cannot_send(endpoint):
    with pytest.raises(ValueError, match="endpoint must be an http or https URL"):
        LlmConfig(endpoint=endpoint, model="m")


def test_llm_proposer_end_to_end():
    transport = ScriptedTransport(["[750, 250]"])
    proposer = LlmProposer(make_config(), "maximize reward", transport=transport)
    out = proposer.propose([record([0.0, 0.0], 1.0)], BOUNDS2)
    assert np.allclose(out, decode_design(np.array([750, 250]), BOUNDS2))
    assert "maximize reward" in transport.payloads[0]["messages"][1]["content"]


def test_content_block_list_replies_are_joined():
    body = {
        "choices": [
            {
                "message": {
                    "role": "assistant",
                    "content": [
                        {"type": "text", "text": "answer: "},
                        {"type": "text", "text": "[3, 4]"},
                    ],
                }
            }
        ]
    }

    def transport(payload):
        return _extract_text(body)

    mean = propose_mean_via_llm(make_bundle(), make_config(), transport)
    assert np.array_equal(mean, [3, 4])


def test_extract_text_joins_content_blocks():
    # blocks that are not objects, or carry no text, add nothing
    blocks = [{"type": "text", "text": "[1, "}, {"type": "image"}, "x", {"text": "2]"}]
    body = {"choices": [{"message": {"content": blocks}}]}
    assert _extract_text(body) == "[1, 2]"


@pytest.mark.parametrize(
    "body, message",
    [
        ({"error": "overloaded"}, "unexpected response shape"),
        ({"choices": []}, "unexpected response shape"),
        ({"choices": [{"message": {"content": 42}}]}, "unsupported content type int"),
        ({"choices": [{"message": {"content": None}}]}, "unsupported content type"),
    ],
)
def test_extract_text_refuses_other_shapes(body, message):
    with pytest.raises(TransportError, match=message):
        _extract_text(body)


# ----------------------------------------------------------- http transport

PAYLOAD = {
    "model": "m",
    "temperature": 0.0,
    "messages": [
        {"role": "system", "content": SYSTEM_PROMPT},
        {"role": "user", "content": 'values: [0, 1000], score: -0.5\n"quoted" \u00e9'},
    ],
}


def test_http_transport_round_trip(local_endpoint, chat_handler, monkeypatch):
    monkeypatch.setenv("SHAPEOPT_API_KEY", "sk-unit-test")
    cfg = LlmConfig(endpoint=local_endpoint, model="m")
    mean = propose_mean_via_llm(make_bundle(), cfg, _http_transport(cfg))
    assert np.array_equal(mean, [42, 24])
    seen = chat_handler.seen[0]
    assert seen["auth"] == "Bearer sk-unit-test"
    assert seen["body"]["temperature"] == 0.0
    assert seen["body"]["messages"][0]["role"] == "system"


def test_http_transport_no_key_sends_no_auth_header(local_endpoint, chat_handler, monkeypatch):
    monkeypatch.delenv("SHAPEOPT_API_KEY", raising=False)
    cfg = LlmConfig(endpoint=local_endpoint, model="m")
    propose_mean_via_llm(make_bundle(), cfg, _http_transport(cfg))
    assert chat_handler.seen[0]["auth"] is None


def test_http_transport_sends_the_payload_as_json_with_its_user_agent(local_endpoint, chat_handler):
    send = _http_transport(LlmConfig(endpoint=local_endpoint, model="m"))
    assert send(PAYLOAD) == "[42, 24]"
    assert send(PAYLOAD) == "[42, 24]"  # one sender serves every request
    assert [seen["body"] for seen in chat_handler.seen] == [PAYLOAD, PAYLOAD]
    assert chat_handler.seen[0]["agent"] == f"shapeopt/{shapeopt.__version__}"
    assert chat_handler.seen[0]["type"] == "application/json"


@pytest.mark.parametrize("key", ["sk-unit\n", "sk unit", "sk-\u043a\u043b\u044e\u0447"])
def test_http_transport_refuses_a_key_no_header_can_carry(key, monkeypatch):
    monkeypatch.setenv("SHAPEOPT_API_KEY", key)
    with pytest.raises(ValueError, match="SHAPEOPT_API_KEY must be printable ASCII") as excinfo:
        _http_transport(make_config())
    assert "sk" not in str(excinfo.value)


def test_http_error_status_is_transport_error_and_closes_the_reply(local_endpoint, chat_handler):
    chat_handler.status = 500
    send = _http_transport(LlmConfig(endpoint=local_endpoint, model="m"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TransportError, match="HTTP 500") as excinfo:
            send(PAYLOAD)
        # Not every Python warns when an unclosed reply is collected.
        assert excinfo.value.__cause__.fp.isclosed()
        del excinfo
        gc.collect()
    assert [str(w.message) for w in caught] == []


def test_http_transport_times_out_as_transport_error(local_endpoint, chat_handler):
    chat_handler.stall = 0.6
    send = _http_transport(LlmConfig(endpoint=local_endpoint, model="m", timeout=0.2))
    with pytest.raises(TransportError):
        send(PAYLOAD)  # the reply would arrive, unusable only by its lateness


def test_http_transport_connection_refused_is_transport_error():
    cfg = LlmConfig(endpoint="http://127.0.0.1:9/v1", model="m", timeout=1.0)
    send = _http_transport(cfg)
    with pytest.raises(TransportError):
        send({"model": "m", "temperature": 0.0, "messages": []})


def test_http_transport_non_json_body_is_transport_error(local_endpoint, chat_handler):
    chat_handler.answer = b"<html>busy</html>"
    send = _http_transport(LlmConfig(endpoint=local_endpoint, model="m"))
    with pytest.raises(TransportError, match="response is not JSON"):
        send({"model": "m", "temperature": 0.0, "messages": []})
    assert len(chat_handler.seen) == 1


def test_cli_run_audits_each_proposal(local_endpoint, tmp_path):
    doc = {
        "problem": "analytic_test",
        "optimizer": "llm",
        "dimension": 2,
        "budget": 4,
        "n_ini": 2,
        "llm": {"endpoint": local_endpoint, "model": "m"},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    audits = []
    for out in ("first", "second"):
        argv = ["run", "--config", str(config), "--out", str(tmp_path / out)]
        assert cli.main(argv) == 0
        audits.append((tmp_path / out / "seed_0" / "llm_audit.jsonl").read_bytes())
    entries = [json.loads(line) for line in audits[0].decode().splitlines()]
    # two proposed generations after the two seeded ones, one attempt each
    assert [e["parsed"] for e in entries] == [[42, 24], [42, 24]]
    assert audits[1] == audits[0]
