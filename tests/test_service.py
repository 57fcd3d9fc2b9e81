import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from progdistill.service import ProgramServiceClient, ServiceError

CANNED_PROGRAM = 'ps = image.find("flower")\nreturn ps[0].simple_query("What is this?")\n'


class _StubHandler(BaseHTTPRequestHandler):
    requests_seen: list[dict] = []
    mode = "ok"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        type(self).requests_seen.append(payload)
        if type(self).mode == "bad_json":
            body = b"not json at all"
        elif type(self).mode == "missing_key":
            body = json.dumps({"nope": 1}).encode()
        elif type(self).mode == "non_object":
            body = json.dumps([1, 2]).encode()
        else:
            body = json.dumps({"program_text": CANNED_PROGRAM}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.requests_seen = []
    _StubHandler.mode = "ok"
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()


class TestClient:
    def test_canned_program_round_trip(self, stub_server):
        client = ProgramServiceClient(stub_server, timeout=2.0)
        program = client.generate("What color is the flower?", "pointer")
        assert program == CANNED_PROGRAM

    def test_request_carries_question_and_profile(self, stub_server):
        client = ProgramServiceClient(stub_server, timeout=2.0)
        client.generate("Is there a dog?", "plain")
        assert _StubHandler.requests_seen[-1] == {
            "question": "Is there a dog?", "prompt_profile": "plain"}

    def test_unreachable_endpoint(self):
        client = ProgramServiceClient("http://127.0.0.1:1/generate", timeout=0.5)
        with pytest.raises(ServiceError):
            client.generate("q?", "pointer")

    def test_bad_json_response(self, stub_server):
        _StubHandler.mode = "bad_json"
        client = ProgramServiceClient(stub_server, timeout=2.0)
        with pytest.raises(ServiceError):
            client.generate("q?", "pointer")

    def test_missing_program_text_key(self, stub_server):
        _StubHandler.mode = "missing_key"
        client = ProgramServiceClient(stub_server, timeout=2.0)
        with pytest.raises(ServiceError):
            client.generate("q?", "pointer")

    def test_non_object_response(self, stub_server):
        _StubHandler.mode = "non_object"
        client = ProgramServiceClient(stub_server, timeout=2.0)
        with pytest.raises(ServiceError):
            client.generate("q?", "pointer")
