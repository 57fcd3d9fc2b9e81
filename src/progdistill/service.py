"""Client for an external program-generation service.

Wire protocol: HTTP POST of a JSON object {"question": str,
"prompt_profile": str} to the configured endpoint; the response body is a JSON
object {"program_text": str}, returned verbatim. The prompt profile selects
between pointer and non-pointer usage exemplars on the service side; the
client passes it through untouched.

Any transport or protocol failure raises ServiceError, which is distinct from
a ParseError: callers route returned program text through run_with_fallback,
while a service error is a pipeline-level condition (the CLI can be told to
fall back to template generation instead).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

ENDPOINT_ENV_VAR = "PROGDISTILL_PROGRAM_SERVICE"

PROFILE_POINTER = "pointer"
PROFILE_PLAIN = "plain"


class ServiceError(RuntimeError):
    exit_code = 5


@dataclass
class ProgramServiceClient:
    endpoint: str
    timeout: float = 5.0

    def generate(self, question: str, prompt_profile: str = PROFILE_POINTER) -> str:
        # Imported here, not at module level: urllib.request loads http.client,
        # email, ssl and socket, which only the service program source uses.
        import urllib.error
        import urllib.request
        payload = json.dumps({"question": question,
                              "prompt_profile": prompt_profile}).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint, data=payload,
            headers={"Content-Type": "application/json"}, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read()
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ServiceError(f"program service unreachable: {exc}") from exc
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"program service returned bad JSON: {exc}") from exc
        if not isinstance(decoded, dict):
            raise ServiceError("program service response is not a JSON object")
        program = decoded.get("program_text")
        if not isinstance(program, str):
            raise ServiceError("program service response missing 'program_text'")
        return program

