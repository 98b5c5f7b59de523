"""Pinned golden ``ExplainResponse`` wire document.

``golden_explain_response.json`` is the exact wire response for
``ExplainRequest(scenario="Q1", scale=20)`` from a fresh
service (timings emptied — they are the only non-deterministic field).  Any
diff here means the wire format changed: either revert the accidental
break, or — for a deliberate, policy-compliant change — regenerate the
fixture and document the change in ``docs/API.md``.

Regenerate with::

    PYTHONPATH=src python - <<'EOF'
    import json
    from repro.api import ExplainRequest, ExplanationService
    response = ExplanationService().explain(ExplainRequest(scenario="Q1", scale=20))
    document = response.to_json()
    document["result"]["timings"] = {}
    with open("tests/api/golden_explain_response.json", "w") as fh:
        json.dump(document, fh, ensure_ascii=True, indent=1, sort_keys=True)
        fh.write("\n")
    EOF
"""

import json
from pathlib import Path

from repro.api import ExplainRequest, ExplanationService

GOLDEN = Path(__file__).parent / "golden_explain_response.json"


def test_explain_response_matches_golden_fixture():
    response = ExplanationService().explain(ExplainRequest(scenario="Q1", scale=20))
    document = response.to_json()
    document["result"]["timings"] = {}
    golden = json.loads(GOLDEN.read_text())
    assert json.dumps(document, sort_keys=True) == json.dumps(golden, sort_keys=True)


def test_golden_fixture_is_wire_version_2():
    golden = json.loads(GOLDEN.read_text())
    assert golden["format"] == 2
    assert golden["kind"] == "explain-response"
    assert golden["result"]["explanations"], "fixture must pin real explanations"
