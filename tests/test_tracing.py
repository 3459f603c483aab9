"""The benchmark tracer (perfbench/tracer.py) still finds every layer it times.

A refactor that renames or removes a traced function would otherwise only
make the benchmark print a warning and report 0 for that layer. The check
runs in a subprocess, so the tracer's wrappers never leak into other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import docqa.cli  # imports every docqa module the tracer wraps
import tracer
from docqa import geometry

recorder = tracer.Recorder()
missing = tracer.install(recorder)
assert missing == [], f"nothing to trace for {{missing}}"
geometry.load_ocr_corpus({corpus!r})
words = recorder.counters["geometry.load_ocr_corpus.words"]
assert words == 38, f"counted {{words}} corpus words"
names = {{span[2] for span in recorder.spans}}
assert tracer.PARSE_SPAN in names, f"no parse span among {{sorted(names)}}"
assert "geometry.load_ocr_corpus" in names, f"no load span among {{sorted(names)}}"
"""


def test_every_traced_layer_is_found():
    code = PROBE.format(
        src=str(ROOT / "src"),
        perfbench=str(ROOT / "perfbench"),
        corpus=str(ROOT / "tests" / "golden" / "input" / "corpus.jsonl"),
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
