"""The benchmark tracer (perfbench/tracer.py) still finds every layer it times.

A refactor that renames or removes a traced function would otherwise only
make the benchmark print a warning and report 0 for that layer, and one that
routes `eval` around a traced function would make that layer read 0 with no
warning at all. A corpus load that the corpus cache serves must still be
spanned and counted, with no parse span. The check runs in a subprocess, so
the tracer's wrappers never leak into other tests.
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
# The second load is a hit in the corpus cache: spanned and counted, not parsed.
first = len(recorder.spans)
geometry.load_ocr_corpus({corpus!r})
words = recorder.counters["geometry.load_ocr_corpus.words"]
assert words == 2 * 38, f"counted {{words - 38}} corpus words on a hit"
names = [span[2] for span in recorder.spans[first:]]
assert names == ["geometry.load_ocr_corpus"], f"spans of a hit: {{names}}"

code = docqa.cli.main([
    "eval", "--qa", {qa!r}, "--predictions", {predictions!r}, "--contexts", {contexts!r},
    "--dataset", "golden", "--datasets-config", {config!r}, "--out", {out!r},
])
assert code == 0, f"eval exited {{code}}"
records = sum(1 for line in open({qa!r}) if line.strip())
for name in ("metrics.score", "analysis.answer_in_text"):
    calls = sum(1 for span in recorder.spans if span[2] == name)
    assert calls == records, f"{{name}}: {{calls}} spans for {{records}} QA records"
"""


def test_every_traced_layer_is_found(tmp_path):
    golden = ROOT / "tests" / "golden"
    code = PROBE.format(
        src=str(ROOT / "src"),
        perfbench=str(ROOT / "perfbench"),
        corpus=str(golden / "input" / "corpus.jsonl"),
        qa=str(golden / "input" / "qa.jsonl"),
        config=str(golden / "input" / "benchmarks.json"),
        predictions=str(golden / "expected" / "predictions-standard-mock-echo.jsonl"),
        contexts=str(golden / "expected" / "contexts-standard.jsonl"),
        out=str(tmp_path / "eval.jsonl"),
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
