"""The benchmark tracer (perfbench/tracer.py) still finds every layer it times.

A refactor that renames or removes a traced function would otherwise only
make the benchmark print a warning and report 0 for that layer, and one that
routes `serialize`, `predict` or `eval` around a traced function would make
that layer read 0 with no warning at all; truncation, called from inside
`build_context`, is the layer most easily bypassed so. A corpus load that the
corpus cache serves must still be spanned and counted, with no parse span.
The check runs in a subprocess, so the tracer's wrappers never leak into
other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json
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

# At the golden budget of 19 tokens only memo-c is cut: it has 25 tokens
# and keeps 18, since the word "los angeles" would make 20.
code = docqa.cli.main([
    "serialize", "--corpus", {corpus!r}, "--orders", {orders!r},
    "--dataset", "golden", "--datasets-config", {config!r}, "--out", {contexts_out!r},
])
assert code == 0, f"serialize exited {{code}}"
calls = sum(1 for span in recorder.spans if span[2] == "serialize.truncate_context")
assert calls == 3, f"serialize.truncate_context: {{calls}} spans for 3 documents"
cut = {{name: recorder.counters.get("serialize.truncate_context." + name)
       for name in ("truncated", "words_dropped")}}
assert cut == {{"truncated": 1, "words_dropped": 7}}, f"truncation counted {{cut}}"

# Each QA record's prompt, from the literal template over its document's
# context in the golden contexts file.
with open({contexts!r}, encoding="utf-8") as handle:
    contexts = {{row["doc_id"]: row["context"] for row in map(json.loads, list(handle)[1:])}}
with open({qa!r}, encoding="utf-8") as handle:
    questions = [json.loads(line) for line in handle if line.strip()]
chars = sum(len(f"Context: {{contexts[q['doc_id']]}} Question: {{q['question']}} Answer:")
            for q in questions)
assert (len(questions), chars) == (9, 954), f"{{len(questions)}} prompts of {{chars}} chars"
first = len(recorder.spans)
code = docqa.cli.main([
    "predict", "--qa", {qa!r}, "--contexts", {contexts!r}, "--dataset", "golden",
    "--datasets-config", {config!r}, "--backend", "mock-answer-key", "--out", {predictions_out!r},
])
assert code == 0, f"predict exited {{code}}"
names = [span[2] for span in recorder.spans[first:]]
for name, expected in (("serialize.build_prompt", 9), ("llmclient.MockBackend.complete", 9),
                       ("llmclient.predict_batch", 1), ("serialize.load_contexts", 1)):
    calls = names.count(name)
    assert calls == expected, f"{{name}}: {{calls}} spans in predict, expected {{expected}}"
found = recorder.counters.get("serialize.build_prompt.chars")
assert found == chars, f"serialize.build_prompt.chars is {{found}}, expected {{chars}}"

code = docqa.cli.main([
    "eval", "--qa", {qa!r}, "--predictions", {predictions!r}, "--contexts", {contexts!r},
    "--dataset", "golden", "--datasets-config", {config!r}, "--out", {out!r},
])
assert code == 0, f"eval exited {{code}}"
for name in ("metrics.score", "analysis.answer_in_text"):
    calls = sum(1 for span in recorder.spans if span[2] == name)
    assert calls == len(questions), f"{{name}}: {{calls}} spans for {{len(questions)}} QA records"
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
        orders=str(golden / "expected" / "orders-standard.jsonl"),
        contexts_out=str(tmp_path / "contexts.jsonl"),
        predictions_out=str(tmp_path / "predictions.jsonl"),
        out=str(tmp_path / "eval.jsonl"),
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
