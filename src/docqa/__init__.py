"""Turn OCR'd document pages into reading-ordered text prompts and score the answers.

The pipeline stages live in their own modules and compose through plain data:

- geometry: words, boxes, documents, corpus ingestion
- ordering: reading-order strategies (standard, raster scan, shuffled)
- serialize: context strings, prompt template, token budgets
- metrics: exact match, ANLS, relaxed accuracy, VQA accuracy
- analysis: perplexity, answer-in-text, context-length reports
- datasets: QA records, benchmark configs, mixture samplers
- llmclient: endpoint and mock backends, plus the predict_batch fan-out
- cli: file-based pipeline commands

Records are checked once, where they enter, by the value rules of
docqa.errors: the file loaders, the endpoint parser (`HTTPBackend.complete`)
and the CLI's argument types. The records
(named tuples, and the Document class) check nothing, so untrusted data
should go through a loader.
"""

__version__ = "0.1.0"
