"""Each capability below is kept in one module of docqa: a line of any other
module in src/docqa that matches the capability's pattern fails its case,
which reports each such line as file:line.

The patterns match text, not code, so a bypass under another name passes.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "docqa"

# (what is kept, the one module allowed to do it, the pattern of doing it)
OWNERSHIP = [
    ("JSON is decoded only in docqa/jsonl.py", "jsonl.py",
     r"json\.loads?\(|raw_decode|JSONDecodeError|TOO_LONG"),
    ("Files are opened only in docqa/jsonl.py", "jsonl.py",
     r"open\(|os\.replace\(|os\.rename\("),
    ("Value rules are written only in docqa/errors.py", "errors.py",
     r"<=? *math\.inf|isinstance\([^)]*\bbool\b"),
    ("Fixed-set rules are written only in docqa/errors.py", "errors.py",
     r"expected one of|must be one of|unknown (strategy|metric|mixture|dataset|flag)"
     r"|has unknown keys|record is missing"),
    ("Stage headers are built and checked only in docqa/jsonl.py", "jsonl.py",
     r'header is missing|header has|this run needs|config_digest\(|"stage":'),
]


@pytest.mark.parametrize("owner, pattern", [(owner, pattern) for _, owner, pattern in OWNERSHIP],
                         ids=[kept for kept, _, _ in OWNERSHIP])
def test_a_capability_is_used_only_by_its_owner(owner, pattern):
    rule = re.compile(pattern)
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != owner
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if rule.search(line)
    ]
    assert hits == []
