"""The README's CLI pipeline demo, run as written."""

import re
import shlex
from pathlib import Path

from docqa.cli import main
from docqa.serialize import load_contexts

README = Path(__file__).resolve().parent.parent / "README.md"


def demo_block():
    """Lines of the first sh block under the README's "CLI pipeline" heading."""
    section = README.read_text(encoding="utf-8").split("## CLI pipeline", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def run_block(lines, monkeypatch, capsys):
    """Follow `mkdir D && cd D`, write each heredoc, and run each `docqa`
    command through cli.main; returns (argv, exit code, stdout) per command."""
    results = []
    lines = iter(lines)
    for line in lines:
        if not line.strip():
            continue
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        mkdir_cd = re.fullmatch(r"mkdir (\S+) && cd \1", line)
        if heredoc:
            body = []
            for body_line in lines:
                if body_line == "EOF":
                    break
                body.append(body_line + "\n")
            Path(heredoc.group(1)).write_text("".join(body), encoding="utf-8")
        elif mkdir_cd:
            Path(mkdir_cd.group(1)).mkdir()
            monkeypatch.chdir(mkdir_cd.group(1))
        elif line.startswith("docqa "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            argv = shlex.split(line)[1:]
            code = main(argv)
            results.append((argv, code, capsys.readouterr().out))
        else:
            raise AssertionError(f"README demo line not understood: {line!r}")
    return results


def test_cli_pipeline_demo_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    results = run_block(demo_block(), monkeypatch, capsys)

    assert [argv[0] for argv, _, _ in results] == [
        "order", "serialize", "predict", "eval", "analyze"
    ]
    for argv, code, _ in results:
        assert code == 0, argv
    _, [context] = load_contexts(tmp_path / "demo" / "contexts.jsonl")
    assert context.context == "INVOICE total due: $120 paid march"
    eval_out = results[3][2]
    assert eval_out.strip() == "demo anls: 100.0 (2 examples)"
