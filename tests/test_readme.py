"""README's examples stay in step with the code: the library example runs
without a warning, the `focalnet eval` example shows the leading lines of
what the command prints, and the `check` example's lines are lines of the
pinned seed-7 transcript (which CI diffs against a fresh run)."""
import re
import warnings
from pathlib import Path

from focalnet import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _blocks(text: str) -> list:
    """(info string, lines) of each fenced code block, in order."""
    return [(info, body.splitlines())
            for info, body in re.findall(r"^```(\w*)\n(.*?)^```$", text,
                                         flags=re.M | re.S)]


def _block(starts: str) -> list:
    """The lines of the one plain block whose first line starts so."""
    found = [lines for info, lines in _blocks(README)
             if not info and lines and lines[0].startswith(starts)]
    assert len(found) == 1, starts
    return found[0]


def test_library_example_runs_without_warnings(capsys):
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = [lines for info, lines in _blocks(section) if info == "python"]
    assert len(code) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile("\n".join(code[0]), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_eval_example_is_what_eval_prints(capsys):
    assert "focalnet eval --surface helicoid --at 0.4,0.8\n" in README
    shown = _block("surface: helicoid")
    assert cli.main(["eval", "--surface", "helicoid", "--at", "0.4,0.8"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[:len(shown)] == shown


def test_check_example_lines_are_in_the_seed7_transcript():
    transcript = (ROOT / "tools" / "check_transcript_seed7.txt").read_text()
    pinned = set(transcript.splitlines())
    shown = _block("[PASS] ")
    claimed = [line for line in shown
               if line.startswith("[PASS] ") or line.startswith("suite 'all'")]
    assert claimed[-1].startswith("suite 'all'") and len(claimed) > 1
    for line in claimed:
        assert line in pinned, line
