"""The README's Library examples run as written, and each print call
prints the output that its comment gives."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_examples_print_their_comments(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    comments = [line.split("#", 1)[1].strip() for block in blocks
                for line in block.splitlines() if line.startswith("print(")]
    printed = capsys.readouterr().out.splitlines()
    assert printed == comments == [
        "x^4 - 20*x^3 + 145*x^2 - 448*x + 493", "1 1 1 493", "21 2 2/21"]
