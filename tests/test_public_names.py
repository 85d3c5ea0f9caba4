"""The package's exported and documented names must exist.

Every name in `rosenblatt.__all__` must resolve, and the README's
"Library" example must run as written, so a deleted or renamed name
fails here rather than in a reader's session.
"""

import re
from pathlib import Path

import rosenblatt

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exported_names_resolve_and_the_readme_library_block_runs():
    missing = [name for name in rosenblatt.__all__ if not hasattr(rosenblatt, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
    match = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.DOTALL)
    assert match, "README has no Library code block"
    exec(compile(match.group(1), "README.md: Library", "exec"), {})
