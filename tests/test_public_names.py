"""The package's exported and documented names must exist and be reached.

Every name in `rosenblatt.__all__` must resolve, and the README's
"Library" example must run as written, so a deleted or renamed name
fails here rather than in a reader's session.  Every exported function
or other non-class name must also be named by a command (`cli.py`), an
acceptance gate (`test_acceptance.py`) or the README; classes are the
result and exception types of those calls.
"""

import inspect
import re
from pathlib import Path

import rosenblatt

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
CALLERS = (ROOT / "src" / "rosenblatt" / "cli.py", ROOT / "tests" / "test_acceptance.py", README)


def test_exported_names_resolve_and_the_readme_library_block_runs():
    missing = [name for name in rosenblatt.__all__ if not hasattr(rosenblatt, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
    match = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.DOTALL)
    assert match, "README has no Library code block"
    exec(compile(match.group(1), "README.md: Library", "exec"), {})


def test_every_exported_function_has_a_command_gate_or_readme_caller():
    text = "\n".join(path.read_text(encoding="utf-8") for path in CALLERS)
    unreached = [name for name in rosenblatt.__all__
                 if not inspect.isclass(getattr(rosenblatt, name))
                 and not re.search(rf"\b{name}\b", text)]
    assert not unreached, f"exported names no command, gate or README line reaches: {unreached}"
