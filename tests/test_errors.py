import ast
from pathlib import Path

from katanpipe import errors

SRC = Path(errors.__file__).parent


def raised_names(path):
    """Names of the exception types a module raises by name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_reason_type_is_raised_somewhere():
    # A reason no code raises is a name the wire protocol can never carry.
    raised = set()
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            raised |= raised_names(path)
    reasons = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.KatanPipeError)
               and obj is not errors.KatanPipeError}
    assert reasons
    assert sorted(reasons - raised) == []
