"""API-stability gate: the public surface must match a committed snapshot.

Renders ``repro.__all__`` — every name's kind, every function's parameter
list, every class's public methods — into a canonical text form and diffs it
against ``tests/api_surface.txt``.  Silent drift (a renamed parameter, a
dropped export, a signature change) fails this test; intentional changes
regenerate the snapshot in the same commit::

    QCORAL_UPDATE_API_SURFACE=1 PYTHONPATH=src python -m pytest tests/test_api_surface.py

The rendering deliberately omits type annotations (their ``repr`` varies
across Python versions) and keeps only parameter names and default values,
which are stable on every version CI runs.
"""

import inspect
import os
import warnings

import repro

SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "api_surface.txt")


def _parameters(obj) -> str:
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(?)"
    rendered = []
    for parameter in signature.parameters.values():
        name = parameter.name
        if parameter.kind == parameter.VAR_POSITIONAL:
            name = "*" + name
        elif parameter.kind == parameter.VAR_KEYWORD:
            name = "**" + name
        if parameter.default is not parameter.empty:
            name += f"={parameter.default!r}"
        rendered.append(name)
    return "(" + ", ".join(rendered) + ")"


def _class_lines(name, cls):
    yield f"class {name}{_parameters(cls)}"
    for attr_name in sorted(vars(cls)):
        if attr_name.startswith("_"):
            continue
        attr = inspect.getattr_static(cls, attr_name)
        if isinstance(attr, property):
            yield f"  {attr_name}: property"
        elif isinstance(attr, staticmethod):
            yield f"  {attr_name}: staticmethod{_parameters(attr.__func__)}"
        elif isinstance(attr, classmethod):
            yield f"  {attr_name}: classmethod{_parameters(attr.__func__)}"
        elif inspect.isfunction(attr):
            yield f"  {attr_name}: method{_parameters(attr)}"


def render_surface() -> str:
    lines = []
    for name in sorted(repro.__all__):
        obj = getattr(repro, name)
        if inspect.isclass(obj):
            lines.extend(_class_lines(name, obj))
        elif inspect.isfunction(obj) or inspect.isbuiltin(obj):
            lines.append(f"def {name}{_parameters(obj)}")
        else:
            lines.append(f"{name} = {obj!r}")
    return "\n".join(lines) + "\n"


def test_public_api_matches_snapshot():
    rendered = render_surface()
    if os.environ.get("QCORAL_UPDATE_API_SURFACE"):
        with open(SNAPSHOT_PATH, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    with open(SNAPSHOT_PATH, "r", encoding="utf-8") as handle:
        snapshot = handle.read()
    assert rendered == snapshot, (
        "public API surface drifted from tests/api_surface.txt; if the change "
        "is intentional, regenerate the snapshot with "
        "QCORAL_UPDATE_API_SURFACE=1 and commit it with this change"
    )


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_star_import_is_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        namespace = {}
        exec("from repro import *", namespace)  # noqa: S102 - deliberate star-import probe
    assert "Session" in namespace
    assert "quantify" not in namespace


def test_py_typed_marker_ships():
    package_dir = os.path.dirname(repro.__file__)
    assert os.path.exists(os.path.join(package_dir, "py.typed"))
