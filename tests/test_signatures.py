"""The sigma table is the one input that names a graph.

A public function that took a table together with a graph or a
representation could be handed two that disagree.  The benchmark drives
``cli.parse_expression(src, graph, table)`` with that argument list, so it
is the one exemption.
"""

import inspect
import re

import pytest

from skeintorus import cli, embed, repbuild

EXEMPT = {"skeintorus.cli.parse_expression"}


def _public_callables(module):
    """(qualified name, callable) for the module's public functions and the
    public methods of its public classes, all defined in the module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member) and (attr == "__init__"
                                                   or not attr.startswith("_")):
                    yield f"{module.__name__}.{name}.{attr}", member


def _annotated_names(func) -> set[str]:
    """The class names read in the annotations of the function's parameters."""
    names = set()
    for param in inspect.signature(func).parameters.values():
        if param.annotation is not inspect.Parameter.empty:
            names |= set(re.findall(r"[A-Za-z_]\w*", str(param.annotation)))
    return names


@pytest.mark.parametrize("module", [embed, repbuild, cli], ids=lambda m: m.__name__)
def test_no_function_takes_a_table_with_a_graph_or_a_rep(module):
    offenders = []
    for qualname, func in _public_callables(module):
        names = _annotated_names(func)
        if "SigmaTable" in names and names & {"SausageGraph", "Rep"} and qualname not in EXEMPT:
            offenders.append(qualname)
    assert offenders == []


def test_the_guard_reads_annotations():
    # the exempt signature is the one the guard would otherwise flag
    assert {"SigmaTable", "SausageGraph"} <= _annotated_names(cli.parse_expression)
    assert "SigmaTable" in _annotated_names(embed.run_identity_suite)
    assert "Rep" in _annotated_names(repbuild.verify_cshadow)
