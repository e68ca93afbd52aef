"""The benchmark's layer map still names callables that exist where it wraps them.

perfbench's tracer replaces each method in ``layers.METHODS`` through its
class's own ``__dict__`` and runs the counting hooks of ``layers.HOOKS`` by
span name, so a renamed, moved or inherited callable would break the
benchmark without failing any library test.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import layers

        yield layers


def test_methods_are_defined_on_their_own_class(layers):
    _, methods = layers.targets()
    assert len(methods) == sum(len(attrs) for per_layer in layers.METHODS.values() for attrs in per_layer.values())
    for (cls, attr), name in methods.items():
        assert attr in cls.__dict__, f"{name} is not defined on {cls.__name__} itself"


def test_every_hook_is_traced(layers):
    functions, methods = layers.targets()
    traced = set(functions.values()) | set(methods.values())
    assert set(layers.HOOKS) <= traced, sorted(set(layers.HOOKS) - traced)
