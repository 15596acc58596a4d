"""Property test: no mutation of a preset scenario escapes validation."""

import copy
import re

from hypothesis import given, settings, strategies as st

from wavelab import scenario
from wavelab.errors import ConfigurationError, InvalidMediumError


def _key_paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _key_paths(child, path + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_preset_mutation_is_accepted_or_named(data):
    """A mutated preset reads to a Scenario or fails with a configuration
    error that starts with its key path, or a medium error; reading it never
    builds a mesh."""
    name = data.draw(st.sampled_from(scenario.PRESET_SCENARIOS))
    raw = copy.deepcopy(scenario.load_preset(name).raw)
    path = data.draw(st.sampled_from(list(_key_paths(raw))[1:]))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["set", "delete", "add"]))
    if action == "set":
        parent[path[-1]] = data.draw(_JSON)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[data.draw(st.text(max_size=4))] = data.draw(_JSON)
    else:
        parent.append(data.draw(_JSON))

    def no_mesh(*args, **kwargs):
        raise AssertionError("reading a scenario built a mesh")

    original, scenario.build_mesh = scenario.build_mesh, no_mesh
    try:
        assert isinstance(scenario.from_dict(raw), scenario.Scenario)
    except ConfigurationError as exc:
        assert re.match(r"^[\w.\[\]]+: ", str(exc)), str(exc)
    except InvalidMediumError:
        pass
    finally:
        scenario.build_mesh = original
