from dataclasses import is_dataclass

import pytest

from progdistill.backends import CorruptionProfile
from progdistill.dsl import Literal, Slot
from progdistill.worlds import (SceneGraph, SceneObject, WorldStore,
                                default_world_config, generate_world)


@pytest.fixture(scope="session")
def world():
    return default_world_config()


@pytest.fixture(scope="session")
def profile():
    return CorruptionProfile(seed=98, rho=0.3)


@pytest.fixture()
def flower_scene():
    """Hand-built scene: one red small flower, one blue large table."""
    return SceneGraph(
        scene_id="hand",
        canvas=(100, 100),
        objects=(
            SceneObject("o00", "flower", frozenset({"red", "small"}), (10, 10, 16, 16)),
            SceneObject("o01", "table", frozenset({"blue", "large"}), (50, 50, 20, 20)),
        ),
        seed=-1,
    )


@pytest.fixture()
def nested_scene():
    """Host dog with a flower nested mostly inside its box (ambiguous patch)."""
    return SceneGraph(
        scene_id="nested",
        canvas=(100, 100),
        objects=(
            SceneObject("o00", "dog", frozenset({"blue", "large"}), (20, 20, 20, 20)),
            SceneObject("o01", "flower", frozenset({"red", "small"}), (24, 24, 6, 6)),
        ),
        seed=-1,
    )


@pytest.fixture(scope="session")
def small_store(world):
    store = WorldStore()
    for seed in range(24):
        store.add(generate_world(seed, world))
    return store


def store_for(*scenes) -> WorldStore:
    store = WorldStore()
    for scene in scenes:
        store.add(scene)
    return store


def statements(program) -> tuple:
    """The program's `code` rebuilt bottom-up with a Literal for each Slot:
    the tests' view of what a text parses to. The walk keeps its own stack,
    not one Python frame per level, since a program that parses may nest
    thousands of levels deep."""
    stack: list = [(program.code, None)]
    built: list = []
    while stack:
        node, parts = stack.pop()
        if parts is not None:  # its parts are the last `len(parts)` built
            args = built[len(built) - len(parts):]
            del built[len(built) - len(parts):]
            built.append(tuple(args) if type(node) is tuple
                         else type(node)(*args))
        elif type(node) is Slot:
            built.append(Literal(program.literals[node.index]))
        elif type(node) is tuple or is_dataclass(node):
            parts = node if type(node) is tuple else [
                getattr(node, name) for name in node.__slots__]
            stack.append((node, parts))
            stack += [(part, None) for part in reversed(parts)]
        else:
            built.append(node)  # a name, operator or index of a node
    return built[0]
