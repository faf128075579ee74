"""The benchmark's traced functions exist in the package, and the calls it
counts on happen.

`perfbench/tracer.py` wraps each `(module, attr)` of its `SPAN_TARGETS` to
time it; a renamed or deleted target would only be reported as a missing
span in a traced benchmark run. This checks every target here instead.

`perfbench/clock.py` calibrates gen_data and eval as each `sim.step` call
returns, and the tracer times `sim.render`, both by patching the functions
under every name the package holds them by. A speed-up that stepped the
world or painted an image without calling them would silently thin the
calibration and drop spans, so the call counts are checked here. Observing
states paints both cameras in one `sim.render` call, and recording an
episode is that one call too: the episode is `sim.observe`'s palette indices
and looks no colour up.

The tracer times each backward rule by wrapping the tape's entries when
`tensor.backward` is called, before the sweep pops them; a sweep that
read its rules from anywhere else would leave them untimed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import toy_trajectory
from deskicl import engine, harness, sim
from deskicl import tensor as tn
from deskicl.data import build_sequence
from deskicl.model import ModelConfig, PolicyModel, sequence_loss
from deskicl.traces import augment_dataset

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up there
    spec.loader.exec_module(tracer)
    return tracer


def test_every_perfbench_span_target_is_a_callable_of_the_package():
    targets = _tracer().SPAN_TARGETS
    assert targets
    unresolved = []
    for span, (module, attr) in targets.items():
        owner = importlib.import_module(f"deskicl.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{span}: deskicl.{module}.{attr}")
    assert not unresolved, unresolved


@contextlib.contextmanager
def _counting(*targets: str):
    """Count calls to each `module.attr` of the package, patched through the
    tracer's `Patches` as `clock.marking` patches them."""
    calls = {target: 0 for target in targets}

    def make(target):
        def make_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[target] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make_wrapper

    patches = _tracer().Patches()
    try:
        for target in targets:
            assert patches.replace(target, *target.split("."), make(target))
        yield calls
    finally:
        patches.restore()


class _StandStill:
    """A chunk policy that proposes zero actions and renders nothing."""

    horizon = 3

    def begin(self, prompt_demos, lanes):
        pass

    def propose(self, t, states):
        return None, np.zeros((len(states), self.horizon, 4), dtype=np.float32)

    def commit(self, executed_actions):
        pass

    def keep_lanes(self, lanes):
        pass


def test_the_expert_and_the_closed_loop_step_the_world_through_sim_step():
    task = sim.TaskSpec("pick_place", 2, 1)
    with _counting("sim.step") as calls:
        states, actions, score = sim.expert_rollout(sim.reset(task, 1, 1, seed=4), task)
    assert score == 1.0 and calls["sim.step"] == len(actions) == len(states)
    poke = sim.TaskSpec("poke", 0)
    starts = [sim.reset(poke, 1, 0, seed=s) for s in range(3)]
    with _counting("sim.step") as calls:
        results = engine.rollout(_StandStill(), starts, poke, [], 7, 0.1)
    assert [r.steps_used for r in results] == [7, 7, 7]
    assert calls["sim.step"] == 21


def test_observe_renders_both_views_in_one_call():
    task = sim.TaskSpec("poke", 0)
    states = [sim.reset(task, 2, 1, seed=s) for s in range(4)]
    render = sim.render
    with _counting("sim.render") as calls:
        third, wrist, proprio = sim.observe(states, 16, 8)
    assert calls == {"sim.render": 1}
    assert third.shape == (4, 16, 16) and wrist.shape == (4, 8, 8) and proprio.shape == (4, 4)
    assert sim.render is render  # the patch is undone


def test_record_episode_renders_both_views_in_one_call_and_keeps_the_read_only_palette():
    task = sim.TaskSpec("pick_place", 1, 0)
    render = sim.render
    with _counting("sim.render") as calls:
        episode = harness.record_episode(ModelConfig(third_resolution=16, wrist_resolution=8), task, 1, 1, seed=3)
    assert calls == {"sim.render": 1}
    assert sim.render is render  # the patch is undone
    assert episode.third.shape == (len(episode), 16, 16) and episode.wrist.shape == (len(episode), 8, 8)
    assert episode.third.dtype == episode.wrist.dtype == np.uint8
    # the episode's indices mean sim.PALETTE's colours, which nothing may change
    with pytest.raises(ValueError, match="read-only"):
        sim.PALETTE[0, 0] = 0.5


def test_the_tracer_times_every_backward_rule_the_sweep_pops():
    config = ModelConfig(d_model=32, n_layers=2, n_heads=2, third_resolution=16, wrist_resolution=8, max_context=256, chunk_h=4)
    model = PolicyModel.init(config, seed=0)
    trajectories = augment_dataset([toy_trajectory(length=n, seed=n) for n in (3, 4)])
    seq = build_sequence(trajectories, 1, np.random.default_rng(0), chunk_h=4)
    traced = _tracer()
    tracer, patches = traced.Tracer(), traced.Patches()
    try:
        tracer.install(patches)
        with tn.Tape() as tape:
            loss, *_ = sequence_loss(model, seq)
            ops = [entry.backward.__qualname__.split(".", 1)[0] for entry in tape.entries]
            tn.backward(loss)
    finally:
        patches.restore()
    assert len(tape) == 0 and tracer.counters["tensor.tape.entries"] == len(ops) > 0
    rules = sorted(span.name for span in tracer.spans if span.name.endswith(".bwd"))
    assert rules == sorted(f"tensor.{op}.bwd" for op in ops)
