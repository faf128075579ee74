"""World model, renderer, and scripted expert checks."""

from __future__ import annotations

import numpy as np
import pytest

from deskicl import sim
from deskicl.sim import (
    Action,
    TaskSpec,
    WorldState,
    expert_policy,
    expert_rollout,
    make_state,
    observe,
    render,
    reset,
    step,
    success,
    third_view_uv,
)

THIRD_RESOLUTION, WRIST_RESOLUTION = 32, 16
N_OBJECT_CLASSES, N_RECEPTACLE_CLASSES = len(sim.OBJECT_PALETTE), len(sim.RECEPTACLE_PALETTE)


def poke_task(cls=3):
    return TaskSpec("poke", cls)


def place_task(cls=2, rec=1):
    return TaskSpec("pick_place", cls, rec)


def zero_action():
    return Action(np.zeros(4))


# ---------------------------------------------------------------------------
# task and action types
# ---------------------------------------------------------------------------


def test_task_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec("poke", 1, target_receptacle_class=2)
    with pytest.raises(ValueError):
        TaskSpec("pick_place", 1)
    with pytest.raises(ValueError):
        TaskSpec("shove", 1)


def test_action_clips_components():
    a = Action([1.0, -1.0, 0.01, 0.0])
    assert np.allclose(a.deltas, [0.05, -0.05, 0.01, 0.0])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _clamp_probes(rng, lo, hi) -> np.ndarray:
    """(n, 4) inputs for a clamp to [lo, hi]: exact bounds and their float
    neighbours, signed zeros, values far outside the range, NaN and infinity,
    and seeded draws in and around the range."""
    edges = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf)]
    special = np.array(edges + [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 7.0, -7.0, 0.5])
    drawn = rng.uniform(lo - (hi - lo), hi + (hi - lo), size=(200, 4))
    mixed = rng.choice(special, size=(200, 4))
    return np.concatenate([special[:, None].repeat(4, axis=1), drawn, mixed, np.where(rng.random((200, 4)) < 0.5, drawn, mixed)])


def test_action_clamp_equals_np_clip_bitwise():
    rng = np.random.default_rng(11)
    for deltas in _clamp_probes(rng, -sim.DELTA_MAX, sim.DELTA_MAX):
        expected = np.clip(deltas, -sim.DELTA_MAX, sim.DELTA_MAX)
        assert _same_bits(Action(deltas).deltas, expected), deltas
        assert _same_bits(Action(deltas.tolist()).deltas, expected), deltas
    assert np.signbit(Action([-0.0, 0.0, -0.0, 0.0]).deltas).tolist() == [True, False, True, False]


def test_step_gripper_clamp_equals_np_clip_bitwise():
    rng = np.random.default_rng(12)
    state = make_state([], [])
    poses = _clamp_probes(rng, 0.0, 1.0)
    deltas = _clamp_probes(rng, -sim.DELTA_MAX, sim.DELTA_MAX)
    for pose, delta in zip(poses, deltas[rng.permutation(len(deltas))]):
        state.gripper = pose
        action = Action(delta)
        assert _same_bits(step(state, action).gripper, np.clip(pose + action.deltas, 0.0, 1.0)), (pose, delta)
    # -0.0 + -0.0 is -0.0, which np.clip leaves as it is
    state.gripper = np.array([-0.0, 0.0, -0.0, 1.0])
    assert np.signbit(step(state, Action([-0.0, -0.0, 0.0, 0.0])).gripper).tolist() == [True, False, False, False]


def test_held_object_tracks_the_gripper_and_keeps_its_class():
    rng = np.random.default_rng(13)
    state = make_state([sim.SceneEntity(4, (0.4, 0.6)), sim.SceneEntity(9, (0.8, 0.2))], [sim.SceneEntity(3, (0.2, 0.2))])
    state.gripper = np.array([0.4, 0.6, 0.15, 0.2])
    state.held_object = 0
    current = state
    for _ in range(50):
        current = step(current, Action(rng.uniform(-0.05, 0.05, 4) * [1, 1, 1, 0]))  # the aperture stays closed
        gx, gy = current.gripper[:2]
        assert current.held_object == 0
        assert current.objects == [sim.SceneEntity(4, (float(gx), float(gy))), sim.SceneEntity(9, (0.8, 0.2))]
        assert all(type(v) is float for v in current.objects[0].position)
    # a fresh grasp keeps the grasped object's class too
    loose = make_state([sim.SceneEntity(7, (0.31, 0.52))], [])
    loose.gripper = np.array([0.3, 0.5, 0.1, 0.31])
    grasped = step(loose, Action([0.0, 0.0, 0.0, -0.02]))
    assert grasped.held_object == 0 and grasped.objects == [sim.SceneEntity(7, (0.3, 0.5))]


# ---------------------------------------------------------------------------
# reset
# ---------------------------------------------------------------------------


def test_reset_poke_counts():
    state = reset(poke_task(3), 0, 0, seed=0)
    assert len(state.objects) == 1
    assert len(state.receptacles) == 0
    assert state.objects[0].class_id == 3


def test_reset_pick_place_counts():
    state = reset(place_task(), 2, 1, seed=1)
    assert len(state.objects) == 3
    assert len(state.receptacles) == 2
    classes = [o.class_id for o in state.objects]
    assert classes.count(2) == 1 and len(set(classes)) == 3


def test_reset_deterministic():
    a = reset(place_task(), 3, 1, seed=42)
    b = reset(place_task(), 3, 1, seed=42)
    assert a.objects == b.objects
    assert a.receptacles == b.receptacles
    assert np.array_equal(a.gripper, b.gripper)


def test_reset_separation_margin():
    state = reset(place_task(), 4, 2, seed=5)
    entities = [(e, sim.OBJECT_RADIUS) for e in state.objects] + [(e, sim.RECEPTACLE_RADIUS) for e in state.receptacles]
    for i, (a, ra) in enumerate(entities):
        for b, rb in entities[i + 1:]:
            dist = np.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1])
            assert dist > ra + rb + sim.PLACEMENT_MARGIN - 1e-12


def test_reset_rejects_impossible_class_counts():
    """The classes are the palettes' colours, and a distractor never shares
    the target's class."""
    with pytest.raises(sim.SimError, match="distractor objects"):
        reset(poke_task(0), N_OBJECT_CLASSES, 0, seed=0)
    with pytest.raises(sim.SimError, match="distractor receptacles"):
        reset(place_task(0, 0), 0, N_RECEPTACLE_CLASSES, seed=0)
    with pytest.raises(sim.SimError, match="outside palette"):
        reset(poke_task(N_OBJECT_CLASSES), 0, 0, seed=0)
    state = reset(place_task(0, 0), N_OBJECT_CLASSES - 1, N_RECEPTACLE_CLASSES - 1, seed=0)
    assert len(state.objects) == N_OBJECT_CLASSES and len(state.receptacles) == N_RECEPTACLE_CLASSES


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


def test_step_zero_action_only_counts():
    state = reset(poke_task(), 2, 0, seed=3)
    after = step(state, zero_action())
    assert np.array_equal(after.gripper, state.gripper)
    assert after.objects == state.objects
    assert after.held_object is None


def test_step_clamps_gripper():
    state = reset(poke_task(), 0, 0, seed=0)
    current = state
    rng = np.random.default_rng(0)
    for _ in range(200):
        current = step(current, Action(rng.uniform(-1, 1, 4)))
        assert np.all(current.gripper >= 0.0) and np.all(current.gripper <= 1.0)


def test_close_far_from_objects_grabs_nothing():
    state = reset(place_task(), 0, 0, seed=7)
    # drive gripper to a corner away from everything, low, then close
    current = state
    for _ in range(40):
        wp = np.array([0.02, 0.02, 0.05, 0.9])
        current = step(current, Action(wp - current.gripper))
    obj = current.objects[0]
    if np.hypot(0.02 - obj.position[0], 0.02 - obj.position[1]) < 0.2:
        pytest.skip("object sampled too close to the corner for this seed")
    for _ in range(20):
        current = step(current, Action([0, 0, 0, -sim.DELTA_MAX]))
    assert current.held_object is None


def test_scripted_grasp_attaches_target():
    task = place_task()
    state = reset(task, 1, 0, seed=11)
    current = state
    for _ in range(200):
        current = step(current, expert_policy(current, task))
        if current.held_object is not None:
            break
    assert current.held_object is not None
    assert current.objects[current.held_object].class_id == task.target_object_class


def test_release_requires_open_crossing():
    task = place_task()
    state = reset(task, 0, 0, seed=2)
    states, actions, score = expert_rollout(state, task)
    assert score == 1.0
    # the object was ever held and the hold ended by an opening crossing
    held_at_some_point = any(s.held_object is not None for s in states)
    assert held_at_some_point


# ---------------------------------------------------------------------------
# projection and rendering
# ---------------------------------------------------------------------------


def test_project_examples():
    assert third_view_uv((0.5, 0.5)).tolist() == [0.5, 0.5]
    assert third_view_uv((0.0, 0.0)).tolist() == [0.0, 1.0]
    assert third_view_uv((0.25, 0.75)).tolist() == [0.25, 0.25]
    # times the resolution: continuous pixels, rows counted down from high y
    points = [(0.5, 0.5), (0.0, 0.0), (0.25, 0.75)]
    assert (third_view_uv(points) * 32).tolist() == [[16.0, 16.0], [0.0, 32.0], [8.0, 8.0]]


def test_render_empty_scene_background_only():
    state = make_state([], [])
    state.gripper = np.array([2.0, 2.0, 0.5, 0.9])  # move marker out of frame
    third, wrist = render([state], THIRD_RESOLUTION, WRIST_RESOLUTION)
    assert third.shape == (1, 32, 32) and wrist.shape == (1, 16, 16)
    assert third.dtype == wrist.dtype == np.uint8
    assert np.all(sim.PALETTE[third] == sim.BACKGROUND_COLOR)
    assert set(np.unique(wrist).tolist()) == {0, len(sim.PALETTE) - 1}  # the wrist camera follows the marker


def test_render_object_disk_centered():
    state = make_state([sim.SceneEntity(0, (0.5, 0.5))], [])
    state.gripper = np.array([0.05, 0.95, 0.5, 0.9])  # marker in a corner
    img = sim.PALETTE[render([state], THIRD_RESOLUTION, WRIST_RESOLUTION)[0][0]]
    mask = np.all(img == sim.OBJECT_PALETTE[0], axis=-1)
    assert mask.sum() > 0
    rows, cols = np.nonzero(mask)
    # centroid of the disk in continuous pixel coords is the projection
    v = rows.mean() + 0.5
    u = cols.mean() + 0.5
    assert abs(u - 16.0) < 0.5 and abs(v - 16.0) < 0.5


def test_render_wrist_object_under_gripper_fills_center():
    state = make_state([sim.SceneEntity(1, (0.4, 0.6))], [])
    state.gripper = np.array([0.4, 0.6, 0.5, 0.9])
    img = sim.PALETTE[render([state], THIRD_RESOLUTION, WRIST_RESOLUTION)[1][0]]
    c = WRIST_RESOLUTION // 2
    # center pixel is the marker (drawn last), ring around it is the object
    assert np.array_equal(img[c, c], sim.MARKER_COLOR)
    assert np.array_equal(img[c - 3, c], sim.OBJECT_PALETTE[1])
    assert np.array_equal(img[c, c + 2], sim.OBJECT_PALETTE[1])


def test_render_deterministic():
    state = reset(place_task(), 2, 1, seed=9)
    a = render([state], THIRD_RESOLUTION, WRIST_RESOLUTION)
    b = render([state], THIRD_RESOLUTION, WRIST_RESOLUTION)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_observe_is_both_views_and_the_gripper():
    states = expert_rollout(reset(place_task(), 2, 1, seed=9), place_task())[0]
    third, wrist, proprio = observe(iter(states), 24, 8)
    assert third.dtype == wrist.dtype == np.uint8
    expected = render(states, 24, 8)
    assert third.tobytes() == expected[0].tobytes() and wrist.tobytes() == expected[1].tobytes()
    assert proprio.dtype == np.float32 and proprio.shape == (len(states), 4)
    assert np.array_equal(proprio, np.array([s.gripper for s in states], dtype=np.float32))


def _render_oracle(state, view, res):
    """Reference painter: one state, one boolean disk mask at a time, in
    draw order (receptacles, objects, gripper marker), in colours."""
    if view == "third":
        x0, y1, span = 0.0, 1.0, 1.0
    else:
        gx, gy = state.gripper[0], state.gripper[1]
        span = sim.WRIST_WINDOW
        x0 = gx - span / 2.0
        y1 = gy + span / 2.0
    centers = (np.arange(res, dtype=np.float64) + 0.5) / res * span
    xgrid, ygrid = np.meshgrid(x0 + centers, y1 - centers)

    img = np.empty((res, res, 3), dtype=np.float32)
    img[:] = sim.BACKGROUND_COLOR

    def disk(cx, cy, radius, color):
        mask = (xgrid - cx) ** 2 + (ygrid - cy) ** 2 <= radius * radius
        img[mask] = color

    for rec in state.receptacles:
        disk(rec.position[0], rec.position[1], sim.RECEPTACLE_RADIUS, sim.RECEPTACLE_PALETTE[rec.class_id])
    for obj in state.objects:
        disk(obj.position[0], obj.position[1], sim.OBJECT_RADIUS, sim.OBJECT_PALETTE[obj.class_id])
    disk(state.gripper[0], state.gripper[1], sim.MARKER_RADIUS, sim.MARKER_COLOR)
    return img


def _oracle_states():
    """States with different entity counts, overlaps and gripper poses."""

    def obj(c, x, y):  # the list an entity is in makes it an object or a receptacle
        return sim.SceneEntity(c, (x, y))

    rec = obj

    out_of_frame = make_state([obj(0, 0.3, 0.3)], [])
    out_of_frame.gripper = np.array([2.0, 2.0, 0.5, 0.9])
    # one object overlapping a receptacle, fewer objects than the batch's
    # maximum, so padded object slots follow the receptacle
    on_receptacle = make_state([obj(1, 0.62, 0.4)], [rec(2, 0.55, 0.45)])
    on_receptacle.gripper = np.array([0.6, 0.42, 0.3, 0.9])
    # three distractors, two objects overlapping each other and the
    # receptacle, marker touching an object
    crowded = make_state(
        [obj(3, 0.2, 0.8), obj(4, 0.25, 0.78), obj(5, 0.7, 0.2), obj(6, 0.33, 0.7)], [rec(0, 0.3, 0.72)]
    )
    crowded.gripper = np.array([0.27, 0.76, 0.4, 0.9])
    # held object under the marker
    held = make_state([obj(7, 0.5, 0.5), obj(8, 0.8, 0.8)], [])
    held.gripper = np.array([0.46, 0.52, 0.3, 0.2])
    held.objects[0] = sim.SceneEntity(7, (0.46, 0.52))
    held.held_object = 0
    # marker half out of frame at the workspace edge, beside an object
    at_edge = make_state([obj(9, 0.95, 0.1), obj(10, 0.5, 0.9), obj(11, 0.1, 0.1)], [])
    at_edge.gripper = np.array([1.0, 0.05, 0.2, 0.9])
    return [out_of_frame, on_receptacle, crowded, held, at_edge]


_CAMERAS = [(0, "third", THIRD_RESOLUTION), (1, "wrist", WRIST_RESOLUTION)]  # (index in render's pair, view, resolution)


@pytest.mark.parametrize("camera, view, resolution", _CAMERAS, ids=["third", "wrist"])
def test_render_batch_matches_oracle_bitwise(camera, view, resolution):
    states = _oracle_states()
    expected = np.stack([_render_oracle(s, view, resolution) for s in states])
    batch = render(states, THIRD_RESOLUTION, WRIST_RESOLUTION)[camera]
    # the palette's colours are distinct, so equal colours are equal indices
    assert len(np.unique(sim.PALETTE, axis=0)) == len(sim.PALETTE)
    assert batch.dtype == np.uint8
    assert batch.shape == (len(states), resolution, resolution)
    assert np.array_equal(sim.PALETTE[batch], expected)
    for i, s in enumerate(states):
        assert np.array_equal(sim.PALETTE[render([s], THIRD_RESOLUTION, WRIST_RESOLUTION)[camera][0]], expected[i])
    # the cases the states are built for show in the oracle's images
    if view == "third":

        def shown(i, color):
            return np.all(expected[i] == color, axis=-1).any()

        assert not shown(0, sim.MARKER_COLOR)
        assert shown(1, sim.RECEPTACLE_PALETTE[2]) and shown(1, sim.OBJECT_PALETTE[1])
        assert shown(3, sim.MARKER_COLOR) and shown(3, sim.OBJECT_PALETTE[7])
    else:
        c = resolution // 2
        assert all(np.array_equal(img[c, c], sim.MARKER_COLOR) for img in expected[1:])


_CORNERS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))


def _random_state(rng, i: int) -> WorldState:
    """A seeded state for the painter: 0-2 receptacles and 0-4 objects (so
    batches pad their slots), centres up to a radius past the frame's edges,
    a first receptacle whose columns lie outside every view (its rows may
    not), the gripper at a workspace corner in four states of six, and every
    third state holding its first object under the marker."""
    def entities(n, palette):
        classes = rng.choice(len(palette), size=n, replace=False)
        return [sim.SceneEntity(int(c), tuple(rng.uniform(-0.12, 1.12, 2).tolist())) for c in classes]

    receptacles = [sim.SceneEntity(5, (-0.4, float(rng.uniform(0.0, 1.0))))] + entities(int(rng.integers(0, 3)), sim.RECEPTACLE_PALETTE[:5])
    state = make_state(entities(int(rng.integers(0, 5)), sim.OBJECT_PALETTE), receptacles)
    if i % 6 < 4:
        gx, gy = _CORNERS[i % 6]
    else:
        gx, gy = rng.uniform(0.0, 1.0, 2).tolist()
    state.gripper = np.array([gx, gy, 0.3, 0.9])
    if i % 3 == 0 and state.objects:
        state.objects[0] = sim.SceneEntity(state.objects[0].class_id, (gx, gy))
        state.held_object = 0
    return state


@pytest.mark.parametrize("n", [1, 4, 45])
@pytest.mark.parametrize("camera, view, resolution", _CAMERAS, ids=["third", "wrist"])
def test_render_random_batches_match_oracle_bitwise(camera, view, resolution, n):
    rng = np.random.default_rng(1000 + n)
    batches = [[_random_state(rng, i)] for i in range(8)] if n == 1 else [[_random_state(rng, i) for i in range(n)]]
    for states in batches:
        images = render(states, THIRD_RESOLUTION, WRIST_RESOLUTION)[camera]
        assert images.dtype == np.uint8 and images.shape == (len(states), resolution, resolution)
        assert np.array_equal(sim.PALETTE[images], np.stack([_render_oracle(s, view, resolution) for s in states]))
    # the cases the states are drawn for are there
    states = [s for batch in batches for s in batch]
    if n > 1:
        assert len({len(s.objects) for s in states}) > 1  # padded object slots
    assert {tuple(s.gripper[:2].tolist()) for s in states} >= set(_CORNERS)
    assert any(s.held_object is not None for s in states)


def test_brightest_pixel_tracks_gripper():
    task = place_task()
    state = reset(task, 1, 1, seed=13)
    current = state
    rng = np.random.default_rng(1)
    for _ in range(60):
        current = step(current, Action(rng.uniform(-0.05, 0.05, 4)))
        img = sim.PALETTE[render([current], THIRD_RESOLUTION, WRIST_RESOLUTION)[0][0]]
        brightness = img.sum(axis=-1)
        row, col = np.unravel_index(np.argmax(brightness), brightness.shape)
        u, v = third_view_uv(current.gripper[:2]) * THIRD_RESOLUTION
        assert abs((col + 0.5) - u) <= 1.0
        assert abs((row + 0.5) - v) <= 1.0


# ---------------------------------------------------------------------------
# expert and scoring
# ---------------------------------------------------------------------------


def test_expert_above_target_descends():
    task = poke_task(4)
    state = reset(task, 0, 0, seed=17)
    obj = state.objects[0]
    state.gripper = np.array([obj.position[0], obj.position[1], 0.45, 0.9])
    action = expert_policy(state, task)
    assert action.deltas[0] == 0.0 and action.deltas[1] == 0.0
    assert action.deltas[2] < 0.0


def test_expert_missing_target_errors():
    state = reset(poke_task(1), 0, 0, seed=0)
    with pytest.raises(sim.SimError, match="no object of class 5 in scene"):
        expert_policy(state, TaskSpec("poke", 5))


def test_expert_succeeds_across_tasks_and_difficulties():
    count = 0
    for seed in range(60):
        kind = seed % 2
        distractors = seed % 5
        if kind == 0:
            task = poke_task(seed % N_OBJECT_CLASSES)
            n_rec = 0
        else:
            task = TaskSpec("pick_place", seed % N_OBJECT_CLASSES, seed % N_RECEPTACLE_CLASSES)
            n_rec = min(distractors, 2)
        state = reset(task, distractors, n_rec, seed=1000 + seed)
        _, _, score = expert_rollout(state, task)
        assert score == 1.0, f"expert failed task {task.label} seed {seed}"
        count += 1
    assert count == 60


def test_expert_noise_success_rate():
    wins = 0
    n = 200
    for seed in range(n):
        task = place_task(seed % N_OBJECT_CLASSES, seed % N_RECEPTACLE_CLASSES)
        state = reset(task, seed % 5, 1 if seed % 5 >= 2 else 0, seed=seed)
        rng = np.random.default_rng(10_000 + seed)
        _, _, score = expert_rollout(state, task, rng)
        wins += score == 1.0
    assert wins / n >= 0.98


def test_noisy_expert_action_is_the_waypoint_delta_plus_one_draw():
    """The first noisy action is the noiseless waypoint delta plus the
    generator's first EXPERT_NOISE draw, clipped as Action clips it."""
    task = place_task()
    state = reset(task, 2, 1, seed=31)
    target = next(o for o in state.objects if o.class_id == task.target_object_class)
    delta = np.array([*target.position, sim._Z_TRAVEL, sim._AP_OPEN]) - state.gripper
    assert np.array_equal(expert_policy(state, task).deltas, np.clip(delta, -sim.DELTA_MAX, sim.DELTA_MAX))
    draw = np.random.default_rng(3).normal(0.0, sim.EXPERT_NOISE, 4)
    _, actions, _ = expert_rollout(state, task, np.random.default_rng(3))
    assert np.array_equal(actions[0].deltas, np.clip(delta + draw, -sim.DELTA_MAX, sim.DELTA_MAX))
    assert not np.array_equal(actions[0].deltas, expert_policy(state, task).deltas)


def test_success_scores_and_monotonicity():
    task = place_task()
    state = reset(task, 1, 1, seed=23)
    assert success(state, task) == 0.0
    states, actions, score = expert_rollout(state, task)
    assert score == 1.0
    scores = [success(s, task) for s in states]
    assert all(b >= a for a, b in zip(scores, scores[1:]))
    assert 0.5 in scores  # held but not yet placed along the way


def test_poke_score_contact():
    task = poke_task(0)
    state = reset(task, 0, 0, seed=29)
    states, actions, score = expert_rollout(state, task)
    assert score == 1.0
    assert success(states[0], task) == 0.0


def test_episode_determinism_bitwise():
    task = place_task()

    def run():
        state = reset(task, 2, 1, seed=31)
        rng = np.random.default_rng(77)
        states, actions, score = expert_rollout(state, task, rng)
        last = states[-1]
        return last.gripper.copy(), np.array([a.deltas for a in actions]), render([last], THIRD_RESOLUTION, WRIST_RESOLUTION)[0]

    g1, a1, img1 = run()
    g2, a2, img2 = run()
    assert np.array_equal(g1, g2) and np.array_equal(a1, a2) and np.array_equal(img1, img2)
