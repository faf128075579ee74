"""Deterministic planar tabletop world with two synthetic camera views.

The workspace is the unit square; the gripper is a point at (x, y) with a
scalar height z and an aperture, all in [0, 1]. Objects are colored disks,
receptacles are larger dimmer disks, and physics is kinematic: an object
attaches when the aperture closes near it at low height, tracks the gripper
while held, and stays wherever it is released. A scripted expert solves the
two task kinds (poke, pick-and-place) with a state-derived waypoint script,
so it needs no memory beyond the world state itself. The world is fixed:
the physics, the geometry, the expert's waypoints and its noise (drawn from a
generator, if given one) are module constants, tuned together. An entity's
radius is its kind's (OBJECT_RADIUS or RECEPTACLE_RADIUS), and the object and
receptacle classes are the palettes' colours.

Cameras are orthographic. The "third" view covers the whole workspace; the
"wrist" view covers the WRIST_WINDOW square centred on the gripper. `render`
paints a sequence of states (an episode, or one lockstep step of many
rollouts) from both cameras in one call: it builds one table of padded
per-state disks for the batch and paints each camera at its own resolution
from it, so its cost per state falls as the batch grows. An image is a
uint8 index per pixel into PALETTE, the renderer's read-only (20, 3) float32
colours. Each disk slot is painted only inside its window, the rows and
columns it reaches in some state of the batch; the window is exact, because a
float64 dx² + dy² is never below dy² or dx², so no pixel outside it is
covered. `observe` is what a robot sees of its states at given camera
resolutions: both views as PALETTE indices, from one `render` call, and the
gripper as proprio. A recorded episode is `observe`'s output over the
expert's states, so a demo is what the policy sees; the model's state
encoder is the one place that looks the indices up in PALETTE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Object classes are saturated, receptacles dimmer, the gripper marker is
# pure white: per-pixel brightness then ranks marker > object > receptacle,
# so the brightest pixel of a third view is the gripper's.
OBJECT_PALETTE = np.array(
    [
        [0.95, 0.15, 0.15],
        [0.15, 0.95, 0.15],
        [0.20, 0.35, 0.95],
        [0.95, 0.85, 0.10],
        [0.90, 0.20, 0.90],
        [0.10, 0.90, 0.90],
        [0.95, 0.55, 0.10],
        [0.55, 0.95, 0.35],
        [0.45, 0.20, 0.90],
        [0.95, 0.35, 0.55],
        [0.60, 0.60, 0.95],
        [0.75, 0.95, 0.10],
    ],
    dtype=np.float32,
)
RECEPTACLE_PALETTE = np.array(
    [
        [0.50, 0.25, 0.25],
        [0.25, 0.50, 0.25],
        [0.25, 0.30, 0.50],
        [0.50, 0.45, 0.20],
        [0.45, 0.25, 0.45],
        [0.25, 0.50, 0.50],
    ],
    dtype=np.float32,
)
BACKGROUND_COLOR = np.array([0.08, 0.08, 0.10], dtype=np.float32)
MARKER_COLOR = np.array([1.0, 1.0, 1.0], dtype=np.float32)

# The renderer's one palette, which its images index: 0 is the background,
# then the receptacle, object and marker colours. Read-only, because every
# recorded episode's indices mean its colours (see data.FILE_VERSION).
PALETTE = np.concatenate([BACKGROUND_COLOR[None], RECEPTACLE_PALETTE, OBJECT_PALETTE, MARKER_COLOR[None]])
PALETTE.flags.writeable = False
_RECEPTACLE_BASE = 1
_OBJECT_BASE = _RECEPTACLE_BASE + len(RECEPTACLE_PALETTE)
_MARKER_INDEX = _OBJECT_BASE + len(OBJECT_PALETTE)
_EMPTY_SLOT = (0.0, 0.0, -1.0, 0)  # (x, y, radius², palette index): covers no pixel


class SimError(RuntimeError):
    """A scene that rejection sampling could not place without overlap, or
    a task whose target class is absent from the scene."""


# The world's physics and geometry. They size episodes at roughly 25-80
# steps. The scripted expert's waypoints below assume these values: a grasp
# height under Z_GRASP, an aperture that crosses CLOSE_THRESHOLD and
# OPEN_THRESHOLD, a poke depth under Z_CONTACT.
DELTA_MAX = 0.05  # largest pose change per step, per component
GRASP_RADIUS = 0.06  # an object attaches if its centre is this near the gripper
Z_GRASP = 0.2  # ... and the gripper is below this height
CLOSE_THRESHOLD = 0.3  # ... as the aperture falls through this value
OPEN_THRESHOLD = 0.7  # a held object is released as the aperture rises through this value
POKE_DISPLACEMENT = 0.03  # an object moved farther than this counts as poked
Z_CONTACT = 0.1  # below this height the gripper touches the objects under it
OBJECT_RADIUS = 0.05
RECEPTACLE_RADIUS = 0.11
PLACEMENT_MARGIN = 0.03  # least gap between two entities of a scene
MARKER_RADIUS = 0.024  # the gripper marker painted in both views
WRIST_WINDOW = 0.25  # width of the world square the wrist camera sees
HOME_POSE = (0.5, 0.5, 0.5, 0.9)  # x, y, z, aperture at reset

# the scripted expert's waypoints and tolerances
_Z_TRAVEL = 0.45
_Z_GRASP_AT = 0.12
_Z_PLACE = 0.15
_Z_POKE = 0.06
_AP_OPEN = 0.9
_AP_CLOSED = 0.2
_POS_TOL = 0.012
_Z_TOL = 0.02
# std of a noisy expert's jitter on each pose-delta component; it must stay well
# under the tolerances above (at 0.008 the expert fails every pick-and-place)
EXPERT_NOISE = 0.005
_EXPERT_MAX_STEPS = 400


@dataclass(frozen=True)
class TaskSpec:
    kind: str  # "poke" or "pick_place"
    target_object_class: int
    target_receptacle_class: int | None = None

    def __post_init__(self):
        if self.kind == "poke":
            if self.target_receptacle_class is not None:
                raise ValueError("poke tasks take no receptacle class")
        elif self.kind == "pick_place":
            if self.target_receptacle_class is None:
                raise ValueError("pick_place tasks require a receptacle class")
        else:
            raise ValueError(f"unknown task kind '{self.kind}'")

    @property
    def label(self) -> str:
        if self.kind == "poke":
            return f"poke_c{self.target_object_class}"
        return f"place_c{self.target_object_class}_r{self.target_receptacle_class}"


@dataclass(frozen=True)
class SceneEntity:
    class_id: int
    position: tuple[float, float]


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """`np.clip(x, lo, hi)` bit for bit, without its wrapper's cost on a
    4-vector. np.maximum returns its second argument on a tie, so an x of
    -0.0 at lo = 0.0 stays -0.0, as np.clip keeps it."""
    return np.minimum(np.maximum(lo, x), hi)


class Action:
    """Pose delta (dx, dy, dz, dg), clipped to ±DELTA_MAX at construction."""

    __slots__ = ("deltas",)

    def __init__(self, deltas):
        self.deltas = _clamp(np.asarray(deltas, dtype=np.float64), -DELTA_MAX, DELTA_MAX)

    def __repr__(self) -> str:
        return f"Action({self.deltas.tolist()})"


@dataclass
class WorldState:
    gripper: np.ndarray  # (4,) x, y, z, aperture
    objects: list[SceneEntity]
    receptacles: list[SceneEntity]
    held_object: int | None
    # Scoring bookkeeping, updated by step(): initial positions for the
    # displacement test, sticky contact/held/released flags so scores are
    # monotone within an episode.
    initial_object_positions: np.ndarray  # (n_obj, 2)
    poked: np.ndarray  # (n_obj,) bool
    ever_held: np.ndarray  # (n_obj,) bool
    released_inside: np.ndarray  # (n_obj, n_rec) bool

    def copy(self) -> "WorldState":
        return WorldState(
            gripper=self.gripper.copy(),
            objects=list(self.objects),
            receptacles=list(self.receptacles),
            held_object=self.held_object,
            initial_object_positions=self.initial_object_positions.copy(),
            poked=self.poked.copy(),
            ever_held=self.ever_held.copy(),
            released_inside=self.released_inside.copy(),
        )


def make_state(objects: list[SceneEntity], receptacles: list[SceneEntity]) -> WorldState:
    return WorldState(
        gripper=np.array(HOME_POSE, dtype=np.float64),
        objects=objects,
        receptacles=receptacles,
        held_object=None,
        initial_object_positions=np.array([e.position for e in objects], dtype=np.float64).reshape(len(objects), 2),
        poked=np.zeros(len(objects), dtype=bool),
        ever_held=np.zeros(len(objects), dtype=bool),
        released_inside=np.zeros((len(objects), len(receptacles)), dtype=bool),
    )


def _sample_position(
    rng: np.random.Generator, radius: float, placed: list[tuple[tuple[float, float], float]]
) -> tuple[float, float] | None:
    """A centre for a disk of `radius` at least PLACEMENT_MARGIN away from each
    `(position, radius)` already placed, or None after 200 draws."""
    edge = radius + 0.02
    for _ in range(200):
        pos = rng.uniform(edge, 1.0 - edge, size=2)
        if all((pos[0] - x) ** 2 + (pos[1] - y) ** 2 >= (radius + other + PLACEMENT_MARGIN) ** 2 for (x, y), other in placed):
            return float(pos[0]), float(pos[1])
    return None


def reset(
    task: TaskSpec,
    n_distractor_objects: int,
    n_distractor_receptacles: int,
    seed: int,
) -> WorldState:
    """Sample a scene containing the task's targets plus distractors.

    Distractor classes are drawn without replacement from the palette's
    classes that differ from the target, so every class appears at most
    once. Placement uses rejection sampling with a pairwise separation margin.
    """
    n_object_classes, n_receptacle_classes = len(OBJECT_PALETTE), len(RECEPTACLE_PALETTE)
    if task.target_object_class >= n_object_classes:
        raise SimError(f"object class {task.target_object_class} outside palette")
    if n_distractor_objects > n_object_classes - 1:
        raise SimError("more distractor objects than spare classes")
    if n_distractor_receptacles > n_receptacle_classes - 1:
        raise SimError("more distractor receptacles than spare classes")
    rng = np.random.default_rng(seed)

    receptacles: list[SceneEntity] = []
    rec_classes = []
    if task.kind == "pick_place":
        rec_classes.append(task.target_receptacle_class)
    spare_rec = [c for c in range(n_receptacle_classes) if c not in rec_classes]
    rec_classes.extend(rng.choice(spare_rec, size=n_distractor_receptacles, replace=False).tolist())

    obj_classes = [task.target_object_class]
    spare_obj = [c for c in range(n_object_classes) if c != task.target_object_class]
    obj_classes.extend(rng.choice(spare_obj, size=n_distractor_objects, replace=False).tolist())

    objects: list[SceneEntity] = []
    placed = []  # (position, radius) of every entity so far
    for kind, classes, radius, entities in (
        ("receptacle", rec_classes, RECEPTACLE_RADIUS, receptacles),
        ("object", obj_classes, OBJECT_RADIUS, objects),
    ):
        for c in classes:
            pos = _sample_position(rng, radius, placed)
            if pos is None:
                raise SimError(f"could not place {kind} class {c} for task {task.label}")
            placed.append((pos, radius))
            entities.append(SceneEntity(int(c), pos))
    return make_state(objects, receptacles)


def step(state: WorldState, action: Action) -> WorldState:
    """Advance one tick. Pure: returns a new state."""
    new = state.copy()
    old_ap = state.gripper[3]
    new.gripper = _clamp(state.gripper + action.deltas, 0.0, 1.0)
    gx, gy, gz, ap = new.gripper

    if new.held_object is not None:
        idx = new.held_object
        new.objects[idx] = SceneEntity(new.objects[idx].class_id, (float(gx), float(gy)))
        if old_ap <= OPEN_THRESHOLD < ap:
            for r, rec in enumerate(new.receptacles):
                dx = gx - rec.position[0]
                dy = gy - rec.position[1]
                if dx * dx + dy * dy < RECEPTACLE_RADIUS**2:
                    new.released_inside[idx, r] = True
            new.held_object = None
    elif old_ap >= CLOSE_THRESHOLD > ap and gz < Z_GRASP:
        best, best_d2 = None, GRASP_RADIUS**2
        for i, obj in enumerate(new.objects):
            dx = gx - obj.position[0]
            dy = gy - obj.position[1]
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                best, best_d2 = i, d2
        if best is not None:
            new.held_object = best
            new.ever_held[best] = True
            new.objects[best] = SceneEntity(new.objects[best].class_id, (float(gx), float(gy)))

    if gz < Z_CONTACT:
        for i, obj in enumerate(new.objects):
            if i == new.held_object:
                continue
            dx = gx - obj.position[0]
            dy = gy - obj.position[1]
            if dx * dx + dy * dy < OBJECT_RADIUS**2:
                new.poked[i] = True
    return new


def _find_by_class(entities: list[SceneEntity], class_id: int) -> int | None:
    for i, e in enumerate(entities):
        if e.class_id == class_id:
            return i
    return None


def success(state: WorldState, task: TaskSpec) -> float:
    """Score the state for the task: 0, 0.5 (pick only), or 1."""
    ti = _find_by_class(state.objects, task.target_object_class)
    if ti is None:
        return 0.0
    if task.kind == "poke":
        moved = np.linalg.norm(
            np.asarray(state.objects[ti].position) - state.initial_object_positions[ti]
        ) > POKE_DISPLACEMENT
        return 1.0 if (moved or state.poked[ti]) else 0.0
    ri = _find_by_class(state.receptacles, task.target_receptacle_class)
    if ri is not None and state.released_inside[ti, ri]:
        return 1.0
    if state.ever_held[ti]:
        return 0.5
    return 0.0


# ---------------------------------------------------------------------------
# cameras
# ---------------------------------------------------------------------------


def third_view_uv(world_xy) -> np.ndarray:
    """Normalised third-view image coordinates (..., 2) of world points
    (..., 2), in float64: u = x and v = 1 - y, at any resolution. Times the
    resolution they are continuous pixel coordinates, v counting rows down."""
    xy = np.asarray(world_xy, dtype=np.float64)
    return np.stack([xy[..., 0], 1.0 - xy[..., 1]], axis=-1)


def render(states, third_resolution: int, wrist_resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Rasterize a sequence of states to the (N, G, G) and (N, C, C) uint8
    images, indices into PALETTE, of the third camera at G =
    `third_resolution` pixels and the wrist camera at C = `wrist_resolution`.

    Each state is painted in draw order: its receptacles, then its objects,
    then the gripper marker. A pixel takes the palette index of the last
    disk that covers it, where a disk covers a pixel whose centre lies within
    its radius (squared distance <= radius², in float64). States may hold
    different numbers of entities: each state's disks are padded to a common
    count per kind, and a padded slot has radius² = -1 so it covers nothing.
    The disk table is built once and both cameras are painted from it. The
    third view sees the whole workspace; the wrist view sees the
    WRIST_WINDOW square centred on each state's own gripper.
    """
    states = list(states)
    n_rec = max((len(s.receptacles) for s in states), default=0)
    n_obj = max((len(s.objects) for s in states), default=0)
    rec_r2, obj_r2 = RECEPTACLE_RADIUS * RECEPTACLE_RADIUS, OBJECT_RADIUS * OBJECT_RADIUS
    marker = (MARKER_RADIUS * MARKER_RADIUS, _MARKER_INDEX)
    slots = []  # (x, y, radius², palette index) of every slot of every state, flat
    for s in states:
        for e in s.receptacles:
            slots += (*e.position, rec_r2, _RECEPTACLE_BASE + e.class_id)
        slots += _EMPTY_SLOT * (n_rec - len(s.receptacles))
        for e in s.objects:
            slots += (*e.position, obj_r2, _OBJECT_BASE + e.class_id)
        slots += _EMPTY_SLOT * (n_obj - len(s.objects))
        slots += (*s.gripper[:2].tolist(), *marker)
    disks = np.array(slots, dtype=np.float64).reshape(len(states), n_rec + n_obj + 1, 4)
    yx, r2 = disks[..., 1::-1].transpose(2, 0, 1), disks[..., 2]  # (2, N, E): each slot's y and x; (N, E)
    color = disks[..., 3].astype(np.uint8)
    # (2, N or 1, 1): the world y of the top edge and the world x of the left edge
    third_edges = np.array([1.0, 0.0])[:, None, None]
    wrist_edges = yx[:, :, -1:] + np.array([WRIST_WINDOW / 2.0, -WRIST_WINDOW / 2.0])[:, None, None]  # about the marker
    return (
        _paint(yx, r2, color, third_edges, 1.0, third_resolution),
        _paint(yx, r2, color, wrist_edges, WRIST_WINDOW, wrist_resolution),
    )


def _paint(yx: np.ndarray, r2: np.ndarray, color: np.ndarray, edges: np.ndarray, window: float, resolution: int) -> np.ndarray:
    """Paint one camera's (N, R, R) images from `render`'s disk table: each
    slot's centre `yx` (2, N, E), radius² `r2` (N, E) and palette index
    `color` (N, E), seen through a `window`-wide square whose top and left
    world edges are `edges`.

    Each disk slot is painted only inside its window: the span of rows and
    the span of columns it reaches (dy² or dx² <= radius²) in some state of
    the batch. The window is exact, not a bound to be trusted: dx² >= 0, so
    the float64 sum dx² + dy² is never below dy² (nor below dx²), and a row
    or column outside the window holds no covered pixel. A padded slot
    reaches nothing and is not painted.
    """
    centers = (np.arange(resolution, dtype=np.float64) + 0.5) / resolution * window
    # (2, N, R): top - centers, the world y of each row (the top row is high y), and left + centers, the
    # world x of each column; negating by the sign is exact, so these are bit for bit those differences and sums
    grid = edges + np.array([-1.0, 1.0])[:, None, None] * centers
    d2 = grid[:, :, None, :] - yx[..., None]
    d2 *= d2  # (2, N, E, R): dy² of each row, dx² of each column (in place: one temporary fewer)
    hit = (d2 <= r2[..., None]).any(axis=1)  # (2, E, R): the rows and columns each slot reaches
    first, end = hit.argmax(axis=2).tolist(), (resolution - hit[..., ::-1].argmax(axis=2)).tolist()
    r2, color = r2.T[:, :, None, None], color.T[:, :, None, None]  # (E, N, 1, 1): one index per slot in the loop
    top = np.zeros((yx.shape[1], resolution, resolution), dtype=np.uint8)  # palette index of the topmost disk
    for e, reached in enumerate(hit.any(axis=2).all(axis=0).tolist()):
        if reached:
            rows, cols = slice(first[0][e], end[0][e]), slice(first[1][e], end[1][e])
            covered = d2[1, :, e, None, cols] + d2[0, :, e, rows, None] <= r2[e]
            np.copyto(top[:, rows, cols], color[e], where=covered)
    return top


def observe(states, third_resolution: int, wrist_resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a robot observes of a sequence of states: the (N, R, R) uint8
    PALETTE indices of the third and wrist views, from one `render` call,
    and the (N, 4) float32 gripper pose as proprio."""
    states = list(states)
    third, wrist = render(states, third_resolution, wrist_resolution)
    return third, wrist, np.stack([s.gripper for s in states]).astype(np.float32)


# ---------------------------------------------------------------------------
# scripted expert
# ---------------------------------------------------------------------------

def _toward(current: np.ndarray, waypoint, rng: np.random.Generator | None) -> Action:
    delta = np.asarray(waypoint, dtype=np.float64) - current
    if rng is not None:
        delta = delta + rng.normal(0.0, EXPERT_NOISE, size=4)
    return Action(delta)


def expert_policy(state: WorldState, task: TaskSpec, rng: np.random.Generator | None = None) -> Action:
    """One expert action for the current state, jittered by EXPERT_NOISE
    drawn from `rng`, or noiseless if `rng` is None.

    The script is memoryless: the phase is derived from the gripper pose,
    the held/contact flags, and the target positions, so it self-corrects
    under actuation noise.
    """
    ti = _find_by_class(state.objects, task.target_object_class)
    if ti is None:
        raise SimError(f"no object of class {task.target_object_class} in scene")
    gx, gy, gz, ap = state.gripper
    obj = state.objects[ti]
    dxy = float(np.hypot(gx - obj.position[0], gy - obj.position[1]))

    if task.kind == "poke":
        if success(state, task) == 1.0:
            waypoint = (gx, gy, _Z_TRAVEL, _AP_OPEN)
        elif dxy <= _POS_TOL or (gz < Z_GRASP and dxy <= 0.8 * OBJECT_RADIUS):
            waypoint = (obj.position[0], obj.position[1], _Z_POKE, _AP_OPEN)
        else:
            waypoint = (obj.position[0], obj.position[1], _Z_TRAVEL, _AP_OPEN)
        return _toward(state.gripper, waypoint, rng)

    ri = _find_by_class(state.receptacles, task.target_receptacle_class)
    if ri is None:
        raise SimError(f"no receptacle of class {task.target_receptacle_class} in scene")
    rec = state.receptacles[ri]
    rxy = float(np.hypot(gx - rec.position[0], gy - rec.position[1]))

    if state.released_inside[ti, ri]:
        waypoint = (gx, gy, _Z_TRAVEL, _AP_OPEN)
    elif state.held_object == ti:
        if rxy > _POS_TOL:
            if gz < _Z_TRAVEL - _Z_TOL:
                waypoint = (gx, gy, _Z_TRAVEL, _AP_CLOSED)  # lift before transport
            else:
                waypoint = (rec.position[0], rec.position[1], _Z_TRAVEL, _AP_CLOSED)
        elif gz > _Z_PLACE + _Z_TOL:
            waypoint = (rec.position[0], rec.position[1], _Z_PLACE, _AP_CLOSED)
        else:
            waypoint = (rec.position[0], rec.position[1], _Z_PLACE, _AP_OPEN)  # open to release
    else:
        near_grasp = gz <= _Z_GRASP_AT + _Z_TOL and dxy <= 0.8 * GRASP_RADIUS
        if near_grasp:
            waypoint = (obj.position[0], obj.position[1], _Z_GRASP_AT, _AP_CLOSED)  # close to attach
        elif dxy <= _POS_TOL:
            waypoint = (obj.position[0], obj.position[1], _Z_GRASP_AT, _AP_OPEN)
        else:
            waypoint = (obj.position[0], obj.position[1], _Z_TRAVEL, _AP_OPEN)
    return _toward(state.gripper, waypoint, rng)


def expert_rollout(
    state: WorldState,
    task: TaskSpec,
    rng: np.random.Generator | None = None,
) -> tuple[list[WorldState], list[Action], float]:
    """Run the expert until the task succeeds or _EXPERT_MAX_STEPS elapse.

    Returns (states, actions, final score) where states[i] is the state the
    expert saw when choosing actions[i]; the terminal state is not included.
    """
    states: list[WorldState] = []
    actions: list[Action] = []
    current = state
    for _ in range(_EXPERT_MAX_STEPS):
        action = expert_policy(current, task, rng)
        states.append(current)
        actions.append(action)
        current = step(current, action)
        if success(current, task) == 1.0:
            return states, actions, 1.0
    return states, actions, success(current, task)
