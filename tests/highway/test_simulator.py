"""Simulator tests: kinematics, neighbours, lane changes, safety."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.highway import (
    HighwaySimulator,
    Road,
    ScenarioSpec,
    SimulatorConfig,
    Vehicle,
    random_overtaking_scene,
    random_scene,
    vehicle_on_left_scene,
)
from repro.highway.idm import idm_acceleration


def two_car_sim(gap=50.0, leader_speed=20.0, ego_speed=30.0, lanes=3):
    road = Road(num_lanes=lanes)
    ego = Vehicle(0, x=100.0, y=0.0, speed=ego_speed, lane=0, is_ego=True,
                  desired_speed=32.0)
    leader = Vehicle(1, x=100.0 + gap, y=0.0, speed=leader_speed, lane=0,
                     desired_speed=leader_speed)
    return HighwaySimulator(road, [ego, leader])


class TestConstruction:
    def test_duplicate_ids_rejected(self):
        road = Road()
        vehicles = [
            Vehicle(0, 0.0, 0.0, 20.0, 0),
            Vehicle(0, 50.0, 0.0, 20.0, 0),
        ]
        with pytest.raises(SimulationError):
            HighwaySimulator(road, vehicles)

    def test_invalid_lane_rejected(self):
        road = Road(num_lanes=2)
        with pytest.raises(SimulationError):
            HighwaySimulator(road, [Vehicle(0, 0.0, 0.0, 20.0, lane=5)])

    def test_missing_ego_raises_on_access(self):
        sim = HighwaySimulator(Road(), [Vehicle(0, 0.0, 0.0, 20.0, 0)])
        assert not sim.has_ego()
        with pytest.raises(SimulationError):
            _ = sim.ego

    def test_vehicle_by_id(self):
        sim = two_car_sim()
        assert sim.vehicle_by_id(1).vehicle_id == 1
        with pytest.raises(SimulationError):
            sim.vehicle_by_id(99)


class TestNeighborQueries:
    def test_leader_found(self):
        sim = two_car_sim(gap=50.0)
        found = sim.leader_in_lane(sim.ego, 0)
        assert found is not None
        vehicle, gap = found
        assert vehicle.vehicle_id == 1
        assert gap == pytest.approx(50.0 - 4.5)  # bumper-to-bumper

    def test_follower_found(self):
        sim = two_car_sim(gap=50.0)
        leader = sim.vehicle_by_id(1)
        found = sim.follower_in_lane(leader, 0)
        assert found is not None
        assert found[0].vehicle_id == 0

    def test_no_leader_in_empty_lane(self):
        sim = two_car_sim()
        assert sim.leader_in_lane(sim.ego, 1) is None

    def test_ring_wraparound_leader(self):
        road = Road(length=500.0)
        a = Vehicle(0, x=490.0, y=0.0, speed=20.0, lane=0, is_ego=True)
        b = Vehicle(1, x=10.0, y=0.0, speed=20.0, lane=0)
        sim = HighwaySimulator(road, [a, b])
        found = sim.leader_in_lane(a, 0)
        assert found is not None
        assert found[0].vehicle_id == 1


class TestKinematics:
    def test_free_vehicle_accelerates_to_desired(self):
        road = Road()
        car = Vehicle(0, 0.0, 0.0, 20.0, 0, desired_speed=30.0, is_ego=True)
        sim = HighwaySimulator(road, [car])
        sim.run(1200)
        assert car.speed == pytest.approx(30.0, abs=0.5)

    def test_follower_does_not_rear_end(self):
        # Single-lane road: overtaking impossible, ego must car-follow.
        sim = two_car_sim(
            gap=30.0, leader_speed=15.0, ego_speed=33.0, lanes=1
        )
        sim.run(1500)
        assert not sim.collisions
        # Ego must have matched the leader's speed approximately.
        assert sim.ego.speed == pytest.approx(15.0, abs=1.5)

    def test_speed_never_negative(self):
        # A stopped leader (jam tail) must not drive the ego's speed
        # negative; single lane so the ego cannot just go around it.
        sim = two_car_sim(
            gap=8.0, leader_speed=0.0, ego_speed=30.0, lanes=1
        )
        for _ in range(600):
            sim.step()
            assert sim.ego.speed >= 0.0

    def test_time_and_steps_advance(self):
        sim = two_car_sim()
        sim.run(10)
        assert sim.steps == 10
        assert sim.time == pytest.approx(1.0)


class TestLaneChanges:
    def test_overtake_happens(self):
        """Ego stuck behind a slow leader moves to the free left lane."""
        road = Road()
        ego = Vehicle(0, 100.0, 0.0, 30.0, 0, desired_speed=33.0,
                      is_ego=True)
        slow = Vehicle(1, 140.0, 0.0, 18.0, 0, desired_speed=18.0)
        sim = HighwaySimulator(road, [ego, slow])
        sim.run(300)
        assert road.lane_of(ego.y) == 1
        assert not sim.collisions

    def test_lane_change_blocked_by_occupied_slot(self):
        road = Road(num_lanes=2)
        vehicles = vehicle_on_left_scene(road)
        sim = HighwaySimulator(road, vehicles)
        ego = sim.ego
        for _ in range(100):
            sim.step()
            # The blocker sits beside the ego: no left change may begin
            # while the slot is physically occupied.
            blocker = sim.vehicle_by_id(1)
            beside = (
                min(
                    road.gap(ego.x, blocker.x),
                    road.gap(blocker.x, ego.x),
                )
                < 6.0
            )
            if beside:
                assert road.lane_of(ego.y) == 0
        assert not sim.collisions

    def test_lateral_motion_reaches_target_center(self):
        road = Road()
        ego = Vehicle(0, 100.0, 0.0, 30.0, 0, desired_speed=33.0,
                      is_ego=True)
        slow = Vehicle(1, 130.0, 0.0, 15.0, 0, desired_speed=15.0)
        sim = HighwaySimulator(road, [ego, slow])
        sim.run(400)
        assert ego.y == pytest.approx(road.lane_center(ego.lane), abs=0.01)
        assert ego.lateral_velocity == 0.0


class TestExternalEgoControl:
    def test_override_applies_action(self):
        sim = two_car_sim(gap=80.0)
        sim.set_ego_action(lateral_velocity=1.0, acceleration=0.0)
        y_before = sim.ego.y
        sim.step()
        assert sim.ego.y == pytest.approx(
            y_before + 1.0 * sim.config.dt
        )

    def test_override_is_one_shot(self):
        sim = two_car_sim(gap=80.0)
        sim.set_ego_action(lateral_velocity=1.0, acceleration=0.0)
        sim.step()
        y_after_first = sim.ego.y
        sim.ego.lateral_velocity = 0.0
        sim.step()  # back to expert control, no residual drift upward
        assert sim.ego.y <= y_after_first + 1e-9

    def test_external_y_clamped_to_road(self):
        sim = two_car_sim()
        for _ in range(200):
            sim.set_ego_action(lateral_velocity=2.0, acceleration=0.0)
            sim.step()
        road = sim.road
        assert sim.ego.y <= road.lane_center(road.leftmost_lane) + 1e-9


class TestScenarios:
    def test_random_scene_spacing(self, rng):
        road = Road()
        spec = ScenarioSpec(num_vehicles=15, min_spacing=18.0)
        vehicles = random_scene(road, rng, spec)
        assert len(vehicles) == 15
        assert sum(v.is_ego for v in vehicles) == 1
        by_lane = {}
        for v in vehicles:
            by_lane.setdefault(v.lane, []).append(v.x)
        for xs in by_lane.values():
            xs = sorted(xs)
            for a, b in zip(xs, xs[1:]):
                assert b - a >= spec.min_spacing - 1e-9

    def test_overfull_scene_rejected(self, rng):
        road = Road(length=100.0)
        with pytest.raises(SimulationError):
            random_scene(
                road, rng, ScenarioSpec(num_vehicles=50, min_spacing=20.0)
            )

    def test_long_mixed_run_is_collision_free(self, rng):
        road = Road()
        vehicles = random_scene(
            road, rng, ScenarioSpec(num_vehicles=16)
        )
        sim = HighwaySimulator(road, vehicles)
        sim.run(1000)
        assert not sim.collisions


class ScanningSimulator(HighwaySimulator):
    """Reference simulator: every neighbour, slot and collision check
    scans every vehicle and recomputes its occupied lanes, with no lane
    index at all."""

    def _nearest(self, vehicle, lane, ahead):
        best = None
        for other in self.vehicles:
            if other.vehicle_id == vehicle.vehicle_id:
                continue
            if lane not in other.occupied_lanes(self.road):
                continue
            if ahead:
                center_gap = self.road.gap(vehicle.x, other.x)
            else:
                center_gap = self.road.gap(other.x, vehicle.x)
            if center_gap <= 0 or center_gap > self.road.length / 2:
                continue
            gap = center_gap - 0.5 * (vehicle.length + other.length)
            if best is None or gap < best[1]:
                best = (other, gap)
        return best

    def _longitudinal(self, vehicle):
        gap = math.inf
        leader_speed = math.inf
        for lane in vehicle.occupied_lanes(self.road):
            found = self._nearest(vehicle, lane, ahead=True)
            if found is not None and found[1] < gap:
                gap = found[1]
                leader_speed = found[0].speed
        desired = min(
            vehicle.desired_speed,
            self.road.speed_limit * self.road.friction + 3.0,
        )
        desired = max(desired, 0.1)
        return idm_acceleration(
            self.idm, vehicle.speed, desired, gap, leader_speed
        )

    def _slot_free(self, vehicle, lane):
        for other in self.vehicles:
            if other.vehicle_id == vehicle.vehicle_id:
                continue
            if lane not in other.occupied_lanes(self.road):
                continue
            forward = self.road.gap(vehicle.x, other.x)
            backward = self.road.gap(other.x, vehicle.x)
            margin = 0.5 * (vehicle.length + other.length) + 1.0
            if min(forward, backward) < margin:
                return False
        return True

    def _detect_collisions(self):
        for i, a in enumerate(self.vehicles):
            lanes_a = set(a.occupied_lanes(self.road))
            for b in self.vehicles[i + 1 :]:
                if not lanes_a & set(b.occupied_lanes(self.road)):
                    continue
                gap = min(
                    self.road.gap(a.x, b.x), self.road.gap(b.x, a.x)
                )
                if gap < 0.5 * (a.length + b.length):
                    self.collisions.append(
                        (a.vehicle_id, b.vehicle_id, self.time)
                    )


_STATE = ("x", "y", "speed", "lane", "accel", "lateral_velocity")


def _state(sim):
    return [
        tuple(getattr(v, name) for name in _STATE) for v in sim.vehicles
    ]


def _random_driver(seed, every):
    """Seeded random ego actions on every ``every``-th step."""
    rng = np.random.default_rng(seed)

    def drive(step):
        if step % every:
            return None
        return float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-3.0, 2.0))

    return drive


def _twin_rollout(road, vehicles, steps, drive=None):
    """Step the indexed and the scanning simulator side by side from the
    same start and assert exactly equal states after every step.

    ``drive(step)`` may return an ego action ``(lateral_velocity,
    acceleration)`` that both simulators apply to that step.  Returns
    the reference simulator."""
    fast = HighwaySimulator(road, [v.copy() for v in vehicles])
    ref = ScanningSimulator(road, [v.copy() for v in vehicles])
    assert _state(fast) == _state(ref)
    for step in range(steps):
        action = drive(step) if drive else None
        if action is not None:
            fast.set_ego_action(*action)
            ref.set_ego_action(*action)
        fast.step()
        ref.step()
        assert _state(fast) == _state(ref), f"diverged at step {step}"
        assert fast.collisions == ref.collisions, f"step {step}"
    return ref


class TestLaneIndexMatchesScans:
    """The per-step lane index answers exactly as all-vehicle scans."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_scene(self, seed):
        road = Road()
        vehicles = random_scene(
            road, np.random.default_rng(seed), ScenarioSpec(num_vehicles=16)
        )
        _twin_rollout(road, vehicles, 250, _random_driver(seed, 5))

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_random_overtaking_scene(self, seed):
        road = Road()
        vehicles = random_overtaking_scene(road, np.random.default_rng(seed))
        _twin_rollout(road, vehicles, 250)

    def test_dense_scene_with_external_ego(self):
        road = Road(length=500.0)
        vehicles = random_scene(
            road,
            np.random.default_rng(8),
            ScenarioSpec(num_vehicles=24, min_spacing=15.0),
        )
        _twin_rollout(road, vehicles, 250, _random_driver(8, 3))

    def test_vehicle_on_left_scene_collisions(self):
        """Steering the ego into the blocker collides in both simulators,
        so the collision lists are compared on real entries."""
        road = Road(num_lanes=2)
        ref = _twin_rollout(
            road,
            vehicle_on_left_scene(road),
            60,
            lambda step: (2.0, 0.0) if step < 20 else None,
        )
        assert ref.collisions

    @staticmethod
    def _both(road, vehicles):
        return (
            HighwaySimulator(road, [v.copy() for v in vehicles]),
            ScanningSimulator(road, [v.copy() for v in vehicles]),
        )

    @staticmethod
    def _ids(found):
        return None if found is None else (found[0].vehicle_id, found[1])

    def _assert_queries_match(self, road, vehicles):
        fast, ref = self._both(road, vehicles)
        for a, b in zip(fast.vehicles, ref.vehicles):
            for lane in range(-1, road.num_lanes + 1):
                assert self._ids(fast.leader_in_lane(a, lane)) == self._ids(
                    ref.leader_in_lane(b, lane)
                )
                assert self._ids(
                    fast.follower_in_lane(a, lane)
                ) == self._ids(ref.follower_in_lane(b, lane))
                if 0 <= lane < road.num_lanes:
                    assert fast._slot_free(a, lane) == ref._slot_free(b, lane)
        return fast

    def test_equal_gap_tie_goes_to_first_in_order(self):
        road = Road()
        ego = Vehicle(0, x=100.0, y=0.0, speed=25.0, lane=0, is_ego=True)
        # Vehicle 2 straddles lanes 0 and 1 at the same x as vehicle 1.
        first = Vehicle(1, x=140.0, y=0.0, speed=20.0, lane=0)
        second = Vehicle(2, x=140.0, y=1.75, speed=22.0, lane=1,
                         lateral_velocity=1.2)
        for order, winner in (([ego, first, second], 1),
                              ([ego, second, first], 2)):
            fast = self._assert_queries_match(road, order)
            assert fast.leader_in_lane(fast.ego, 0)[0].vehicle_id == winner

    def test_vehicle_mid_change_occupies_two_lanes(self):
        road = Road()
        ego = Vehicle(0, x=100.0, y=3.5, speed=25.0, lane=1, is_ego=True)
        changing = Vehicle(1, x=130.0, y=1.75, speed=20.0, lane=0,
                           lateral_velocity=-1.2)
        fast = self._assert_queries_match(road, [ego, changing])
        assert changing.occupied_lanes(road) == [0, 1]
        for lane in (0, 1):
            assert fast.leader_in_lane(fast.ego, lane)[0].vehicle_id == 1
        assert fast.leader_in_lane(fast.ego, 2) is None

    def test_leader_across_ring_wrap(self):
        road = Road(length=500.0)
        vehicles = [
            Vehicle(0, x=490.0, y=0.0, speed=20.0, lane=0, is_ego=True),
            Vehicle(1, x=10.0, y=0.0, speed=20.0, lane=0),
            Vehicle(2, x=480.0, y=3.5, speed=20.0, lane=1),
        ]
        fast = self._assert_queries_match(road, vehicles)
        vehicle, gap = fast.leader_in_lane(fast.ego, 0)
        assert vehicle.vehicle_id == 1
        assert gap == pytest.approx(20.0 - 4.5)
        assert fast.follower_in_lane(fast.vehicle_by_id(1), 0)[0].vehicle_id == 0


class TestLaneIndexLifetime:
    """No lane index outlives the step that built it."""

    def test_queries_between_steps_see_moved_vehicles(self):
        road = Road()
        sim = two_car_sim(gap=50.0)
        sim.step()
        mover = sim.vehicle_by_id(1)
        assert sim.leader_in_lane(sim.ego, 0)[0] is mover
        # Move the leader to lane 2, and from ahead of the ego to behind it.
        mover.y = road.lane_center(2)
        mover.lane = 2
        mover.x = road.wrap(sim.ego.x - 30.0)
        assert sim.leader_in_lane(sim.ego, 0) is None
        assert sim.leader_in_lane(sim.ego, 2) is None
        vehicle, gap = sim.follower_in_lane(sim.ego, 2)
        assert vehicle is mover
        assert gap == pytest.approx(30.0 - 4.5)
        sim.step()
        assert sim.follower_in_lane(sim.ego, 2)[0] is mover

    def test_failed_step_leaves_no_index(self):
        """A ``SimulationError`` from the lane-change phase propagates and
        the queries after it answer for the current state."""
        road = Road()
        ego = Vehicle(0, x=100.0, y=0.0, speed=30.0, lane=0, is_ego=True,
                      desired_speed=33.0)
        slow = Vehicle(1, x=130.0, y=0.0, speed=15.0, lane=0,
                       desired_speed=15.0)
        # A stopped follower in the target lane: MOBIL's safety check
        # evaluates IDM at its desired speed of 0, which IDM rejects.
        parked = Vehicle(2, x=60.0, y=3.5, speed=0.0, lane=1,
                         desired_speed=0.0)
        sim = HighwaySimulator(road, [ego, slow, parked])
        with pytest.raises(SimulationError, match="desired speed"):
            sim.step()
        assert sim._index is None
        parked.x = 140.0
        assert sim.leader_in_lane(ego, 1)[0] is parked
        parked.y = 0.0
        assert sim.leader_in_lane(ego, 0)[0] is slow
        assert sim.leader_in_lane(ego, 1) is None
