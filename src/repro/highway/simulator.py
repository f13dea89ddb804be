"""Closed-loop multi-lane highway simulator.

Every vehicle follows IDM longitudinally and MOBIL laterally — the same
"expert" behaviour the paper's motion predictor was trained to imitate.
The designated ego vehicle can instead be driven externally (e.g. by a
trained network) for closed-loop evaluation, as in the paper's Figure 1
simulation snapshot.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.highway.idm import IDMParams, idm_acceleration
from repro.highway.mobil import MOBILParams, NeighborView, lane_change_decision
from repro.highway.road import Road
from repro.highway.vehicle import Vehicle


@dataclasses.dataclass
class SimulatorConfig:
    """Simulation tunables."""

    dt: float = 0.1                 # integration step (s)
    lateral_speed: float = 1.2     # lane-change lateral speed (m/s)
    lane_change_cooldown: float = 4.0  # seconds between changes per vehicle
    collision_check: bool = True

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise SimulationError("dt must be positive")
        if self.lateral_speed <= 0:
            raise SimulationError("lateral_speed must be positive")


@dataclasses.dataclass
class _LaneIndex:
    """Who occupies which lane, for one fixed set of lateral positions.

    ``occupied`` maps a vehicle id to its occupied lanes; ``members``
    maps a lane to its occupants in simulator order, so a scan over one
    lane breaks ties exactly as a scan over every vehicle would.
    """

    occupied: Dict[int, List[int]]
    members: Dict[int, List[Vehicle]]


class HighwaySimulator:
    """Steps a set of vehicles on a ring highway.

    Occupancy depends only on each vehicle's ``y``, which moves only in
    the lateral phase of :meth:`step`.  The neighbour and slot queries
    of the phases before it therefore share one lane index, built when
    the step starts and dropped before any vehicle moves; queries made
    outside a step build their own.
    """

    def __init__(
        self,
        road: Road,
        vehicles: List[Vehicle],
        idm: Optional[IDMParams] = None,
        mobil: Optional[MOBILParams] = None,
        config: Optional[SimulatorConfig] = None,
    ) -> None:
        self.road = road
        self.vehicles = list(vehicles)
        self.idm = idm or IDMParams()
        self.mobil = mobil or MOBILParams()
        self.config = config or SimulatorConfig()
        self.time = 0.0
        self.steps = 0
        self.collisions: List[Tuple[int, int, float]] = []
        self._cooldown: Dict[int, float] = {}
        self._ego_override: Optional[Tuple[float, float]] = None
        self._index: Optional[_LaneIndex] = None
        ids = [v.vehicle_id for v in self.vehicles]
        if len(set(ids)) != len(ids):
            raise SimulationError("duplicate vehicle ids")
        for vehicle in self.vehicles:
            road.check_lane(vehicle.lane)

    # -- queries ---------------------------------------------------------------
    @property
    def ego(self) -> Vehicle:
        for vehicle in self.vehicles:
            if vehicle.is_ego:
                return vehicle
        raise SimulationError("no ego vehicle in the simulation")

    def has_ego(self) -> bool:
        """Whether any vehicle is marked as the ego."""
        return any(v.is_ego for v in self.vehicles)

    def vehicle_by_id(self, vehicle_id: int) -> Vehicle:
        """Look up a vehicle; raises on unknown ids."""
        for vehicle in self.vehicles:
            if vehicle.vehicle_id == vehicle_id:
                return vehicle
        raise SimulationError(f"no vehicle with id {vehicle_id}")

    def leader_in_lane(
        self, vehicle: Vehicle, lane: int
    ) -> Optional[Tuple[Vehicle, float]]:
        """Nearest vehicle ahead in ``lane``; returns (vehicle, gap)."""
        return self._nearest(vehicle, lane, ahead=True)

    def follower_in_lane(
        self, vehicle: Vehicle, lane: int
    ) -> Optional[Tuple[Vehicle, float]]:
        """Nearest vehicle behind in ``lane``; returns (vehicle, gap)."""
        return self._nearest(vehicle, lane, ahead=False)

    def _nearest(
        self, vehicle: Vehicle, lane: int, ahead: bool
    ) -> Optional[Tuple[Vehicle, float]]:
        best: Optional[Tuple[Vehicle, float]] = None
        for other in self._lane_index().members.get(lane, ()):
            if other.vehicle_id == vehicle.vehicle_id:
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

    # -- external ego control -----------------------------------------------------
    def set_ego_action(
        self, lateral_velocity: float, acceleration: float
    ) -> None:
        """Drive the ego externally for the next step (closed-loop NN)."""
        self._ego_override = (lateral_velocity, acceleration)

    # -- stepping -------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by one time step."""
        dt = self.config.dt
        accels: Dict[int, float] = {}
        # The next two phases never write ``y``, so occupancy holds
        # until the vehicles move below.
        self._index = self._build_index()
        try:
            for vehicle in self.vehicles:
                accels[vehicle.vehicle_id] = self._longitudinal(vehicle)
            for vehicle in self.vehicles:
                if not vehicle.changing_lanes:
                    self._maybe_change_lane(vehicle)
        finally:
            self._index = None

        override = self._ego_override
        self._ego_override = None
        for vehicle in self.vehicles:
            accel = accels[vehicle.vehicle_id]
            if vehicle.is_ego and override is not None:
                vehicle.lateral_velocity, accel = override
            vehicle.accel = accel
            vehicle.x = self.road.wrap(
                vehicle.x + vehicle.speed * dt + 0.5 * accel * dt * dt
            )
            vehicle.speed = max(0.0, vehicle.speed + accel * dt)
            self._lateral(vehicle, external=vehicle.is_ego and override is not None)
            cooldown = self._cooldown.get(vehicle.vehicle_id, 0.0)
            if cooldown > 0:
                self._cooldown[vehicle.vehicle_id] = cooldown - dt
        self.time += dt
        self.steps += 1
        if self.config.collision_check:
            self._detect_collisions()

    def run(self, steps: int) -> None:
        """Advance the simulation by ``steps`` time steps."""
        for _ in range(steps):
            self.step()

    # -- internals ------------------------------------------------------------------
    def _build_index(self) -> _LaneIndex:
        occupied: Dict[int, List[int]] = {}
        members: Dict[int, List[Vehicle]] = {}
        for vehicle in self.vehicles:
            lanes = vehicle.occupied_lanes(self.road)
            occupied[vehicle.vehicle_id] = lanes
            for lane in lanes:
                members.setdefault(lane, []).append(vehicle)
        return _LaneIndex(occupied, members)

    def _lane_index(self) -> _LaneIndex:
        """The current step's index, or a fresh one outside a step."""
        return self._index if self._index is not None else self._build_index()

    def _longitudinal(self, vehicle: Vehicle) -> float:
        gap = math.inf
        leader_speed = math.inf
        for lane in self._lane_index().occupied[vehicle.vehicle_id]:
            found = self.leader_in_lane(vehicle, lane)
            if found is not None and found[1] < gap:
                gap = found[1]
                leader_speed = found[0].speed
        desired = min(
            vehicle.desired_speed,
            self.road.speed_limit * self.road.friction + 3.0,
        )
        # A stopped/jammed vehicle (desired_speed 0) is legal; IDM itself
        # requires a positive target, so give it a crawl speed.
        desired = max(desired, 0.1)
        return idm_acceleration(
            self.idm, vehicle.speed, desired, gap, leader_speed
        )

    def _maybe_change_lane(self, vehicle: Vehicle) -> None:
        if self._cooldown.get(vehicle.vehicle_id, 0.0) > 0:
            return
        current = self.leader_in_lane(vehicle, vehicle.lane)
        for target in (vehicle.lane + 1, vehicle.lane - 1):
            if not 0 <= target < self.road.num_lanes:
                continue
            if not self._slot_free(vehicle, target):
                continue
            leader = self.leader_in_lane(vehicle, target)
            follower = self.follower_in_lane(vehicle, target)
            decide = lane_change_decision(
                self.idm,
                self.mobil,
                vehicle.speed,
                vehicle.desired_speed,
                _view(current),
                _view(leader),
                _view(follower),
                target_follower_desired=(
                    follower[0].desired_speed if follower else 30.0
                ),
                toward_right=target < vehicle.lane,
            )
            if decide:
                vehicle.lane = target
                direction = 1.0 if target > self.road.lane_of(vehicle.y) else -1.0
                vehicle.lateral_velocity = direction * self.config.lateral_speed
                self._cooldown[vehicle.vehicle_id] = (
                    self.config.lane_change_cooldown
                )
                return

    def _slot_free(self, vehicle: Vehicle, lane: int) -> bool:
        """Physical space check: nobody directly beside the vehicle."""
        for other in self._lane_index().members.get(lane, ()):
            if other.vehicle_id == vehicle.vehicle_id:
                continue
            forward = self.road.gap(vehicle.x, other.x)
            backward = self.road.gap(other.x, vehicle.x)
            margin = 0.5 * (vehicle.length + other.length) + 1.0
            if min(forward, backward) < margin:
                return False
        return True

    def _lateral(self, vehicle: Vehicle, external: bool = False) -> None:
        dt = self.config.dt
        if external:
            # Externally-driven ego: integrate the commanded velocity and
            # clamp to the road edges.
            vehicle.y += vehicle.lateral_velocity * dt
            vehicle.y = min(
                max(vehicle.y, 0.0),
                self.road.lane_center(self.road.leftmost_lane),
            )
            vehicle.lane = self.road.lane_of(vehicle.y)
            return
        if not vehicle.changing_lanes:
            return
        target = self.road.lane_center(vehicle.lane)
        step = vehicle.lateral_velocity * dt
        if abs(target - vehicle.y) <= abs(step):
            vehicle.y = target
            vehicle.lateral_velocity = 0.0
        else:
            vehicle.y += step

    def _detect_collisions(self) -> None:
        lanes = [set(v.occupied_lanes(self.road)) for v in self.vehicles]
        for i, (a, lanes_a) in enumerate(zip(self.vehicles, lanes)):
            for b, lanes_b in zip(self.vehicles[i + 1 :], lanes[i + 1 :]):
                if not lanes_a & lanes_b:
                    continue
                gap = min(
                    self.road.gap(a.x, b.x), self.road.gap(b.x, a.x)
                )
                if gap < 0.5 * (a.length + b.length):
                    self.collisions.append(
                        (a.vehicle_id, b.vehicle_id, self.time)
                    )


def _view(found: Optional[Tuple[Vehicle, float]]) -> Optional[NeighborView]:
    if found is None:
        return None
    vehicle, gap = found
    return NeighborView(gap=gap, speed=vehicle.speed)
