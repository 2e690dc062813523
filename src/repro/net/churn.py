"""Churn process and time-varying churn schedules.

The dynamic environment in the paper's evaluation removes 5% of the old
nodes and adds 5% new nodes at every scheduling period.  The churn process
here generalises that twice over:

* :class:`ChurnProcess` turns per-round (leave, join) fractions into concrete
  membership events, with the media source always protected from removal;
* :class:`ChurnSchedule` makes the fractions *time-varying*.  The paper's
  flat "x% out / x% in every period" is one schedule kind
  (:class:`ConstantChurn`); the others model the workloads the scenario
  engine needs — a diurnal audience wave, a flash-crowd spike with a drain
  afterwards, a massive correlated failure (blackout), and an arbitrary
  piecewise-constant profile.

Every schedule serialises to a plain dict (``to_dict`` / ``from_dict`` /
:func:`schedule_from_dict`), which is what lets
:class:`~repro.scenarios.spec.ScenarioSpec` round-trip through YAML/JSON.
"""

from __future__ import annotations

import abc
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Type


import numpy as np


def _check_fraction(name: str, value: float, upper_exclusive: bool = False) -> None:
    """Validate a churn fraction; leave fractions must stay below 1."""
    if upper_exclusive:
        if not (0.0 <= value < 1.0):
            raise ValueError(f"{name} must be in [0, 1), got {value!r}")
    elif not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class ChurnEvent:
    """The membership changes decided for one round."""

    round_index: int
    leaving: tuple[int, ...]
    joining: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return not self.leaving and not self.joining


# =========================================================================
# Time-varying schedules
# =========================================================================
class ChurnSchedule(abc.ABC):
    """Per-round (leave_fraction, join_fraction) profile.

    Subclasses declare a :attr:`kind` string (the registry key used by
    :func:`schedule_from_dict`) and implement :meth:`fractions`.  Fractions
    returned for any round are clipped to the valid ranges, so a schedule
    expression such as ``base * (1 + amplitude * sin(...))`` never has to
    worry about the boundaries itself.
    """

    #: Registry key; set on each concrete subclass.
    kind: str = ""

    #: kind -> subclass, filled by :meth:`__init_subclass__`.
    _registry: Dict[str, Type["ChurnSchedule"]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            ChurnSchedule._registry[cls.kind] = cls

    # ------------------------------------------------------------------ contract
    @abc.abstractmethod
    def raw_fractions(self, round_index: int) -> Tuple[float, float]:
        """Unclipped (leave_fraction, join_fraction) for ``round_index``."""

    def fractions(self, round_index: int) -> Tuple[float, float]:
        """Clipped (leave_fraction, join_fraction) for ``round_index``."""
        leave, join = self.raw_fractions(round_index)
        # Clip to the documented bounds only — leave stays strictly below 1
        # without distorting values the constructors already validated.
        return (
            float(min(max(leave, 0.0), math.nextafter(1.0, 0.0))),
            float(min(max(join, 0.0), 1.0)),
        )

    @property
    def is_static(self) -> bool:
        """True when the schedule never changes membership (overridable)."""
        return False

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form: the dataclass fields plus the ``kind`` tag."""
        payload = asdict(self)  # type: ignore[call-overload]
        payload["kind"] = self.kind
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChurnSchedule":
        """Rebuild any registered schedule kind from its dict form."""
        return schedule_from_dict(payload)


def schedule_from_dict(payload: Mapping[str, Any]) -> ChurnSchedule:
    """Instantiate the :class:`ChurnSchedule` described by ``payload``.

    The payload must carry a ``kind`` key naming a registered schedule;
    the remaining keys are the schedule's constructor fields.

    Raises:
        ValueError: for missing or unknown kinds (lists the known ones).
    """
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind is None:
        raise ValueError("churn schedule dict needs a 'kind' key")
    schedule_cls = ChurnSchedule._registry.get(str(kind))
    if schedule_cls is None:
        known = ", ".join(sorted(ChurnSchedule._registry))
        raise ValueError(f"unknown churn schedule kind {kind!r}; known kinds: {known}")
    try:
        return schedule_cls(**data)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ValueError(
            f"invalid parameters for churn schedule kind {kind!r}: {exc}"
        ) from exc


@dataclass(frozen=True)
class ConstantChurn(ChurnSchedule):
    """The paper's flat churn: the same fractions every round."""

    leave_fraction: float = 0.0
    join_fraction: float = 0.0
    kind = "constant"

    def __post_init__(self) -> None:
        _check_fraction("leave_fraction", self.leave_fraction, upper_exclusive=True)
        _check_fraction("join_fraction", self.join_fraction)

    def raw_fractions(self, round_index: int) -> Tuple[float, float]:
        return (self.leave_fraction, self.join_fraction)

    @property
    def is_static(self) -> bool:
        return self.leave_fraction == 0.0 and self.join_fraction == 0.0


@dataclass(frozen=True)
class DiurnalChurn(ChurnSchedule):
    """A sinusoidal audience wave around base fractions.

    Joins are modulated by ``1 + amplitude * sin(2π (r + phase)/T)`` and
    leaves by its mirror ``1 - amplitude * sin(...)`` — anti-phase, so the
    join peak and the leave trough fall in the same round and the audience
    grows on the rising half-cycle and shrinks on the falling one: a daily
    audience cycle compressed into ``period_rounds`` scheduling periods.
    """

    base_leave_fraction: float = 0.05
    base_join_fraction: float = 0.05
    amplitude: float = 0.5
    period_rounds: int = 24
    phase_rounds: float = 0.0
    kind = "diurnal"

    def __post_init__(self) -> None:
        _check_fraction("base_leave_fraction", self.base_leave_fraction, upper_exclusive=True)
        _check_fraction("base_join_fraction", self.base_join_fraction)
        if not (0.0 <= self.amplitude <= 1.0):
            raise ValueError("amplitude must be in [0, 1]")
        if self.period_rounds < 2:
            raise ValueError("period_rounds must be >= 2")

    def raw_fractions(self, round_index: int) -> Tuple[float, float]:
        angle = 2.0 * math.pi * (round_index + self.phase_rounds) / self.period_rounds
        wave = self.amplitude * math.sin(angle)
        # Joins ride the wave, leaves ride its opposite: the audience grows
        # on the rising half-cycle and shrinks on the falling one.
        return (
            self.base_leave_fraction * (1.0 - wave),
            self.base_join_fraction * (1.0 + wave),
        )


@dataclass(frozen=True)
class FlashCrowdChurn(ChurnSchedule):
    """A sudden join spike followed by an elevated-leave drain.

    Rounds ``[spike_round, spike_round + spike_duration)`` see
    ``spike_join_fraction`` joins per round; the next ``drain_duration``
    rounds see ``drain_leave_fraction`` leaves as the crowd loses interest.
    Outside those windows the base fractions apply.
    """

    base_leave_fraction: float = 0.01
    base_join_fraction: float = 0.01
    spike_round: int = 5
    spike_duration: int = 3
    spike_join_fraction: float = 0.25
    drain_duration: int = 0
    drain_leave_fraction: float = 0.0
    kind = "flash-crowd"

    def __post_init__(self) -> None:
        _check_fraction("base_leave_fraction", self.base_leave_fraction, upper_exclusive=True)
        _check_fraction("base_join_fraction", self.base_join_fraction)
        _check_fraction("spike_join_fraction", self.spike_join_fraction)
        _check_fraction("drain_leave_fraction", self.drain_leave_fraction, upper_exclusive=True)
        if self.spike_round < 0 or self.spike_duration < 1:
            raise ValueError("spike_round must be >= 0 and spike_duration >= 1")
        if self.drain_duration < 0:
            raise ValueError("drain_duration must be >= 0")

    def raw_fractions(self, round_index: int) -> Tuple[float, float]:
        spike_end = self.spike_round + self.spike_duration
        if self.spike_round <= round_index < spike_end:
            return (self.base_leave_fraction, self.spike_join_fraction)
        if spike_end <= round_index < spike_end + self.drain_duration:
            return (self.drain_leave_fraction, self.base_join_fraction)
        return (self.base_leave_fraction, self.base_join_fraction)


@dataclass(frozen=True)
class BlackoutChurn(ChurnSchedule):
    """A massive correlated failure at one round, then a recovery wave.

    At ``blackout_round`` a ``failure_fraction`` of the population leaves in
    a single period (the clustered-failure stress CliqueStream motivates);
    the following ``recovery_duration`` rounds see ``recovery_join_fraction``
    joins as the audience reconnects.
    """

    base_leave_fraction: float = 0.0
    base_join_fraction: float = 0.0
    blackout_round: int = 10
    failure_fraction: float = 0.3
    recovery_duration: int = 0
    recovery_join_fraction: float = 0.0
    kind = "blackout"

    def __post_init__(self) -> None:
        _check_fraction("base_leave_fraction", self.base_leave_fraction, upper_exclusive=True)
        _check_fraction("base_join_fraction", self.base_join_fraction)
        _check_fraction("failure_fraction", self.failure_fraction, upper_exclusive=True)
        _check_fraction("recovery_join_fraction", self.recovery_join_fraction)
        if self.blackout_round < 0:
            raise ValueError("blackout_round must be >= 0")
        if self.recovery_duration < 0:
            raise ValueError("recovery_duration must be >= 0")

    def raw_fractions(self, round_index: int) -> Tuple[float, float]:
        if round_index == self.blackout_round:
            return (self.failure_fraction, self.base_join_fraction)
        recovery_end = self.blackout_round + 1 + self.recovery_duration
        if self.blackout_round < round_index < recovery_end:
            return (self.base_leave_fraction, self.recovery_join_fraction)
        return (self.base_leave_fraction, self.base_join_fraction)


@dataclass(frozen=True)
class PiecewiseChurn(ChurnSchedule):
    """An arbitrary piecewise-constant profile.

    ``steps`` is a sequence of ``(start_round, leave_fraction,
    join_fraction)`` triples sorted by ``start_round``; each step applies
    from its start round until the next step begins.  Rounds before the
    first step are static.
    """

    steps: Tuple[Tuple[int, float, float], ...] = ()
    kind = "piecewise"

    def __post_init__(self) -> None:
        # Accept lists from JSON/YAML loads; store tuples so the frozen
        # dataclass stays hashable and round-trips cleanly.
        object.__setattr__(
            self, "steps", tuple(tuple(step) for step in self.steps)
        )
        starts = [int(step[0]) for step in self.steps]
        if starts != sorted(starts):
            raise ValueError("piecewise steps must be sorted by start round")
        for start, leave, join in self.steps:
            if start < 0:
                raise ValueError("piecewise step start rounds must be >= 0")
            _check_fraction("leave_fraction", leave, upper_exclusive=True)
            _check_fraction("join_fraction", join)

    def raw_fractions(self, round_index: int) -> Tuple[float, float]:
        leave = join = 0.0
        for start, step_leave, step_join in self.steps:
            if round_index < start:
                break
            leave, join = step_leave, step_join
        return (leave, join)

    @property
    def is_static(self) -> bool:
        return all(leave == 0.0 and join == 0.0 for _, leave, join in self.steps)


# =========================================================================
# The churn process
# =========================================================================
@dataclass
class ChurnProcess:
    """Generates per-round join/leave decisions.

    Attributes:
        protected: node ids that never leave (the media source).  Every
            protected id must be part of the population handed to
            :meth:`step`; a mismatch is reported as an error rather than
            silently shrinking the protected set.
        next_node_id: id to assign to the next joining node.
        schedule: the per-round (leave, join) fractions: the leaving share
            of the current non-protected nodes and the joining share of the
            current population.  ``None`` never changes membership.
    """

    protected: Set[int] = field(default_factory=set)
    next_node_id: int = 0
    schedule: Optional[ChurnSchedule] = None

    @property
    def is_static(self) -> bool:
        """True when the process never changes membership."""
        return self.schedule is None or self.schedule.is_static

    def reserve_ids(self, existing_ids: Iterable[int]) -> None:
        """Make sure newly assigned ids never collide with existing ones."""
        existing = list(existing_ids)
        if existing:
            self.next_node_id = max(self.next_node_id, max(existing) + 1)

    def step(
        self,
        round_index: int,
        current_nodes: Sequence[int],
        rng: np.random.Generator,
    ) -> ChurnEvent:
        """Decide which nodes leave and which join this round.

        Raises:
            ValueError: when a protected id is missing from
                ``current_nodes`` — protecting a node that is not in the
                population means the caller wired the process to the wrong
                overlay, which would otherwise fail silently.
        """
        if self.is_static or not current_nodes:
            return ChurnEvent(round_index=round_index, leaving=(), joining=())

        population = set(current_nodes)
        missing = self.protected - population
        if missing:
            raise ValueError(
                f"protected node ids {sorted(missing)} are not in the current "
                f"population ({len(population)} nodes); the churn process is "
                f"wired to a different overlay than the one it protects"
            )

        leave_fraction, join_fraction = self.schedule.fractions(round_index)
        candidates = [n for n in current_nodes if n not in self.protected]
        n_leave = int(round(leave_fraction * len(current_nodes)))
        n_leave = min(n_leave, len(candidates))
        leaving: List[int] = []
        if n_leave > 0:
            idx = rng.choice(len(candidates), size=n_leave, replace=False)
            leaving = [candidates[int(i)] for i in idx]

        n_join = int(round(join_fraction * len(current_nodes)))
        joining: List[int] = []
        for _ in range(n_join):
            joining.append(self.next_node_id)
            self.next_node_id += 1

        return ChurnEvent(
            round_index=round_index,
            leaving=tuple(sorted(leaving)),
            joining=tuple(joining),
        )
