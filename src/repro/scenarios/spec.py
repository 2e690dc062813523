"""Declarative scenario specifications.

A :class:`ScenarioSpec` composes the axes a streaming workload varies on —
churn schedule, bandwidth-class mix, loss rate, latency assumption, overlay
size — into a runnable simulation without touching core code:

* churn becomes a :class:`~repro.net.churn.ChurnSchedule` driven by the
  overlay's existing :class:`~repro.net.churn.ChurnProcess`;
* a bandwidth-class mix swaps a
  :class:`~repro.net.bandwidth.ClassMixBandwidthModel` onto the
  :class:`~repro.core.overlay.OverlayManager` before ``build()``;
* a loss rate inserts a
  :class:`~repro.scenarios.phases.LossyNetworkPhase` into the protocol's
  pipeline via the standard ``StreamingSystem(config, pipeline=...)`` hook;
* everything else flows through :class:`~repro.core.config.SystemConfig`.

Specs are plain data: they round-trip through ``to_dict``/``from_dict`` and
load from YAML or JSON files (:meth:`ScenarioSpec.from_file`), which is what
the campaign runner ships across ``multiprocessing`` workers.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import SystemConfig
from repro.core.phases import Phase, ProtocolRegistry
from repro.core.system import SimulationResult, StreamingSystem
from repro.net.bandwidth import BandwidthClass, ClassMixBandwidthModel
from repro.net.churn import ChurnSchedule, schedule_from_dict
from repro.scenarios.phases import LossyNetworkPhase

#: ``SystemConfig`` fields the spec's own fields control; allowing them in
#: ``config_overrides`` too would let :meth:`ScenarioSpec.to_config`
#: silently overwrite a user's value.
_RESERVED_OVERRIDE_KEYS = frozenset(
    {"num_nodes", "rounds", "seed", "churn_schedule", "hop_latency_ms"}
)

#: ``SystemConfig`` bandwidth fields that a ``bandwidth_classes`` mix
#: replaces wholesale — overriding them alongside a mix would be silently
#: ignored, so it is rejected instead.
_BANDWIDTH_OVERRIDE_KEYS = frozenset(
    {"mean_inbound", "min_inbound", "max_inbound", "heterogeneous"}
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative streaming workload.

    Attributes:
        name: scenario identifier (used in results and per-cell seeds).
        description: one-line human summary.
        num_nodes: overlay size, including the media source.
        rounds: scheduling periods to simulate.
        seed: root RNG seed (campaigns override this per cell).
        system: protocol name known to the
            :class:`~repro.core.phases.registry.ProtocolRegistry`.
        churn: time-varying churn schedule; ``None`` means static.
        bandwidth_classes: access-technology mix; ``None`` keeps the
            config's uniform heterogeneous draw.
        loss_rate: fraction of per-period bandwidth lost to an unreliable
            network (modelled as a throughput reduction; see
            :class:`~repro.scenarios.phases.LossyNetworkPhase`).
        hop_latency_ms: assumed mean one-hop latency; ``None`` estimates it
            from the trace (the :class:`~repro.core.config.SystemConfig`
            default).
        config_overrides: extra :class:`~repro.core.config.SystemConfig`
            keyword overrides (buffer sizes, prefetch limits, ...).
    """

    name: str
    description: str = ""
    num_nodes: int = 200
    rounds: int = 30
    seed: int = 0
    system: str = "continustreaming"
    churn: Optional[ChurnSchedule] = None
    bandwidth_classes: Optional[Tuple[BandwidthClass, ...]] = None
    loss_rate: float = 0.0
    hop_latency_ms: Optional[float] = None
    config_overrides: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.num_nodes < 2:
            raise ValueError("num_nodes must be at least 2")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate!r}")
        if self.bandwidth_classes is not None:
            object.__setattr__(self, "bandwidth_classes", tuple(self.bandwidth_classes))
            if not self.bandwidth_classes:
                raise ValueError(
                    "bandwidth_classes must list at least one class; use None "
                    "for the config's uniform bandwidth draw"
                )
        object.__setattr__(self, "config_overrides", dict(self.config_overrides))
        reserved = _RESERVED_OVERRIDE_KEYS & set(self.config_overrides)
        if reserved:
            raise ValueError(
                f"config_overrides must not set {sorted(reserved)}; these are "
                f"owned by the scenario's own fields (num_nodes, rounds, seed, "
                f"churn, hop_latency_ms) and would be silently overwritten"
            )
        if self.bandwidth_classes is not None:
            shadowed = _BANDWIDTH_OVERRIDE_KEYS & set(self.config_overrides)
            if shadowed:
                raise ValueError(
                    f"config_overrides must not set {sorted(shadowed)} when "
                    f"bandwidth_classes is given; the class mix replaces the "
                    f"config's uniform bandwidth draw entirely"
                )

    # ------------------------------------------------------------------ variants
    def scaled(
        self,
        num_nodes: Optional[int] = None,
        rounds: Optional[int] = None,
        seed: Optional[int] = None,
        system: Optional[str] = None,
    ) -> "ScenarioSpec":
        """Copy of this spec with size/length/seed/protocol overridden."""
        return dataclasses.replace(
            self,
            num_nodes=self.num_nodes if num_nodes is None else num_nodes,
            rounds=self.rounds if rounds is None else rounds,
            seed=self.seed if seed is None else seed,
            system=self.system if system is None else system,
        )

    # ------------------------------------------------------------- construction
    def to_config(self) -> SystemConfig:
        """The :class:`~repro.core.config.SystemConfig` this spec describes.

        The churn schedule rides along as ``SystemConfig.churn_schedule``,
        which the overlay's churn process consults per round.
        """
        kwargs: Dict[str, Any] = dict(self.config_overrides)
        kwargs.update(
            num_nodes=self.num_nodes,
            rounds=self.rounds,
            seed=self.seed,
            churn_schedule=self.churn,
        )
        if self.hop_latency_ms is not None:
            kwargs["hop_latency_ms"] = self.hop_latency_ms
        try:
            return SystemConfig(**kwargs)
        except TypeError as exc:
            # e.g. a config_overrides key SystemConfig does not know.
            raise ValueError(
                f"scenario {self.name!r}: invalid config_overrides: {exc}"
            ) from exc

    def build_pipeline(self) -> Tuple[Phase, ...]:
        """The protocol's pipeline with scenario phases spliced in."""
        pipeline = list(ProtocolRegistry.get(self.system).build_pipeline())
        if self.loss_rate > 0.0:
            # Throttle the budgets just before the scheduler spends them; a
            # protocol without the standard scheduler gets it before playback.
            names = [phase.name for phase in pipeline]
            index = next(
                (names.index(n) for n in ("data-scheduling", "playback") if n in names),
                len(names),
            )
            pipeline.insert(index, LossyNetworkPhase(self.loss_rate))
        return tuple(pipeline)

    def build_system(self) -> StreamingSystem:
        """A fully wired (not yet built) :class:`StreamingSystem`."""
        config = self.to_config()
        system = StreamingSystem(
            config, system=self.system, pipeline=self.build_pipeline()
        )
        if self.bandwidth_classes:
            system.manager.bandwidth = ClassMixBandwidthModel(
                self.bandwidth_classes, source_outbound=config.source_outbound
            )
        return system

    def run(self) -> SimulationResult:
        """Build and run the scenario to completion."""
        return self.build_system().run()

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON/YAML-safe); inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "description": self.description,
            "num_nodes": self.num_nodes,
            "rounds": self.rounds,
            "seed": self.seed,
            "system": self.system,
            "churn": None if self.churn is None else self.churn.to_dict(),
            "bandwidth_classes": (
                None
                if self.bandwidth_classes is None
                else [dataclasses.asdict(c) for c in self.bandwidth_classes]
            ),
            "loss_rate": self.loss_rate,
            "hop_latency_ms": self.hop_latency_ms,
            "config_overrides": dict(self.config_overrides),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from its :meth:`to_dict` form.

        Raises:
            ValueError: for unknown keys or malformed sub-specs, so a typo
                in a YAML file fails loudly instead of being ignored.
        """
        data = dict(payload)
        churn = data.pop("churn", None)
        classes = data.pop("bandwidth_classes", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario keys {sorted(unknown)}; known keys: {sorted(known)}"
            )
        try:
            bandwidth_classes = (
                None
                if classes is None
                else tuple(BandwidthClass(**dict(c)) for c in classes)
            )
        except TypeError as exc:
            raise ValueError(f"invalid bandwidth class parameters: {exc}") from exc
        try:
            return cls(
                churn=None if churn is None else schedule_from_dict(churn),
                bandwidth_classes=bandwidth_classes,
                **data,
            )
        except TypeError as exc:
            # e.g. a missing required key such as "name".
            raise ValueError(f"invalid scenario spec: {exc}") from exc

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ScenarioSpec":
        """Load a spec from a YAML (``.yaml``/``.yml``) or JSON file.

        YAML support is optional: if PyYAML is not installed, YAML files
        raise a clear error while JSON files keep working.
        """
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - env without PyYAML
                raise RuntimeError(
                    f"loading {path} needs PyYAML; install it or use a JSON spec"
                ) from exc
            payload = yaml.safe_load(text)
        else:
            payload = json.loads(text)
        if not isinstance(payload, Mapping):
            raise ValueError(f"scenario file {path} must contain a mapping")
        return cls.from_dict(payload)

    def to_file(self, path: Union[str, Path]) -> Path:
        """Write the spec to ``path`` (YAML if the suffix asks and PyYAML
        is available, JSON otherwise)."""
        path = Path(path)
        payload = self.to_dict()
        if path.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - env without PyYAML
                raise RuntimeError(
                    f"writing {path} needs PyYAML; install it or use a JSON spec"
                ) from exc
            path.write_text(yaml.safe_dump(payload, sort_keys=False), encoding="utf-8")
        else:
            path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path


def load_scenarios(values: Sequence[Union[str, Path, ScenarioSpec]]) -> Tuple[ScenarioSpec, ...]:
    """Resolve a mixed list of spec objects, file paths and built-in names.

    Strings that name an existing file load via :meth:`ScenarioSpec.from_file`;
    every other string is looked up in the built-in scenario library.
    """
    from repro.scenarios.library import builtin_scenario

    specs = []
    for value in values:
        if isinstance(value, ScenarioSpec):
            specs.append(value)
        elif isinstance(value, Path) or (
            isinstance(value, str) and Path(value).is_file()
        ):
            specs.append(ScenarioSpec.from_file(value))
        else:
            specs.append(builtin_scenario(str(value)))
    return tuple(specs)
