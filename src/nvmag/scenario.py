"""Scenario configuration: schema, validation, YAML round trip, manifests.

A scenario is one fully specified simulation setup: Hamiltonian and
sequence parameters, readout configuration, per-channel noise models,
scheme selection and seeding.  Files are hierarchical YAML with explicit
unit suffixes on every physical key (``_s``, ``_Hz``, ``_T``, ``_cps``,
``_rad``); see ``scenarios/baseline.yaml`` for the annotated default.

Seeding: every stochastic stream derives its own ``SeedSequence`` from
the master seed and a fixed stream offset (noise channels 1-3, photon
shot noise 4 with per-scheme-group and per-chunk keys), so results never
depend on scheme order, chunking or worker count.  Schemes A and B share
one shot-noise draw (on B's stream), and C and D share one (on D's).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from .noise import PsdModel, TabulatedPsd, CHANNELS
from .readout import ReadoutConfig, SCHEME_SEQUENCES
from .sequences import AcField, CoherenceDecay, field_evaluation
from .spin import HamiltonianParams
from . import io as _io

TOOL_VERSION = "0.1.0"

#: fixed seed-stream offsets per noise channel; shot noise uses
#: (master, SHOT_STREAM, scheme_stream, chunk_index)
CHANNEL_STREAMS = {"laser_intensity": 1, "mw_amplitude": 2, "mw_frequency": 3}
SHOT_STREAM = 4
#: sequences per Monte Carlo chunk; fixed so threading cannot change draws
CHUNK_SIZE = 1 << 14


class ConfigError(ValueError):
    """Raised on invalid or inconsistent scenario configuration."""


@dataclass(frozen=True)
class SequenceSettings:
    """Echo timing and drive settings of one field evaluation."""

    phase_time: float = 50e-6
    sequence_time: float = 160e-6
    rabi: float = 5e6
    final_phase: float = math.pi / 2
    alternate_final_phase: float = -math.pi / 2
    hyperfine_average: bool = True
    substeps_per_period: int = 256

    def __post_init__(self):
        values = (self.phase_time, self.sequence_time, self.rabi,
                  self.final_phase, self.alternate_final_phase)
        if not all(math.isfinite(v) for v in values):
            raise ConfigError("sequence settings must be finite")
        if self.phase_time <= 0 or self.sequence_time <= 0 or self.rabi <= 0:
            raise ConfigError("sequence times and Rabi frequency must be positive")
        if self.phase_time > self.sequence_time:
            raise ConfigError("phase_time cannot exceed sequence_time")
        if self.substeps_per_period < 64:
            raise ConfigError("need at least 64 field substeps per period")

    def m_i_values(self):
        return (-1, 0, 1) if self.hyperfine_average else (0,)


@dataclass
class Scenario:
    """One complete, validated simulation setup."""

    name: str
    master_seed: int = 1
    n_sequences: int = 2
    schemes: tuple[str, ...] = ("B", "D")
    hamiltonian: HamiltonianParams = field(default_factory=HamiltonianParams)
    sequence: SequenceSettings = field(default_factory=SequenceSettings)
    decay: CoherenceDecay | None = None
    ac_field: AcField | None = None
    readout: ReadoutConfig = field(
        default_factory=lambda: ReadoutConfig(photon_rate=1e9))
    noise: dict = field(default_factory=dict)
    n_centres: float = 1.4e11
    total_time: float = 1.0
    sigma1: float | None = None
    response_amplitude: float | None = None

    def __post_init__(self):
        if not self.name:
            raise ConfigError("scenario name must be non-empty")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if self.n_sequences < 2:
            raise ConfigError("n_sequences must be at least 2")
        if not self.schemes:
            raise ConfigError("at least one scheme required")
        for s in self.schemes:
            if s not in SCHEME_SEQUENCES:
                raise ConfigError(f"unknown scheme {s!r}; expected one of "
                                  f"{', '.join(SCHEME_SEQUENCES)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("schemes must not repeat")
        values = [self.n_centres, self.total_time]
        values += [v for v in (self.sigma1, self.response_amplitude)
                   if v is not None]
        if not all(math.isfinite(v) for v in values):
            raise ConfigError("ensemble and analysis values must be finite")
        if any(s in ("C", "D") for s in self.schemes) and self.n_sequences % 2:
            raise ConfigError("paired schemes need an even n_sequences")
        for channel in self.noise:
            if channel not in CHANNELS:
                raise ConfigError(f"unknown noise channel {channel!r}")
        if self.readout.sequence_time != self.sequence.sequence_time:
            raise ConfigError("readout and sequence block disagree on "
                              "sequence_time")
        seq = self.sequence
        try:  # the pulses, free evolutions and laser must fit one sequence
            field_evaluation(seq.phase_time, seq.rabi, seq.final_phase,
                             self.readout.laser_time, seq.sequence_time)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def noise_model(self, channel: str):
        return self.noise.get(channel)

    def channel_seed(self, channel: str) -> np.random.SeedSequence:
        return np.random.SeedSequence((self.master_seed,
                                       CHANNEL_STREAMS[channel]))

    def shot_seed(self, scheme_stream: int, chunk: int) -> np.random.SeedSequence:
        return np.random.SeedSequence((self.master_seed, SHOT_STREAM,
                                       scheme_stream, chunk))


# ---------------------------------------------------------------------------
# mapping <-> dataclasses
# ---------------------------------------------------------------------------

def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _noise_from_mapping(channel: str, section: dict, base_dir: Path):
    if "file" in section:
        freqs, density = _io.read_psd_table(base_dir / section["file"])
        return TabulatedPsd(channel, tuple(freqs), tuple(density))
    flicker = tuple((float(a), float(e)) for a, e in section.get("flicker", []))
    return PsdModel(
        channel=channel,
        white=float(section.get("white", 0.0)),
        flicker=flicker,
        f_min=float(section.get("f_min_Hz", 0.0)),
        f_max=float(section.get("f_max_Hz", math.inf)),
    )


def scenario_from_mapping(mapping: dict, base_dir: Path | str = ".") -> Scenario:
    """Build and validate a :class:`Scenario` from a parsed config mapping."""
    if not isinstance(mapping, dict):
        raise ConfigError("scenario file must contain a mapping at top level")
    base_dir = Path(base_dir)
    try:
        ham = mapping.get("hamiltonian", {})
        hamiltonian = HamiltonianParams(
            zero_field_splitting=float(ham.get("zero_field_splitting_Hz", 2.87e9)),
            gamma_e=float(ham.get("gamma_e_Hz_per_T", 28.7e9)),
            gamma_n=float(ham.get("gamma_n_Hz_per_T", 3.08e6)),
            hyperfine=float(ham.get("hyperfine_Hz", 2.16e6)),
            static_field=float(ham.get("static_field_T", 0.0)),
        )
        seq = mapping.get("sequence", {})
        sequence = SequenceSettings(
            phase_time=float(_require(seq, "phase_time_s", "sequence")),
            sequence_time=float(_require(seq, "sequence_time_s", "sequence")),
            rabi=float(seq.get("rabi_Hz", 5e6)),
            final_phase=float(seq.get("final_phase_rad", math.pi / 2)),
            alternate_final_phase=float(
                seq.get("alternate_final_phase_rad", -math.pi / 2)),
            hyperfine_average=bool(seq.get("hyperfine_average", True)),
            substeps_per_period=int(seq.get("substeps_per_period", 256)),
        )
        dec = mapping.get("decay")
        decay = None
        if dec is not None:
            decay = CoherenceDecay(t2=float(_require(dec, "t2_s", "decay")),
                                   exponent=float(dec.get("exponent", 1.0)))
        ac = mapping.get("ac_field")
        ac_field = None
        if ac is not None and float(ac.get("amplitude_T", 0.0)) != 0.0:
            ac_field = AcField(
                amplitude=float(ac["amplitude_T"]),
                frequency=float(ac.get("frequency_Hz",
                                       1.0 / sequence.phase_time)),
                phase=float(ac.get("phase_rad", 0.0)),
            )
        rd = mapping.get("readout", {})
        readout = ReadoutConfig(
            photon_rate=float(_require(rd, "photon_rate_cps", "readout")),
            contrast=float(rd.get("contrast", 0.04)),
            repolarization_time=float(rd.get("repolarization_time_s", 1e-6)),
            bin_width=float(rd.get("bin_width_s", 1e-6)),
            reference_ratio=float(rd.get("reference_ratio", 1.0)),
            laser_time=float(rd.get("laser_time_s", 100e-6)),
            window_time=float(rd.get("window_time_s", 10e-6)),
            sequence_time=sequence.sequence_time,
            reference_enabled=bool(rd.get("reference_enabled", True)),
        )
        noise = {}
        for channel, section in (mapping.get("noise") or {}).items():
            noise[channel] = _noise_from_mapping(channel, section or {}, base_dir)
        ana = mapping.get("analysis", {})
        sigma1 = ana.get("sigma1")
        response = ana.get("response_amplitude")
        scenario = Scenario(
            name=str(_require(mapping, "name", "scenario")),
            master_seed=int(mapping.get("master_seed", 1)),
            n_sequences=int(mapping.get("n_sequences", 2)),
            schemes=tuple(mapping.get("schemes", ["B", "D"])),
            hamiltonian=hamiltonian,
            sequence=sequence,
            decay=decay,
            ac_field=ac_field,
            readout=readout,
            noise=noise,
            n_centres=float(mapping.get("ensemble", {}).get("n_centres", 1.4e11)),
            total_time=float(ana.get("total_time_s", 1.0)),
            sigma1=None if sigma1 is None else float(sigma1),
            response_amplitude=None if response is None else float(response),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return scenario


def scenario_to_mapping(s: Scenario) -> dict:
    """Inverse of :func:`scenario_from_mapping` (parametric PSDs only)."""
    noise = {}
    for channel, model in s.noise.items():
        if isinstance(model, TabulatedPsd):
            raise ConfigError("tabulated spectra serialize by file reference; "
                              "keep the original scenario file")
        noise[channel] = {
            "white": model.white,
            "flicker": [list(c) for c in model.flicker],
            "f_min_Hz": model.f_min,
            "f_max_Hz": None if math.isinf(model.f_max) else model.f_max,
        }
        if noise[channel]["f_max_Hz"] is None:
            del noise[channel]["f_max_Hz"]
    mapping = {
        "name": s.name,
        "master_seed": s.master_seed,
        "n_sequences": s.n_sequences,
        "schemes": list(s.schemes),
        "hamiltonian": {
            "zero_field_splitting_Hz": s.hamiltonian.zero_field_splitting,
            "gamma_e_Hz_per_T": s.hamiltonian.gamma_e,
            "gamma_n_Hz_per_T": s.hamiltonian.gamma_n,
            "hyperfine_Hz": s.hamiltonian.hyperfine,
            "static_field_T": s.hamiltonian.static_field,
        },
        "sequence": {
            "phase_time_s": s.sequence.phase_time,
            "sequence_time_s": s.sequence.sequence_time,
            "rabi_Hz": s.sequence.rabi,
            "final_phase_rad": s.sequence.final_phase,
            "alternate_final_phase_rad": s.sequence.alternate_final_phase,
            "hyperfine_average": s.sequence.hyperfine_average,
            "substeps_per_period": s.sequence.substeps_per_period,
        },
        "readout": {
            "photon_rate_cps": s.readout.photon_rate,
            "contrast": s.readout.contrast,
            "repolarization_time_s": s.readout.repolarization_time,
            "bin_width_s": s.readout.bin_width,
            "reference_ratio": s.readout.reference_ratio,
            "laser_time_s": s.readout.laser_time,
            "window_time_s": s.readout.window_time,
            "reference_enabled": s.readout.reference_enabled,
        },
        "ensemble": {"n_centres": s.n_centres},
        "noise": noise,
        "analysis": {"total_time_s": s.total_time},
    }
    if s.decay is not None:
        mapping["decay"] = {"t2_s": s.decay.t2, "exponent": s.decay.exponent}
    if s.ac_field is not None:
        mapping["ac_field"] = {
            "amplitude_T": s.ac_field.amplitude,
            "frequency_Hz": s.ac_field.frequency,
            "phase_rad": s.ac_field.phase,
        }
    if s.sigma1 is not None:
        mapping["analysis"]["sigma1"] = s.sigma1
    if s.response_amplitude is not None:
        mapping["analysis"]["response_amplitude"] = s.response_amplitude
    return mapping


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    with open(path) as fh:
        try:
            mapping = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return scenario_from_mapping(mapping, base_dir=path.parent)


def save_scenario(scenario: Scenario, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_mapping(scenario), fh, sort_keys=False)
    return path


def scenario_hash(scenario: Scenario) -> str:
    """Digest of the canonicalized configuration."""
    canon = json.dumps(scenario_to_mapping(scenario), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    """Record of one scenario run: config digest, seed and output digests."""

    scenario_hash: str
    seed: int
    tool_version: str = TOOL_VERSION
    started: str = ""
    finished: str = ""
    outputs: dict = field(default_factory=dict)

    @classmethod
    def start(cls, scenario: Scenario) -> "RunManifest":
        return cls(scenario_hash=scenario_hash(scenario),
                   seed=scenario.master_seed,
                   started=datetime.now(timezone.utc).isoformat())

    def add_output(self, path) -> None:
        path = Path(path)
        self.outputs[path.name] = _io.file_digest(path)

    def finish(self, out_dir) -> Path:
        self.finished = datetime.now(timezone.utc).isoformat()
        path = Path(out_dir) / "manifest.json"
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
        return path
