"""Scenario configuration: schema, validation, YAML round trip, manifests.

A scenario is one fully specified simulation setup: Hamiltonian and
sequence parameters, readout configuration, per-channel noise models,
scheme selection and seeding.  Files are hierarchical YAML with explicit
unit suffixes on every physical key (``_s``, ``_Hz``, ``_T``, ``_cps``,
``_rad``); see ``scenarios/baseline.yaml`` for the annotated default.

Seeding: every stochastic stream derives its own ``SeedSequence`` from
the master seed and a fixed stream offset (noise channels 1-3, photon
shot noise 4 with per-scheme-group and per-chunk keys), so results never
depend on scheme order.  They do depend on :data:`CHUNK_SIZE`: each chunk
of that many sequences draws its shot noise from its own seed.  Schemes
A and B share one shot-noise draw (on B's stream), and C and D share one
(on D's).
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

from . import __version__, io as _io
from .analysis import optimal_phase_time
from .filters import window_for_signal
from .noise import PsdModel, TabulatedPsd, CHANNELS
from .readout import ReadoutConfig, SCHEME_SEQUENCES
from .sequences import (AcField, CoherenceDecay, echo_populations,
                        field_evaluation)
from .spin import HamiltonianParams

#: fixed seed-stream offsets per noise channel; shot noise uses
#: (master, SHOT_STREAM, scheme_stream, chunk_index)
CHANNEL_STREAMS = {"laser_intensity": 1, "mw_amplitude": 2, "mw_frequency": 3}
SHOT_STREAM = 4
#: sequences per Monte Carlo chunk; every digest depends on it
CHUNK_SIZE = 1 << 14
#: laser-noise trace samples per sequence (two per integration window)
#: above which validation rejects a scenario instead of allocating them
MAX_LASER_SAMPLES_PER_SEQUENCE = 4096


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

    def __post_init__(self):
        values = (self.phase_time, self.sequence_time, self.rabi,
                  self.final_phase, self.alternate_final_phase)
        if not all(math.isfinite(v) for v in values):
            raise ConfigError("sequence settings must be finite")
        if self.phase_time <= 0 or self.sequence_time <= 0 or self.rabi <= 0:
            raise ConfigError("sequence times and Rabi frequency must be positive")
        if self.phase_time > self.sequence_time:
            raise ConfigError("phase_time cannot exceed sequence_time")

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
        if not self.schemes:
            raise ConfigError("at least one scheme required")
        for s in self.schemes:
            if s not in SCHEME_SEQUENCES:
                raise ConfigError(f"unknown scheme {s!r}; expected one of "
                                  f"{', '.join(SCHEME_SEQUENCES)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("schemes must not repeat")
        # the scaling curves need at least two values of every scheme
        if self.n_sequences < 2 * max(SCHEME_SEQUENCES[s] for s in self.schemes):
            raise ConfigError("n_sequences too small for two values per scheme")
        values = [self.n_centres, self.total_time]
        values += [v for v in (self.sigma1, self.response_amplitude)
                   if v is not None]
        if not all(math.isfinite(v) for v in values):
            raise ConfigError("ensemble and analysis values must be finite")
        if self.n_centres <= 0 or self.total_time <= 0:
            raise ConfigError("n_centres and total_time must be positive")
        if any(s in ("C", "D") for s in self.schemes) and self.n_sequences % 2:
            raise ConfigError("paired schemes need an even n_sequences")
        for channel in self.noise:
            if channel not in CHANNELS:
                raise ConfigError(f"unknown noise channel {channel!r}")
        rd, seq = self.readout, self.sequence
        if rd.sequence_time != seq.sequence_time:
            raise ConfigError("readout and sequence block disagree on "
                              "sequence_time")
        try:  # the pulses, free evolutions and laser must fit one sequence,
            # and every scheme's integration window must be resolvable
            evaluation = field_evaluation(seq.phase_time, seq.rabi,
                                          seq.final_phase, rd.laser_time,
                                          seq.sequence_time)
            for scheme in SCHEME_SEQUENCES:
                window_for_signal(scheme, rd.laser_time, rd.window_time,
                                  rd.sequence_time)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        laser = self.noise.get("laser_intensity")
        if laser is not None and not laser.is_zero and 2.0 * rd.sequence_time \
                > MAX_LASER_SAMPLES_PER_SEQUENCE * rd.window_time:
            raise ConfigError(
                "laser noise needs more than "
                f"{MAX_LASER_SAMPLES_PER_SEQUENCE} trace samples per sequence "
                "(2 * sequence_time / window_time)")
        # the echo must stay finite at the working point and under
        # microwave noise excursions of ten standard deviations over the
        # band a scaling run resolves
        band = np.geomspace(1.0 / (self.n_sequences * seq.sequence_time),
                            0.5 / seq.sequence_time, 64)
        excursion = [0.0, 0.0]
        with np.errstate(all="ignore"):  # judged by the result below
            for k, channel in enumerate(("mw_amplitude", "mw_frequency")):
                if channel in self.noise:
                    excursion[k] = 10.0 * np.sqrt(np.trapezoid(
                        self.noise[channel].density(band), band))
            populations = echo_populations(
                evaluation, self.hamiltonian, np.repeat([0.0, excursion[0]], 2),
                np.repeat([0.0, excursion[1]], 2), field=self.ac_field,
                final_phase=[seq.final_phase, seq.alternate_final_phase] * 2,
                m_i_values=seq.m_i_values())
        if not np.all(np.isfinite(populations)):
            raise ConfigError("echo populations are not finite at the working "
                              "point or under microwave noise")
        if self.decay is not None:
            try:  # runners scale the echo by the envelope; the sensitivity
                # command reports the optimal phase time
                usable = self.decay.envelope(seq.phase_time) > 0.0 and \
                    math.isfinite(optimal_phase_time(self.decay.t2,
                                                     self.decay.exponent))
            except OverflowError:
                usable = False
            if not usable:
                raise ConfigError("decay envelope at phase_time or optimal "
                                  "phase time is not a positive float")

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

#: per section, YAML key (with its unit suffix) -> dataclass field; the
#: defaults of absent keys are the dataclass defaults
_HAMILTONIAN_KEYS = {"gamma_e_Hz_per_T": "gamma_e",
                     "hyperfine_Hz": "hyperfine"}
_SEQUENCE_KEYS = {
    "phase_time_s": "phase_time", "sequence_time_s": "sequence_time",
    "rabi_Hz": "rabi", "final_phase_rad": "final_phase",
    "alternate_final_phase_rad": "alternate_final_phase",
    "hyperfine_average": "hyperfine_average"}
_DECAY_KEYS = {"t2_s": "t2", "exponent": "exponent"}
_AC_FIELD_KEYS = {"amplitude_T": "amplitude", "frequency_Hz": "frequency",
                  "phase_rad": "phase"}
_READOUT_KEYS = {
    "photon_rate_cps": "photon_rate", "contrast": "contrast",
    "repolarization_time_s": "repolarization_time",
    "reference_ratio": "reference_ratio", "laser_time_s": "laser_time",
    "window_time_s": "window_time", "reference_enabled": "reference_enabled"}
_FLAGS = ("hyperfine_average", "reference_enabled")
_TOP_KEYS = ("name", "master_seed", "n_sequences", "schemes", "hamiltonian",
             "sequence", "decay", "ac_field", "readout", "ensemble", "noise",
             "analysis")
_NOISE_KEYS = ("file", "white", "flicker", "f_min_Hz", "f_max_Hz")


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return mapping[key]


def _section(value, context: str, keys) -> dict:
    """A config section as a mapping (``None`` reads as empty), rejecting
    keys outside the schema so a misspelt or retired key fails loudly."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: expected a mapping")
    for key in value:
        if key not in keys:
            raise ConfigError(f"{context}: unknown key {key!r}")
    return value


def _fields(value, context: str, keys: dict, required=()) -> dict:
    """Dataclass keyword arguments of one section: floats, and real
    booleans for the flags (``bool("no")`` would read as true)."""
    section = _section(value, context, keys)
    for key in required:
        _require(section, key, context)
    out = {}
    for key, item in section.items():
        if key in _FLAGS and not isinstance(item, bool):
            raise ConfigError(f"{context}: {key} must be true or false")
        out[keys[key]] = item if key in _FLAGS else float(item)
    return out


def _noise_from_mapping(channel: str, section: dict, base_dir: Path):
    if "file" in section:
        try:
            freqs, density = _io.read_psd_table(base_dir / section["file"])
        except OSError as exc:
            raise ConfigError(f"noise {channel}: {exc}") from exc
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
        _section(mapping, "scenario", _TOP_KEYS)
        sequence = SequenceSettings(**_fields(
            mapping.get("sequence"), "sequence", _SEQUENCE_KEYS,
            required=("phase_time_s", "sequence_time_s")))
        decay = None
        if mapping.get("decay") is not None:
            decay = CoherenceDecay(**_fields(mapping["decay"], "decay",
                                             _DECAY_KEYS, required=("t2_s",)))
        ac = _fields(mapping.get("ac_field"), "ac_field", _AC_FIELD_KEYS)
        ac_field = None
        if ac.get("amplitude", 0.0) != 0.0:
            ac.setdefault("frequency", 1.0 / sequence.phase_time)
            ac_field = AcField(**ac)
        readout = ReadoutConfig(
            **_fields(mapping.get("readout"), "readout", _READOUT_KEYS,
                      required=("photon_rate_cps",)),
            sequence_time=sequence.sequence_time)
        noise = {}
        for channel, section in _section(mapping.get("noise"), "noise",
                                         CHANNELS).items():
            noise[channel] = _noise_from_mapping(
                channel, _section(section, f"noise {channel}", _NOISE_KEYS),
                base_dir)
        ens = _section(mapping.get("ensemble"), "ensemble", ("n_centres",))
        ana = _section(mapping.get("analysis"), "analysis",
                       ("total_time_s", "sigma1", "response_amplitude"))
        sigma1 = ana.get("sigma1")
        response = ana.get("response_amplitude")
        scenario = Scenario(
            name=str(_require(mapping, "name", "scenario")),
            master_seed=int(mapping.get("master_seed", 1)),
            n_sequences=int(mapping.get("n_sequences", 2)),
            schemes=tuple(mapping.get("schemes", ["B", "D"])),
            hamiltonian=HamiltonianParams(**_fields(
                mapping.get("hamiltonian"), "hamiltonian", _HAMILTONIAN_KEYS)),
            sequence=sequence,
            decay=decay,
            ac_field=ac_field,
            readout=readout,
            noise=noise,
            n_centres=float(ens.get("n_centres", 1.4e11)),
            total_time=float(ana.get("total_time_s", 1.0)),
            sigma1=None if sigma1 is None else float(sigma1),
            response_amplitude=None if response is None else float(response),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return scenario


def _to_section(obj, keys: dict) -> dict:
    return {key: getattr(obj, attr) for key, attr in keys.items()}


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
        "hamiltonian": _to_section(s.hamiltonian, _HAMILTONIAN_KEYS),
        "sequence": _to_section(s.sequence, _SEQUENCE_KEYS),
        "readout": _to_section(s.readout, _READOUT_KEYS),
        "ensemble": {"n_centres": s.n_centres},
        "noise": noise,
        "analysis": {"total_time_s": s.total_time},
    }
    if s.decay is not None:
        mapping["decay"] = _to_section(s.decay, _DECAY_KEYS)
    if s.ac_field is not None:
        mapping["ac_field"] = _to_section(s.ac_field, _AC_FIELD_KEYS)
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
    tool_version: str = __version__
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
