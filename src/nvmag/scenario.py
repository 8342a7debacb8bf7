"""Scenario configuration: schema, validation, hashing, the run record.

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
A and B share one shot-noise draw, and C and D share another.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from types import MappingProxyType

import numpy as np
import yaml

from . import __version__, io as _io
from .analysis import optimal_phase_time
from .filters import check_windows
from .noise import PsdModel, TabulatedPsd, CHANNELS
from .readout import (ReadoutConfig, SCHEME_SEQUENCES,
                      signal_response_per_tesla)
from .sequences import CoherenceDecay, echo_populations, pi_pulse_time
from .spin import HamiltonianParams

#: fixed seed-stream offsets per noise channel; shot noise uses
#: (master, SHOT_STREAM, scheme_stream, chunk_index)
CHANNEL_STREAMS = {"laser_intensity": 1, "mw_amplitude": 2, "mw_frequency": 3}
SHOT_STREAM = 4
#: sequences per Monte Carlo chunk; every digest depends on it
CHUNK_SIZE = 1 << 14
#: fine-grid samples per sequence (two per integration window) above
#: which validation rejects laser noise: the synthesis folds that many
#: spectral aliases onto every sequence-grid bin, so its work grows as
#: ``n_sequences`` times this count while its memory does not
MAX_LASER_SAMPLES_PER_SEQUENCE = 4096


class ConfigError(ValueError):
    """Raised on invalid or inconsistent scenario configuration."""


@dataclass(frozen=True)
class SequenceSettings:
    """Echo timing and drive settings of one field evaluation.  The
    second sequence of the paired schemes C and D runs at
    ``-final_phase``."""

    phase_time: float = 50e-6
    sequence_time: float = 160e-6
    rabi: float = 5e6
    final_phase: float = math.pi / 2
    hyperfine_average: bool = True

    def __post_init__(self):
        values = (self.phase_time, self.sequence_time, self.rabi,
                  self.final_phase)
        if not all(math.isfinite(v) for v in values):
            raise ConfigError("sequence settings must be finite")
        if self.phase_time <= 0 or self.sequence_time <= 0 or self.rabi <= 0:
            raise ConfigError("sequence times and Rabi frequency must be positive")
        if self.phase_time > self.sequence_time:
            raise ConfigError("phase_time cannot exceed sequence_time")

    def m_i_values(self):
        return (-1, 0, 1) if self.hyperfine_average else (0,)

    @property
    def echo_time(self) -> float:
        """Duration of the echo: the free evolution and the three pulses;
        the laser pulse starts when it ends."""
        return self.phase_time + 2.0 * pi_pulse_time(self.phase_time,
                                                     self.rabi)


@dataclass(frozen=True)
class Scenario:
    """One complete, validated simulation setup; frozen, so every change
    goes through ``dataclasses.replace`` and is validated again."""

    name: str
    master_seed: int = 1
    n_sequences: int = 2
    schemes: tuple[str, ...] = ("B", "D")
    hamiltonian: HamiltonianParams = field(default_factory=HamiltonianParams)
    sequence: SequenceSettings = field(default_factory=SequenceSettings)
    decay: CoherenceDecay = CoherenceDecay()
    readout: ReadoutConfig = field(
        default_factory=lambda: ReadoutConfig(photon_rate=1e9))
    noise: Mapping = field(default_factory=dict)  # read-only once built
    n_centres: float = 1.4e11
    total_time: float = 1.0
    sigma1: float | None = None
    response_amplitude: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "noise", MappingProxyType(dict(self.noise)))
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
        if not all(v > 0 for v in values):
            raise ConfigError("ensemble and analysis values must be positive")
        if any(SCHEME_SEQUENCES[s] == 2 for s in self.schemes) \
                and self.n_sequences % 2:
            raise ConfigError("paired schemes need an even n_sequences")
        for channel in self.noise:
            if channel not in CHANNELS:
                raise ConfigError(f"unknown noise channel {channel!r}")
        rd, seq = self.readout, self.sequence
        try:  # the pulses must fit the free evolution, and every scheme's
            # integration window must be resolvable
            echo_time = seq.echo_time
            check_windows(rd.laser_time, rd.window_time, seq.sequence_time)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if echo_time + rd.laser_time > seq.sequence_time + 1e-15:
            raise ConfigError("echo plus laser window do not fit in "
                              "sequence_time")
        if self.total_time < seq.sequence_time:
            raise ConfigError("total_time must cover at least one sequence")
        laser = self.noise.get("laser_intensity")
        if laser is not None and not laser.is_zero and 2.0 * seq.sequence_time \
                > MAX_LASER_SAMPLES_PER_SEQUENCE * rd.window_time:
            raise ConfigError(
                "laser noise would fold more than "
                f"{MAX_LASER_SAMPLES_PER_SEQUENCE} fine-grid trace samples "
                "per sequence (2 * sequence_time / window_time) onto the "
                "sequence grid")
        # microwave noise excursions of ten standard deviations over the
        # band a scaling run resolves must keep the drive's sign and the
        # carrier on the m_I = 0 line it is locked to, and the echo must
        # stay finite there and at the working point
        band = np.geomspace(1.0 / (self.n_sequences * seq.sequence_time),
                            0.5 / seq.sequence_time, 64)
        excursion = [0.0, 0.0]
        with np.errstate(all="ignore"):  # judged by the results below
            for k, channel in enumerate(("mw_amplitude", "mw_frequency")):
                if channel in self.noise:
                    excursion[k] = 10.0 * np.sqrt(np.trapezoid(
                        self.noise[channel].density(band), band))
        if not excursion[0] < 1.0:
            raise ConfigError(
                "microwave amplitude noise: ten-sigma relative excursion "
                f"{excursion[0]:.3g} is not below 1")
        if not excursion[1] < self.hamiltonian.hyperfine:
            raise ConfigError(
                "microwave frequency noise: ten-sigma carrier excursion "
                f"{excursion[1]:.3g} Hz is not below the hyperfine "
                f"splitting {self.hamiltonian.hyperfine:.3g} Hz")
        with np.errstate(all="ignore"):  # judged by the result below
            populations = echo_populations(
                seq.phase_time, seq.rabi, self.hamiltonian,
                np.repeat([0.0, excursion[0]], 2),
                np.repeat([0.0, excursion[1]], 2),
                final_phase=[seq.final_phase, -seq.final_phase] * 2,
                m_i_values=seq.m_i_values())
        if not np.all(np.isfinite(populations)):
            raise ConfigError("echo populations are not finite at the working "
                              "point or under microwave noise")
        # the photon rate must stay positive under laser noise excursions
        # of ten standard deviations over the band the window averages
        # resolve: the run's length down to one integration window
        if laser is not None:
            band = np.geomspace(1.0 / (self.n_sequences * seq.sequence_time),
                                1.0 / rd.window_time, 64)
            with np.errstate(all="ignore"):  # judged by the result below
                excursion = 10.0 * np.sqrt(np.trapezoid(laser.density(band),
                                                        band))
            if not excursion < 1.0:
                raise ConfigError(
                    "laser noise: ten-sigma relative intensity excursion "
                    f"{excursion:.3g} is not below 1")
        try:  # runners scale the echo by the envelope; the sensitivity
            # command reports the optimal phase time (inf without decay)
            usable = self.decay.envelope(seq.phase_time) > 0.0 and \
                optimal_phase_time(self.decay.t2, self.decay.exponent) > 0.0
        except OverflowError:
            usable = False
        if not usable:
            raise ConfigError("decay envelope at phase_time or optimal "
                              "phase time is not positive")
        # the scaling curves divide by the field response
        for scheme in self.schemes:
            response = self.field_response(scheme)
            if not (0.0 < response < math.inf and 1.0 / response < math.inf):
                raise ConfigError(f"scheme {scheme}: field response "
                                  f"{response:.3g} per tesla is not positive "
                                  "and finite with a finite reciprocal")

    def field_response(self, scheme: str) -> float:
        """Analytic small-signal response ``|dS/dB|`` (1/T) of a scheme."""
        return signal_response_per_tesla(
            self.readout, self.sequence.phase_time, self.hamiltonian.gamma_e,
            self.decay.envelope(self.sequence.phase_time), scheme)

    def channel_seed(self, channel: str) -> np.random.SeedSequence:
        return np.random.SeedSequence((self.master_seed,
                                       CHANNEL_STREAMS[channel]))

    def shot_seed(self, scheme_stream: int, chunk: int) -> np.random.SeedSequence:
        return np.random.SeedSequence((self.master_seed, SHOT_STREAM,
                                       scheme_stream, chunk))


# ---------------------------------------------------------------------------
# mapping -> dataclasses
# ---------------------------------------------------------------------------

#: per section, YAML key (with its unit suffix) -> dataclass field; the
#: defaults of absent keys are the dataclass defaults
_HAMILTONIAN_KEYS = {"gamma_e_Hz_per_T": "gamma_e",
                     "hyperfine_Hz": "hyperfine"}
_SEQUENCE_KEYS = {
    "phase_time_s": "phase_time", "sequence_time_s": "sequence_time",
    "rabi_Hz": "rabi", "final_phase_rad": "final_phase",
    "hyperfine_average": "hyperfine_average"}
_DECAY_KEYS = {"t2_s": "t2", "exponent": "exponent"}
_READOUT_KEYS = {
    "photon_rate_cps": "photon_rate", "contrast": "contrast",
    "repolarization_time_s": "repolarization_time",
    "reference_ratio": "reference_ratio", "laser_time_s": "laser_time",
    "window_time_s": "window_time", "reference_enabled": "reference_enabled"}
_FLAGS = ("hyperfine_average", "reference_enabled")
_TOP_KEYS = ("name", "master_seed", "n_sequences", "schemes", "hamiltonian",
             "sequence", "decay", "readout", "ensemble", "noise", "analysis")
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


def _integer(value, key: str) -> int:
    """A count or seed; ``int`` would read ``true`` as 1 and ``7.5`` as 7."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ConfigError(f"scenario: {key} must be an integer")
    return int(value)


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
        # no decay section is no decay; a present one needs t2_s
        decay = CoherenceDecay(**_fields(
            mapping.get("decay", {"t2_s": math.inf}), "decay", _DECAY_KEYS,
            required=("t2_s",)))
        readout = ReadoutConfig(
            **_fields(mapping.get("readout"), "readout", _READOUT_KEYS,
                      required=("photon_rate_cps",)))
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
        schemes = mapping.get("schemes", ["B", "D"])
        if not isinstance(schemes, list):  # a string would split into letters
            raise ConfigError("scenario: schemes must be a list")
        scenario = Scenario(
            name=str(_require(mapping, "name", "scenario")),
            master_seed=_integer(mapping.get("master_seed", 1), "master_seed"),
            n_sequences=_integer(mapping.get("n_sequences", 2), "n_sequences"),
            schemes=tuple(schemes),
            hamiltonian=HamiltonianParams(**_fields(
                mapping.get("hamiltonian"), "hamiltonian", _HAMILTONIAN_KEYS)),
            sequence=sequence,
            decay=decay,
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


def _plain(value):
    """JSON form of a dataclass or a read-only mapping."""
    if isinstance(value, Mapping):
        return dict(value)
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


def scenario_hash(scenario: Scenario) -> str:
    """Digest of the validated values, tabulated spectra included."""
    canon = json.dumps(scenario, default=_plain, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def utc_now() -> str:
    """The current UTC time as an ISO 8601 string."""
    return datetime.now(timezone.utc).isoformat()


def write_run(scenario: Scenario, out_dir, started: str,
              tables: dict) -> list[Path]:
    """Write ``{file name: (header, columns)}`` tables into ``out_dir``,
    then ``manifest.json``: scenario hash, seed, tool version, the
    ``started`` and finishing times, and the SHA-256 of every table.
    Returns the table paths."""
    out_dir = Path(out_dir)
    # positional, through the module: the benchmark tracer wraps it
    outputs = [_io.write_table(out_dir / name, header, columns)
               for name, (header, columns) in tables.items()]
    manifest = {"scenario_hash": scenario_hash(scenario),
                "seed": scenario.master_seed, "tool_version": __version__,
                "started": started, "finished": utc_now(),
                "outputs": {p.name: _io.file_digest(p) for p in outputs}}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return outputs
