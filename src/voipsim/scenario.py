"""Scenario definition: INI-style config files, validation, builtin presets.

A scenario is exactly two subnets joined by an IP cloud plus one call
process.  parse and emit round-trip: emit writes every resolved field, so a
scenario's digest changes exactly when some field does.

Every config key is derived from one dataclass field, in field order: a
field named *_us (an integer microsecond count) is keyed *_<unit> and read
as a float in that unit; any other int, float or str field keeps its name
and type.  The units are s for [scenario] (ScenarioSpec) and [calls]
(CallSpec), us for a wifi subnet (WifiParams), and ms for a umts subnet
(UmtsParams) and [cloud] (CloudSpec).  CallSpec lives in traffic.py and the
others in netmodels.py, beside the code that reads them.

Grammar (all keys optional unless noted; values are numbers or names):

    [scenario]
    name = wifi-wifi            ; required for files
    codec = g711                ; g711 | g729 | g7231
    run_length_s = 3600
    warm_up_s = 300
    bucket_width_s = 10
    master_seed = 1
    repetitions = 1

    [subnet.<name>]             ; exactly two such sections
    kind = wifi                 ; wifi | umts  (required)
    stations = 4
    ; plus the WifiParams or UmtsParams keys, e.g. cw_min = 31, tti_ms = 10

    [cloud]
    base_delay_ms = 30
    jitter_half_width_ms = 5
    loss_prob = 0

    [calls]
    inter_arrival_s = 60
    duration_mean_s = 180
    caller_subnet = <first subnet>
    callee_subnet = <second subnet>
    answer_delay_s = 2
    invite_timeout_s = 32
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace

from .netmodels import CloudSpec, UmtsParams, WifiParams
from .signaling import PROXY_PROC_US, SIP_MESSAGE_BYTES
from .simcore import US_PER_MS, US_PER_S, SimError, sha256
from .traffic import CODECS, DEFAULT_CODEC, CallSpec

NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class ParseError(SimError):
    """Config file could not be read: syntax, unknown key, or bad value."""


class ValidationError(SimError):
    """Config parsed but breaks a scenario invariant."""


# Size caps, so that a config which validates cannot ask for an unbounded
# allocation.  A run of at most 10^5 s keeps every tick below 10^11 us, far
# inside the receive log's signed 64-bit slots; 10^5 windows per direction
# come to about 50 MB of buckets; 10^4 stations per subnet set up in well
# under a second.
MAX_RUN_LENGTH_US = 100_000 * US_PER_S
MAX_WINDOWS = 100_000
MAX_STATIONS = 10_000
MAX_REPETITIONS = 1_000

# a subnet's kind is the type of its params object
_PARAMS = {"wifi": WifiParams, "umts": UmtsParams}
_KIND_OF = {cls: kind for kind, cls in _PARAMS.items()}


@dataclass(frozen=True)
class SubnetSpec:
    name: str
    params: WifiParams | UmtsParams
    stations: int = 4

    @property
    def kind(self) -> str | None:
        """wifi or umts, read off the type of params; None for any other."""
        return _KIND_OF.get(type(self.params))

    def workstations(self) -> list[str]:
        return [f"{self.name}-ws{i}" for i in range(1, self.stations + 1)]


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    subnets: tuple[SubnetSpec, ...]
    cloud: CloudSpec = CloudSpec()
    calls: CallSpec = CallSpec()
    codec: str = DEFAULT_CODEC
    run_length_us: int = 3_600_000_000
    warm_up_us: int = 300_000_000
    bucket_width_us: int = 10_000_000
    master_seed: int = 1
    repetitions: int = 1


def validate(spec: ScenarioSpec) -> ScenarioSpec:
    def fail(msg):
        raise ValidationError(f"scenario {spec.name!r}: {msg}")

    def check_params(params, keymap, prefix):
        """Run params.check(), reporting the field under its config key."""
        try:
            params.check()
        except ValueError as exc:
            field, _, rule = str(exc).partition(" ")
            key = next((k for k, (f, _how) in keymap.items() if f == field), field)
            fail(f"{prefix}{key} {rule}")

    if not NAME_RE.fullmatch(spec.name or ""):
        fail("name must be a plain token (letters, digits, . _ -)")
    if len(spec.subnets) != 2:
        fail(f"exactly 2 subnets required, got {len(spec.subnets)}")
    names = [s.name for s in spec.subnets]
    if len(set(names)) != 2:
        fail("subnet names must be distinct")
    for sub in spec.subnets:
        if not NAME_RE.fullmatch(sub.name):
            fail(f"subnet name {sub.name!r} must be a plain token")
        if sub.kind is None:
            fail(f"subnet {sub.name}: kind must be wifi or umts")
        if not 1 <= sub.stations <= MAX_STATIONS:
            fail(f"subnet {sub.name}: stations must be in [1, {MAX_STATIONS}]")
        check_params(sub.params, _KEYS[sub.kind], f"subnet {sub.name}: ")
    if spec.codec not in CODECS:
        fail(f"unknown codec {spec.codec!r} (have {', '.join(sorted(CODECS))})")
    if spec.warm_up_us < 0:
        fail("warm_up_s must be >= 0")
    if spec.run_length_us <= spec.warm_up_us:
        fail("run_length_s must exceed warm_up_s")
    if spec.run_length_us > MAX_RUN_LENGTH_US:
        fail(f"run_length_s must be <= {MAX_RUN_LENGTH_US // US_PER_S}")
    if spec.bucket_width_us <= 0:
        fail("bucket_width_s must be > 0")
    if -(-spec.run_length_us // spec.bucket_width_us) > MAX_WINDOWS:
        fail(f"run_length_s / bucket_width_s must be <= {MAX_WINDOWS} windows")
    if not 1 <= spec.repetitions <= MAX_REPETITIONS:
        fail(f"repetitions must be in [1, {MAX_REPETITIONS}]")
    check_params(spec.cloud, _KEYS["cloud"], "cloud ")
    if spec.calls.caller_subnet not in names or spec.calls.callee_subnet not in names:
        fail("calls must reference the declared subnets")
    check_params(spec.calls, _KEYS["calls"], "calls ")
    least = least_setup_us(spec)
    if spec.calls.invite_timeout_us <= least:
        # the timer would close every session before its ACK arrives
        fail(f"invite_timeout_s must exceed answer_delay_s plus three one-way "
             f"SIP transits, {least / US_PER_S} s in all")
    return spec


def least_setup_us(spec: ScenarioSpec) -> int:
    """Least INVITE-to-ACK time of any session: the answer delay plus three
    one-way SIP transits (INVITE, 200, ACK), each over both access legs, the
    cloud twice (to the proxy and on) and one proxy relay."""
    legs = 0
    for name in (spec.calls.caller_subnet, spec.calls.callee_subnet):
        p = next(s.params for s in spec.subnets if s.name == name)
        # a WiFi newcomer folded into a running countdown may send at once,
        # with no DIFS; a UMTS packet waits at least one TTI on the air
        legs += (p.exchange_us(SIP_MESSAGE_BYTES) if isinstance(p, WifiParams)
                 else p.tti_us + p.pipe_us)
    cloud = spec.cloud
    one_way = legs + 2 * (cloud.base_delay_us - cloud.jitter_half_width_us) + PROXY_PROC_US
    return spec.calls.answer_delay_us + 3 * one_way


# -- parsing -----------------------------------------------------------------

_SCALE = {"us": 1, "ms": US_PER_MS, "s": US_PER_S}
# field annotations are strings here (from __future__ import annotations)
_CONVERTERS = {"int": int, "float": float, "str": str.strip}


def _keymap(cls, unit: str) -> dict:
    """Config key -> (dataclass field, how) for cls, in field order, by the
    rule in the module docstring; how is the integer scale from unit to
    microseconds, or the converter for the field's type.  Nested sections
    get no key."""
    keymap = {}
    for f in fields(cls):
        if f.name.endswith("_us"):
            keymap[f.name[:-2] + unit] = (f.name, _SCALE[unit])
        elif f.type in _CONVERTERS:
            keymap[f.name] = (f.name, _CONVERTERS[f.type])
    return keymap


# one key table per section, and one per subnet kind
_KEYS = {
    "scenario": _keymap(ScenarioSpec, "s"),
    "wifi": _keymap(WifiParams, "us"),
    "umts": _keymap(UmtsParams, "ms"),
    "cloud": _keymap(CloudSpec, "ms"),
    "calls": _keymap(CallSpec, "s"),
}


def _convert(section: str, key: str, raw: str, how):
    try:
        if isinstance(how, int):
            return round(float(raw) * how)
        return how(raw)
    except (ValueError, OverflowError):  # OverflowError: round() of an infinity
        raise ParseError(f"[{section}] {key}: cannot parse {raw!r}") from None


def _section_kwargs(cp, section: str, keymap, skip=()) -> dict:
    """Field values for one section's keys (none if the section is absent)."""
    out = {}
    for key, raw in cp.items(section) if cp.has_section(section) else []:
        if key in skip:
            continue
        if key not in keymap:
            raise ParseError(f"[{section}] unknown key {key!r}")
        field_name, how = keymap[key]
        out[field_name] = _convert(section, key, raw, how)
    return out


def parse_scenario_text(text: str, default_name: str = "") -> ScenarioSpec:
    # imported here, so a run of a builtin scenario never loads it
    import configparser

    # "; ..." after whitespace is a comment, as in the grammar above
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from None

    subnet_sections = [s for s in cp.sections() if s.startswith("subnet.")]
    known = {"scenario", "cloud", "calls", *subnet_sections}
    for section in cp.sections():
        if section not in known:
            raise ParseError(f"unknown section [{section}]")

    top = _section_kwargs(cp, "scenario", _KEYS["scenario"])
    subnets = []
    for section in subnet_sections:
        name = section[len("subnet."):]
        kind = cp[section].get("kind")
        if kind not in _PARAMS:
            raise ParseError(f"[{section}] kind must be wifi or umts")
        sized = {}
        if "stations" in cp[section]:  # else SubnetSpec's own default
            sized["stations"] = _convert(section, "stations", cp[section]["stations"], int)
        params = _section_kwargs(cp, section, _KEYS[kind], skip=("kind", "stations"))
        subnets.append(SubnetSpec(name, _PARAMS[kind](**params), **sized))
    if len(subnets) != 2:
        raise ValidationError(f"exactly 2 [subnet.*] sections required, got {len(subnets)}")

    cloud = CloudSpec(**_section_kwargs(cp, "cloud", _KEYS["cloud"]))
    calls_kwargs = _section_kwargs(cp, "calls", _KEYS["calls"])
    calls_kwargs.setdefault("caller_subnet", subnets[0].name)
    calls_kwargs.setdefault("callee_subnet", subnets[1].name)
    calls = CallSpec(**calls_kwargs)

    top.setdefault("name", default_name)
    spec = ScenarioSpec(subnets=tuple(subnets), cloud=cloud, calls=calls, **top)
    return validate(spec)


def parse_scenario(path) -> ScenarioSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    import os

    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return parse_scenario_text(text, default_name=stem)


# -- emission ----------------------------------------------------------------


def _section(obj, keymap, head: dict | None = None) -> dict:
    block = dict(head or {})
    for key, (field_name, how) in keymap.items():
        value = getattr(obj, field_name)
        if isinstance(how, int):
            value /= how
            if value.is_integer():
                value = int(value)
        block[key] = value
    return block


def spec_as_dict(spec: ScenarioSpec) -> dict:
    """Fully resolved key/value view, one block per section in file order."""
    out = {"scenario": _section(spec, _KEYS["scenario"])}
    for sub in spec.subnets:
        out[f"subnet.{sub.name}"] = _section(
            sub.params, _KEYS[sub.kind], {"kind": sub.kind, "stations": sub.stations})
    out["cloud"] = _section(spec.cloud, _KEYS["cloud"])
    out["calls"] = _section(spec.calls, _KEYS["calls"])
    return out


def emit_scenario(spec: ScenarioSpec) -> str:
    """Canonical text form listing every resolved field; parse inverts it."""
    lines: list[str] = []
    for header, block in spec_as_dict(spec).items():
        lines.append(f"[{header}]")
        lines += [f"{key} = {value}" for key, value in block.items()]
        lines.append("")
    return "\n".join(lines)


def spec_digest(spec: ScenarioSpec) -> str:
    return sha256(emit_scenario(spec).encode()).hexdigest()


# -- builtin presets ---------------------------------------------------------

# Two WiFi cities, two UMTS cities, and the mixed pair.  The UMTS air link is
# deliberately error-prone (bler 0.3 with 3 retransmissions) so its
# TTI-quantized retransmission jitter and loss dominate, and the cloud is kept
# jitter-free so access behavior, not the backbone, separates the scenarios.
_CAL_UMTS = UmtsParams(bler=0.3, max_rlc_retx=3)
_CAL_CLOUD = CloudSpec(base_delay_us=30_000, jitter_half_width_us=0, loss_prob=0.0)


# each builtin's (caller, callee) subnets
_BUILTINS = {
    "wifi-wifi": (SubnetSpec("hawaii", WifiParams()), SubnetSpec("florida", WifiParams())),
    "umts-umts": (SubnetSpec("new-york", _CAL_UMTS), SubnetSpec("california", _CAL_UMTS)),
    "wifi-umts": (SubnetSpec("hawaii", WifiParams()), SubnetSpec("california", _CAL_UMTS)),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_scenario(name: str) -> ScenarioSpec:
    if name not in _BUILTINS:
        raise ValidationError(f"unknown builtin scenario {name!r} "
                              f"(have {', '.join(BUILTIN_NAMES)})")
    caller, callee = _BUILTINS[name]
    return validate(ScenarioSpec(
        name=name,
        subnets=(caller, callee),
        cloud=_CAL_CLOUD,
        calls=CallSpec(caller_subnet=caller.name, callee_subnet=callee.name),
    ))


def with_overrides(spec: ScenarioSpec, *, master_seed: int | None = None,
                   repetitions: int | None = None) -> ScenarioSpec:
    if master_seed is not None:
        spec = replace(spec, master_seed=master_seed)
    if repetitions is not None:
        spec = replace(spec, repetitions=repetitions)
    return validate(spec)
