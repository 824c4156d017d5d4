"""Report documents, config documents, digests, and sweep CSV rows.

Reports are plain dicts serialized with sorted keys so that replaying a run
with its printed seed reproduces the bytes exactly (the ``timing`` field is
the one documented exception).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

from delayedpa.gf2 import BitVector
from delayedpa.ledger import ErrorEstimate, KeyLedger
from delayedpa.protocols import (
    Bb84Config,
    ChannelModel,
    DqkdConfig,
    EveModel,
    IntegratedConfig,
    ProtocolTranscript,
    RelayConfig,
    RelayTranscript,
)

__all__ = [
    "key_digest",
    "fields_doc",
    "transcript_report",
    "relay_report",
    "keyrate_report",
    "verify_report",
    "dumps",
    "parse_pa_seed",
    "config_doc_from_args",
    "build_config",
    "ledger_csv_header",
    "ledger_csv_row",
]

PROTOCOLS = ("bb84", "dqkd", "integrated-2", "integrated-2b", "integrated-2c", "integrated-2d", "relay")


def key_digest(v: BitVector | None) -> str | None:
    """Hex SHA-256 of the key bits (length-prefixed, little-endian packing)."""
    if v is None:
        return None
    h = hashlib.sha256()
    h.update(v.length.to_bytes(8, "little"))
    h.update(v.to_bytes())
    return h.hexdigest()


def fields_doc(record: ErrorEstimate | KeyLedger | None) -> dict | None:
    """An estimate's or a ledger's fields as a dict; None stays None."""
    # every field is a flat scalar, so this equals asdict() without its deep copies
    return None if record is None else {f.name: getattr(record, f.name) for f in fields(record)}


def transcript_report(t: ProtocolTranscript, config_doc: dict, seconds: float) -> dict:
    return {
        "report_type": "simulate",
        "protocol": t.protocol,
        "seed": t.seed,
        "config": config_doc,
        "error_estimate": fields_doc(t.estimate),
        "key_ledger": fields_doc(t.ledger),
        "abort": t.abort,
        "abort_reason": t.abort_reason,
        "key_digest": key_digest(t.alice_key),
        "sift": {"sent": t.sift_sent, "retained": t.sift_retained},
        "pa_seed": None if t.pa_seed is None else {"bits": t.pa_seed.length, "hex": t.pa_seed.to_hex()},
        "timing": {"seconds": seconds},
    }


def relay_report(rt: RelayTranscript, config_doc: dict, seconds: float) -> dict:
    report = transcript_report(rt.qkd, config_doc, seconds)
    report.update(
        {
            "protocol": "relay",
            "seed": rt.seed,
            "scheme": rt.scheme,
            "abort": rt.abort,
            "abort_reason": rt.abort_reason,
            "key_digest": key_digest(rt.bob_key),
            "bob_key_digest": key_digest(rt.bob_key),
            "charlie_key_digest": key_digest(rt.charlie_key),
            "pool_size": rt.pool_size,
            "pool_consumed": rt.pool_consumed,
        }
    )
    return report


def keyrate_report(n: int, e_roundtrip: float, e_p: float, ledger: KeyLedger,
                   single_line_rate: float | None, seconds: float) -> dict:
    return {
        "report_type": "keyrate",
        "n": n,
        "e_roundtrip": e_roundtrip,
        "e_p": e_p,
        "key_ledger": fields_doc(ledger),
        "abort": ledger.abort,
        "single_line_rate": single_line_rate,
        "timing": {"seconds": seconds},
    }


def verify_report(suite: str, seed: int, passed: bool, payload: dict, seconds: float) -> dict:
    return {
        "report_type": "verify",
        "suite": suite,
        "seed": seed,
        "passed": passed,
        "payload": payload,
        "timing": {"seconds": seconds},
    }


def dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ------------------------------------------------------------------ configs

def parse_pa_seed(text: str) -> BitVector:
    """Parse a fixed ``BITS:HEX`` hash seed."""
    bits, sep, digits = text.partition(":")
    # int() would also take "1_2", "+12", " 12" and non-ASCII digits
    if not (sep and bits.isascii() and bits.isdigit()):
        raise ValueError("pa seed must look like BITS:HEX")
    return BitVector.from_hex(int(bits), digits)


def _channel_doc(ch: ChannelModel) -> dict:
    return {"kind": ch.kind, "param": ch.param}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


# scalar config keys: (whether a value is accepted, what the error asks for)
_SCALARS = {
    **dict.fromkeys(("n", "n_test", "seed", "pool"), (_is_int, "an integer")),
    "check_fraction": (_is_number, "a number"),
    **dict.fromkeys(("delayed", "quantum_memory"), (lambda v: isinstance(v, bool), "true or false")),
}
_CONFIG_KEYS = ("protocol", "channels", "eve", "pa", *_SCALARS)
# keys that set a field only some protocols' configs have, and that field
_OPTIONAL_FIELDS = {"pool": "pool_size", "channels.backward": "backward",
                    **{key: key for key in ("check_fraction", "eve", "delayed", "quantum_memory")}}
# integrated-2/2b/2c/2d take IntegratedConfig
_CONFIG_TYPES = {"bb84": Bb84Config, "dqkd": DqkdConfig, "relay": RelayConfig}
# a desk-scale bound: integrated-2c at n = 10**7 (n_test = 2 * 10**6, bsc(0.02) both
# ways) peaks at 480 MiB RSS (numpy 2.4): 171 MiB before its one hash call, whose
# transforms, rounding and unpacking add at most 320 MiB
MAX_SIGNALS = 10**7


def _object(doc, where: str, keys) -> dict:
    """``doc`` itself, once it is a JSON object holding only ``keys``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in keys:
            raise ValueError(f"unknown {where} key {key!r}")
    return doc


def _channel_from_doc(channels: dict, line: str) -> ChannelModel:
    if line not in channels:
        return ChannelModel.noiseless()
    doc = _object(channels[line], f"channels.{line}", ("kind", "param"))
    param = doc.get("param", 0.0)
    # checked before float(), which would overflow on a huge integer
    if not (_is_number(param) and 0 <= param <= 1):
        raise ValueError(f"channels.{line} param must be a number in [0, 1], got {param!r}")
    return ChannelModel(doc.get("kind", "noiseless"), float(param))


def _eve_from_doc(doc) -> EveModel:
    doc = _object(doc, "eve", ("kind", "lines"))
    lines = doc.get("lines", [])
    if not isinstance(lines, list):
        raise ValueError(f"eve lines must be a list, got {lines!r}")
    return EveModel(doc.get("kind", "none"), tuple(lines))


def _pa_seed_from_doc(doc) -> BitVector | None:
    seed = _object(doc, "pa", ("seed",)).get("seed", "auto")
    if seed == "auto":
        return None
    seed = _object(seed, "pa.seed", ("bits", "hex"))
    bits, digits = seed.get("bits"), seed.get("hex")
    if not (_is_int(bits) and isinstance(digits, str)):
        raise ValueError("pa.seed needs integer bits and a hex string")
    return BitVector.from_hex(bits, digits)


def config_doc_from_args(protocol: str, args) -> dict:
    """Merge an optional config file with command-line overrides."""
    doc = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {args.config} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
    doc["protocol"] = protocol
    for key in ("n", "n_test", "seed", "check_fraction", "pool"):
        if getattr(args, key, None) is not None:
            doc[key] = getattr(args, key)
    # the flags below write into channels, so its shape is checked first
    channels = _object(doc.setdefault("channels", {}), "channels", ("forward", "backward"))
    if getattr(args, "noise_fwd", None) is not None:
        channels["forward"] = _channel_doc(ChannelModel.parse(args.noise_fwd))
    if getattr(args, "noise_bwd", None) is not None:
        channels["backward"] = _channel_doc(ChannelModel.parse(args.noise_bwd))
    if getattr(args, "eve", None) is not None:
        model = EveModel.parse(args.eve)
        doc["eve"] = {"kind": model.kind, "lines": list(model.lines)}
    if getattr(args, "pa_seed", None) is not None:
        seed = parse_pa_seed(args.pa_seed)
        doc["pa"] = {"seed": {"bits": seed.length, "hex": seed.to_hex()}}
    doc.setdefault("pa", {"seed": "auto"})
    if getattr(args, "normal_scheme", False):
        doc["delayed"] = False
    if getattr(args, "no_quantum_memory", False):
        doc["quantum_memory"] = False
    return doc


def build_config(doc: dict):
    """Resolved run config dataclass for a config document.

    This is the one check of a document's shape: unknown keys, integers
    that are not ``int`` (bools and floats included), flags that are not
    ``bool``, ``channels``/``eve``/``pa`` that are not objects and, last, keys
    the protocol's config has no field for are all rejected with a ``ValueError``.
    """
    _object(doc, "config", _CONFIG_KEYS)
    protocol = doc.get("protocol")
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    for key in ("n", "seed"):
        if key not in doc:
            raise ValueError(f"config needs {key}")
    for key, (accepts, kind) in _SCALARS.items():
        if key in doc and not accepts(doc[key]):
            raise ValueError(f"config {key} must be {kind}, got {doc[key]!r}")
    n = doc["n"]
    # a relay pool left out is 4n, capped so that every allowed n still runs
    pool = doc.get("pool", min(4 * n, MAX_SIGNALS))
    for key in ("n", "n_test", "pool"):
        if doc.get(key, 0) > MAX_SIGNALS:
            raise ValueError(f"limits exceeded: config {key} above {MAX_SIGNALS}")
    seed = doc["seed"]
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    channels = _object(doc.get("channels", {}), "channels", ("forward", "backward"))
    forward = _channel_from_doc(channels, "forward")
    backward = _channel_from_doc(channels, "backward")
    eve = _eve_from_doc(doc.get("eve", {}))
    pa_seed = _pa_seed_from_doc(doc.get("pa", {}))

    # each config takes the values its fields name; a key the document
    # leaves out keeps the field's default
    values = {
        "variant": protocol.partition("-")[2], "n": n, "pool_size": pool, "seed": seed,
        "channel": forward, "forward": forward, "backward": backward, "eve": eve, "pa_seed": pa_seed,
        **{key: doc[key] for key in ("n_test", "check_fraction", "quantum_memory", "delayed") if key in doc},
    }
    config_type = _CONFIG_TYPES.get(protocol, IntegratedConfig)
    names = {f.name for f in fields(config_type)}
    # a key that sets no field would run unused, yet the report would echo it
    given = {*doc, *(f"channels.{line}" for line in channels)}
    for key, name in _OPTIONAL_FIELDS.items():
        if key in given and name not in names:
            raise ValueError(f"{protocol} takes no config key {key!r}")
    cfg = config_type(**{name: values[name] for name in names if name in values})
    if protocol == "dqkd":
        total = n + cfg.n_test + cfg.n_check
        if total > MAX_SIGNALS:
            raise ValueError(f"limits exceeded: dqkd would send {total} signals, above {MAX_SIGNALS}")
    return cfg


# ------------------------------------------------------------------ sweeps

def ledger_csv_header() -> list[str]:
    return ["protocol", "seed", *(f.name for f in fields(KeyLedger))]


def ledger_csv_row(t: ProtocolTranscript) -> list:
    doc = fields_doc(t.ledger) or {}
    return [t.protocol, t.seed, *(doc.get(f.name) for f in fields(KeyLedger))]
