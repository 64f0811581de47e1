"""Bundled example corpus used by the test suite and handy for demos."""

from __future__ import annotations

import importlib.resources

from .core import Msc
from .io import parse_msc

EXAMPLES = (
    "relay",
    "crossing",
    "overtake",
    "two_targets",
    "roundtrip",
    "blocked",
    "lost_elsewhere",
    "mailbox_cross",
    "late_receive",
    "handshake",
    "staggered",
    "pipeline",
    "producer",
    "train",
    "fanout",
    "fanout_lost",
)

_cache: dict[str, Msc] = {}


def example(name: str) -> Msc:
    if name not in EXAMPLES:
        raise KeyError(f"unknown corpus example {name!r}")
    if name not in _cache:
        text = (
            importlib.resources.files("msckit")
            .joinpath("corpus", f"{name}.msc")
            .read_text(encoding="utf-8")
        )
        _cache[name] = parse_msc(text)
    return _cache[name]
