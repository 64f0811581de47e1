"""Bundled example corpus used by the test suite and handy for demos."""

from __future__ import annotations

import functools
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


@functools.cache
def example(name: str) -> Msc:
    """The parsed corpus chart `name`, one shared object per name."""
    if name not in EXAMPLES:
        raise KeyError(f"unknown corpus example {name!r}")
    text = (
        importlib.resources.files("msckit")
        .joinpath("corpus", f"{name}.msc")
        .read_text(encoding="utf-8")
    )
    return parse_msc(text)
