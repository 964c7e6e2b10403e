"""Access to the shipped moral-principle rule library."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from .ruleparse import RuleDocument, parse_kb

PRINCIPLE_ID_PREFIX = "p"


def principles_text() -> str:
    """Raw text of the shipped principle library."""
    return resources.files("softprove").joinpath("data/principles.pl").read_text("utf-8")


@lru_cache(maxsize=8)
def _load(path: Optional[str]) -> RuleDocument:
    text = principles_text() if path is None else Path(path).read_text("utf-8")
    return parse_kb(text, id_prefix=PRINCIPLE_ID_PREFIX)


def load_principles(path: Optional[Union[str, Path]] = None) -> RuleDocument:
    """Parse the shipped library, or an override file, as principle rules."""
    return _load(str(path) if path is not None else None)

