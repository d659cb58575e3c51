"""Builtin variety files and their loader.

The .var sources live in the package data directory and go through the
same parser as user files, so the CLI treats a builtin name and a path
uniformly.
"""

from __future__ import annotations

from importlib import resources

from .dsl import parse_variety
from .errors import InputError, read_text
from .operads import IdentitySet

BUILTIN = ("associative", "commutative", "alternative", "lie", "jordan")


def builtin_source(name: str) -> str:
    if name not in BUILTIN:
        raise InputError(f"unknown builtin variety {name!r} (have: {', '.join(BUILTIN)})")
    return resources.files("divaria.data").joinpath(f"{name}.var").read_text()


def builtin_identity_set(name: str) -> IdentitySet:
    return parse_variety(builtin_source(name))


def load_variety(spec: str) -> IdentitySet:
    """Resolve a path, a builtin name, or a builtin name with .var suffix."""
    text = read_text(spec)
    if text is not None:
        return parse_variety(text)
    stem = spec[:-4] if spec.endswith(".var") else spec
    if stem in BUILTIN:
        return builtin_identity_set(stem)
    raise InputError(f"variety file not found: {spec}")
