"""Built-in symbol gallery: named maps shipped as data files.

Stable names let experiments and the acceptance suite refer to the same
inputs: two rotations (order four and golden angle), two maps with an
interior attracting point (z/2 and the degree-two z^2, plus the blended
(z + z^2)/2), and three maps attracted to the boundary point 1 (hyperbolic
automorphism, parabolic automorphism, and the internally tangent (z + 1)/2).
"""

from __future__ import annotations

import json
from importlib import resources

from .symbols import Symbol, parse_symbol

GALLERY_NAMES = (
    "rot_i",
    "rot_golden",
    "z_half",
    "zsq",
    "blend_half",
    "hyperbolic",
    "parab",
    "tangent",
)

BOUNDARY_DW_NAMES = ("hyperbolic", "parab", "tangent")
NON_ELLIPTIC_NAMES = ("z_half", "zsq", "blend_half", "hyperbolic", "parab", "tangent")


def gallery_document(name: str) -> dict:
    if name not in GALLERY_NAMES:
        raise KeyError(f"unknown gallery symbol {name!r}; known: {GALLERY_NAMES}")
    data = resources.files(__package__).joinpath("gallery", f"{name}.json").read_text()
    return json.loads(data)


def gallery_symbol(name: str) -> Symbol:
    return parse_symbol(gallery_document(name))
