"""JSON model documents.

A model file is a single JSON object with three keys:

    {
      "points": ["x0", "x1", "x2"],
      "opens": [[], ["x0"], ["x0", "x1"], ["x0", "x1", "x2"]],
      "valuation": {"A": ["x0"]}
    }

Point identifiers must be unique; every open and valuation entry lists
declared identifiers; the full point set must appear among the opens.
"""

from __future__ import annotations

import json
from os import PathLike

from .formula import is_atom_name
from .space import Model, SpaceError, check_atom_name, space_from_masks


def model_from_document(doc: dict) -> Model:
    for key in ("points", "opens", "valuation"):
        if key not in doc:
            raise SpaceError(f"model document is missing the {key!r} key")
    points = doc["points"]
    if (not isinstance(points, list)
            or not all(isinstance(p, str) for p in points)):
        raise SpaceError("'points' must be a list of identifiers")
    bit = {name: 1 << i for i, name in enumerate(points)}  # repeats rejected

    def to_mask(raw, where: str) -> int:
        try:  # list.__iter__ takes lists only: any other value fails below
            return sum(set(map(bit.__getitem__, list.__iter__(raw))))
        except (KeyError, TypeError):
            pass
        if not (isinstance(raw, list)
                and all(isinstance(name, str) for name in raw)):
            raise SpaceError(f"{where} must be a list of point identifiers")
        undeclared = next(name for name in raw if name not in bit)
        raise SpaceError(f"{where} mentions undeclared point {undeclared!r}")

    if not isinstance(doc["opens"], list):
        raise SpaceError("'opens' must be a list of opens")
    opens = [to_mask(raw, "each open") for raw in doc["opens"]]
    if not isinstance(doc["valuation"], dict):
        raise SpaceError("'valuation' must be a map from atoms to point lists")
    for atom in doc["valuation"]:
        if not is_atom_name(atom):
            raise SpaceError(f"valuation: {atom!r} is not an atom name")
    masks = {atom: to_mask(raw, f"valuation of {atom!r}")
             for atom, raw in doc["valuation"].items()}
    space = space_from_masks(points, opens)
    for atom in masks:  # top and bot, once the space is checked
        check_atom_name(atom)
    return Model(space, masks)


def model_to_document(m: Model) -> dict:
    names = m.space.point_names
    return {
        "points": list(names),
        "opens": [[x for i, x in enumerate(names) if u >> i & 1]
                  for u in m.space.masks],
        "valuation": {atom: [x for i, x in enumerate(names) if u >> i & 1]
                      for atom, u in sorted(m.masks.items())},
    }


def read_text(path: str | PathLike) -> str:
    with open(path, encoding="utf-8") as file:
        return file.read()


def read_json(path: str | PathLike):
    """The JSON value in a file; invalid or too deeply nested JSON raises
    SpaceError."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SpaceError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError:
        raise SpaceError(f"{path}: JSON nested too deeply") from None


def load_model(path: str | PathLike) -> Model:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SpaceError(f"{path}: model document must be a JSON object")
    return model_from_document(doc)


def save_model(m: Model, path: str | PathLike) -> None:
    text = json.dumps(model_to_document(m), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)
