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
from pathlib import Path

from .space import Model, PointSet, SpaceError, make_model, make_space, sort_family


def model_from_document(doc: dict) -> Model:
    for key in ("points", "opens", "valuation"):
        if key not in doc:
            raise SpaceError(f"model document is missing the {key!r} key")
    points = doc["points"]
    if (not isinstance(points, list)
            or not all(isinstance(p, str) for p in points)):
        raise SpaceError("'points' must be a list of identifiers")
    index = {name: i for i, name in enumerate(points)}
    if len(index) != len(points):
        raise SpaceError("duplicate point names")

    def to_set(raw, where: str) -> PointSet:
        if (not isinstance(raw, list)
                or not all(isinstance(name, str) for name in raw)):
            raise SpaceError(f"{where} must be a list of point identifiers")
        out = set()
        for name in raw:
            if name not in index:
                raise SpaceError(f"{where} mentions undeclared point {name!r}")
            out.add(index[name])
        return frozenset(out)

    if not isinstance(doc["opens"], list):
        raise SpaceError("'opens' must be a list of opens")
    opens = [to_set(raw, "each open") for raw in doc["opens"]]
    if not isinstance(doc["valuation"], dict):
        raise SpaceError("'valuation' must be a map from atoms to point lists")
    valuation = {atom: to_set(raw, f"valuation of {atom!r}")
                 for atom, raw in doc["valuation"].items()}
    return make_model(make_space(points, opens), valuation)


def model_to_document(m: Model) -> dict:
    names = m.space.point_names
    return {
        "points": list(names),
        "opens": [[names[i] for i in sorted(U)]
                  for U in sort_family(m.space.opens)],
        "valuation": {atom: [names[i] for i in sorted(s)]
                      for atom, s in sorted(m.valuation.items())},
    }


def load_model(path: str | Path) -> Model:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SpaceError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SpaceError(f"{path}: model document must be a JSON object")
    return model_from_document(doc)


def save_model(m: Model, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_document(m), indent=2) + "\n")
