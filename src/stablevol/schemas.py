"""JSON schemas for every machine-readable output the CLI emits."""

_PAIR = {
    "type": "object",
    "required": ["degree", "birth", "death", "birth_simplex", "death_simplex"],
    "properties": {
        "degree": {"type": "integer", "minimum": 0},
        "birth": {"type": "number"},
        "death": {"type": ["number", "null"]},
        "birth_simplex": {"type": "integer"},
        "death_simplex": {"type": ["integer", "null"]},
    },
}

DIAGRAM_SCHEMA = {
    "type": "object",
    "required": ["degree", "pairs"],
    "properties": {
        "degree": {"type": "integer", "minimum": 0},
        "pairs": {"type": "array", "items": _PAIR},
    },
}

DIAGRAMS_SCHEMA = {
    "type": "object",
    "required": ["diagrams"],
    "properties": {
        "diagrams": {"type": "array", "items": DIAGRAM_SCHEMA},
        "squared": {"type": "boolean"},
    },
}

VOLUME_SCHEMA = {
    "type": "object",
    "required": ["pair", "epsilon", "cells", "boundary", "points", "method"],
    "properties": {
        "pair": _PAIR,
        "epsilon": {"type": ["number", "null"]},
        "cells": {"type": "array", "items": {"type": "integer"}},
        "boundary": {"type": "array", "items": {"type": "integer"}},
        "points": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "method": {
            "enum": [
                "tree-optimal",
                "tree-stable",
                "lp-optimal",
                "lp-stable",
                "lp-sub",
                "rsc",
            ]
        },
        "objective": {"type": "number"},
        "status": {"type": "string"},
        "weight": {"type": ["number", "null"]},
        "k_rank": {"type": "integer"},
    },
}

FREQUENCY_SCHEMA = {
    "type": "object",
    "required": ["trials", "matched", "frequencies"],
    "properties": {
        "trials": {"type": "integer", "minimum": 1},
        "matched": {"type": "integer", "minimum": 0},
        "status": {"type": "string"},
        "frequencies": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["point", "f"],
                "properties": {
                    "point": {"type": "integer", "minimum": 0},
                    "f": {"type": "number", "minimum": 0, "maximum": 1},
                },
            },
        },
    },
}
