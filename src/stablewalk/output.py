"""The one text layout of every file a run writes.

A CSV table starts with a schema_version column of 1; floats (numpy floats
included) are written as %.17g, so they read back bit for bit, and every
other value through str().  Every line, the header included, ends in LF, and
a table with no rows is its header line.  A JSON file (summary.json,
constants.json, manifest.json) is indented by 2 with sorted keys and ends in
LF.
"""
from __future__ import annotations

import json

import numpy as np


def _cell(value) -> str:
    return f"{value:.17g}" if isinstance(value, (float, np.floating)) else str(value)


def csv_text(header, rows) -> str:
    """The CSV text of rows (each a sequence of values) under the column names header."""
    lines = [",".join(["schema_version", *header])]
    lines += [",".join(["1", *map(_cell, row)]) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    """The JSON text of payload: indent 2, sorted keys, a final LF."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
