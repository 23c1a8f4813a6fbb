"""The one CSV layout every table of a run is written in."""
import math

import numpy as np

from stablewalk.output import csv_text


def test_csv_text_layout():
    rows = [
        (3, np.int64(-4), 0.0671, np.float64(1.0) / 3.0),
        (np.int32(0), "", math.nan, np.float32(0.1)),
        ("sp15", True, None, -0.0),
    ]
    assert csv_text(("a", "b", "c", "d"), rows) == (
        "schema_version,a,b,c,d\n"
        "1,3,-4,0.067100000000000007,0.33333333333333331\n"
        "1,0,,nan,0.10000000149011612\n"
        "1,sp15,True,None,-0\n"
    )
    # %.17g reads back bit for bit
    assert float("0.067100000000000007") == 0.0671 and float("0.33333333333333331") == 1.0 / 3.0
    assert csv_text(("n", "f"), []) == "schema_version,n,f\n"
