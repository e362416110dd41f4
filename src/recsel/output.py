"""Output files.  CSV cells carry 6 significant digits, with `\\n` line ends
and optional `# key=value` lines before the header; JSON keeps full
precision, indented by 2 with sorted keys and a trailing newline.
"""

from __future__ import annotations

import csv
import json


def fmt(v):
    """A float at 6 significant digits; anything else as it is."""
    return format(v, ".6g") if isinstance(v, float) else v


def write_csv(path, header, rows, comments: dict | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in (comments or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([fmt(v) for v in row] for row in [header, *rows])


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
