"""Output files.  CSV cells carry 6 significant digits, with `\\n` line ends
and optional `# key=value` lines before the header; JSON keeps full
precision, indented by 2 with sorted keys and a trailing newline.
"""

from __future__ import annotations

import contextlib
import csv
import json

from .errors import UsageError


def fmt(v):
    """A float at 6 significant digits; anything else as it is."""
    return format(v, ".6g") if isinstance(v, float) else v


@contextlib.contextmanager
def _opened(path, **kwargs):
    """`path` open for UTF-8 text output; an OSError from opening or writing
    it is a usage error that names it."""
    try:
        with open(path, "w", encoding="utf-8", **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc.strerror or exc}") from None


def write_csv(path, header, rows, comments: dict | None = None) -> None:
    with _opened(path, newline="") as fh:
        for key, value in (comments or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([fmt(v) for v in row] for row in [header, *rows])


def write_json(path, doc) -> None:
    with _opened(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
