"""File output shared by the CLI and the study runner."""

import os


def atomic_write(path, lines):
    """Write strings to ``path`` via a temporary file, so it appears only once whole."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
    os.replace(tmp, path)
