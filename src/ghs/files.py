"""File output shared by the CLI and the study runner."""

import os


def atomic_write(path, lines):
    """Write strings to ``path`` via a temporary file, so it appears only once
    whole; if making or writing the lines fails, the temporary file is removed."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)
