"""File output shared by the CLI, the study runner and the chain export."""

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


def write_csv(path, header, rows):
    """``header``, then one line per row, streamed through atomic_write: a
    float as its repr, None as an empty cell, anything else as str."""

    def cell(v):
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    def lines():
        yield f"{header}\n"
        for row in rows:
            yield f"{','.join(map(cell, row))}\n"

    atomic_write(path, lines())
