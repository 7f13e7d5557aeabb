"""Shared helpers for the reproduction benches."""

from __future__ import annotations

import pathlib

OUT_DIR = pathlib.Path(__file__).parent / "out"


def write_artifact(out_dir: pathlib.Path, name: str, text: str) -> None:
    out_dir.mkdir(exist_ok=True)
    (out_dir / name).write_text(text + "\n")
