"""Regenerate one committed exhibit by name, the way it is committed."""

from typing import Optional

from repro.experiments import golden


def render(name: str, cache_dir: Optional[str] = None) -> str:
    """Regenerate one exhibit at its canonical (scale, seed) -> bytes,
    serially; ``cache_dir`` memoizes chain outcomes on disk — same
    bytes, cold or warm."""
    return golden.render_many([name], cache_dir=cache_dir)[0][1]
