import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """The environment with src/ on PYTHONPATH, for subprocess runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env
