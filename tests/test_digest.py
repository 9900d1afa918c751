"""The committed answer and work digest, ``tools/digest.py --check``: every
answer and every work stream it hashes is as the committed file says."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digest.py"


def test_digest_matches_the_committed_file():
    spec = importlib.util.spec_from_file_location("digest", TOOL)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert digest.changed(digest.digest()) == []
