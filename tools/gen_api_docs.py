#!/usr/bin/env python
"""Write (or verify) the generated ``docs/api-reference.md``.

The reference is rendered from the live method registry by
:func:`repro.api.docgen.api_reference_markdown` — the same text
``repro methods --markdown`` prints.  Two modes:

* default — regenerate ``docs/api-reference.md`` in place;
* ``--check`` — exit 1 when the file on disk differs from what the
  registries would render now (``make docs-check`` runs this, so a
  registry change without a doc regeneration fails CI).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TARGET = REPO_ROOT / "docs" / "api-reference.md"

sys.path.insert(0, str(REPO_ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="verify docs/api-reference.md is up to date instead of "
        "writing it",
    )
    args = parser.parse_args(argv)

    from repro.api.docgen import api_reference_markdown

    rendered = api_reference_markdown()
    if args.check:
        on_disk = TARGET.read_text() if TARGET.exists() else None
        if on_disk != rendered:
            print(
                f"STALE  {TARGET.relative_to(REPO_ROOT)} does not match "
                "the registries; regenerate with "
                "`python tools/gen_api_docs.py`",
                file=sys.stderr,
            )
            return 1
        print(f"ok     {TARGET.relative_to(REPO_ROOT)} is up to date")
        return 0
    TARGET.write_text(rendered)
    print(f"wrote  {TARGET.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
