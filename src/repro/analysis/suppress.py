"""Inline lint suppressions for WOL program text.

WOL clauses carry no source positions, so suppressions are directives in
comments, scoped to a code and optionally to one clause::

    -- lint: disable=WOL301                  (whole file)
    -- lint: disable=WOL301,WOL305 clause=C6 (one clause)

Both ``--`` and ``#`` comment leaders are accepted.  Unknown codes are
kept (they may belong to a newer analyzer) but never match anything.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Optional, Tuple

#: (code, clause-or-None); None means the directive is file-scoped.
Suppression = Tuple[str, Optional[str]]

_DIRECTIVE_RE = re.compile(
    r"(?:--|#)\s*lint:\s*disable=([A-Z0-9,\s]+?)"
    r"(?:\s+clause=([A-Za-z_][A-Za-z0-9_]*))?\s*$",
    re.MULTILINE)


def parse_suppressions(text: str) -> FrozenSet[Suppression]:
    """Extract every suppression directive from WOL source text."""
    found = set()
    for match in _DIRECTIVE_RE.finditer(text):
        codes, clause = match.group(1), match.group(2)
        for code in codes.split(","):
            code = code.strip()
            if code:
                found.add((code, clause))
    return frozenset(found)


def is_suppressed(suppressions: FrozenSet[Suppression], code: str,
                  clause: Optional[str]) -> bool:
    """True when ``code`` (optionally anchored to ``clause``) is disabled."""
    if (code, None) in suppressions:
        return True
    return clause is not None and (code, clause) in suppressions
