"""Pins what the parsers make of malformed input, diagnostics included.

``tests/data/parse_golden.txt`` holds, for 500 seeded texts of token soup
and fixture lines, the rendered value (or ``None``) and every diagnostic of
``parse_domain``, and of ``parse_problem`` and ``parse_scenario`` with and
without the rover domain.  Rendering sorts, so the file does not depend on
``PYTHONHASHSEED``; it would if two tasks of one network shared a label, as
rendering orders tasks by label alone, but none of these texts makes one.
Regenerate it with
``PYTHONPATH=src:tests python tests/test_parse_golden.py``.
"""
from __future__ import annotations

import random
from pathlib import Path

from htnact.fixtures import fixture_text
from htnact.syntax import (
    parse_domain,
    parse_problem,
    parse_scenario,
    render_domain,
    render_problem,
    render_scenario,
)
from test_syntax import SOUP_LINES, SOUP_TOKENS

GOLDEN = Path(__file__).parent / "data" / "parse_golden.txt"


def golden_texts(count: int = 500, seed: int = 13) -> list[str]:
    rng = random.Random(seed)
    return [
        "".join(
            rng.choice(rng.choice((SOUP_TOKENS, SOUP_LINES)))
            for _ in range(rng.randint(0, 30))
        )
        for _ in range(count)
    ]


def _record(out: list[str], what: str, result, render) -> None:
    out.append(f"-- {what}")
    out.append("None" if result.value is None else render(result.value))
    out.extend(str(d) for d in result.diagnostics)


def golden_text() -> str:
    rover = parse_domain(fixture_text("rover.htn"), "rover").value
    out: list[str] = []
    for k, text in enumerate(golden_texts()):
        out.append(f"== case {k}")
        _record(out, "domain", parse_domain(text), render_domain)
        for name, domain in (("", None), (" rover", rover)):
            _record(out, "problem" + name, parse_problem(text, domain), render_problem)
            _record(out, "scenario" + name, parse_scenario(text, domain), render_scenario)
    return "\n".join(out) + "\n"


def test_parsers_reproduce_the_golden_file():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(golden_text(), encoding="utf-8")
