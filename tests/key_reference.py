"""A renaming-invariant configuration key: the differential reference for
``htnact.trace.canonical_key``.

Every call renders the state, sorts every couple's members and fingerprints
every alternative body under one renaming shared with the network and the
couples, so configurations that differ by a renaming that keeps label order
share a key.  ``canonical_key`` compares configurations by equality instead:
it never puts together two configurations this key separates, and a search
memoised under either key finds the same results (``tests/test_key.py``).
"""
from __future__ import annotations

from typing import Callable, Optional

from htnact.acting import Configuration
from htnact.constraints import Constraint, FirstRef, LabelRef, TaskNetwork, TaskRef
from htnact.model import label_key


def label_renamer() -> Callable[[str], str]:
    """Maps each label to ``#k``, numbering labels in order of first request."""
    mapping: dict[str, str] = {}
    return lambda label: mapping.setdefault(label, f"#{len(mapping)}")


def network_fingerprint(
    network: TaskNetwork, rename: Optional[Callable[[str], str]] = None
) -> str:
    rename = rename or label_renamer()
    tasks = sorted(network.tasks, key=lambda lt: (str(lt.task), label_key(lt.label)))
    pieces = [f"{rename(lt.label)}:{lt.task}" for lt in tasks]
    formula = sorted(network.formula, key=str)
    for c in formula:
        for label in sorted(c.labels(), key=label_key):
            rename(label)
    rendered = sorted(_renamed_constraint(c, rename) for c in formula)
    return " ".join(pieces) + " | " + " & ".join(rendered)


def _renamed_constraint(c: Constraint, rename: Callable[[str], str]) -> str:
    def ref_str(ref: TaskRef) -> str:
        if isinstance(ref, LabelRef):
            return rename(ref.label)
        inner = ",".join(sorted(rename(label) for label in ref.labels))
        return ("first[" if isinstance(ref, FirstRef) else "last[") + inner + "]"

    parts = [type(c.body).__name__] + [ref_str(ref) for ref in c.refs()]
    literal = getattr(c.body, "literal", None)
    if literal is not None:
        parts.append(str(literal))
    if c.negated:
        parts.append("~")
    return " ".join(parts)


def canonical_key(cfg: Configuration) -> str:
    rename = label_renamer()
    pieces = [
        network_fingerprint(cfg.network, rename),
        "@" + " ".join(sorted(map(str, cfg.state))),
    ]
    for couple in cfg.sorted_couples():
        origin = rename(couple.origin) if couple.origin else "top"
        members = " ".join(
            sorted(
                f"{rename(lt.label)}:{lt.task}"
                for lt in sorted(
                    couple.pursued, key=lambda t: (str(t.task), label_key(t.label))
                )
            )
        )
        alts = " ".join(
            f"{body.index}<{network_fingerprint(body.network, rename)}>"
            for body in couple.alternatives
        )
        pieces.append(f"[{origin}: {members} ! {alts}]")
    return "\n".join(pieces)
