"""Machine-checkable inequality transcripts.

A certificate is a list of links, one per inequality in a chain.  Each link
records both sides, the slack, the arithmetic mode that produced the numbers,
and the verdict under the fixed float policy of ``scalars`` (exact
comparison in exact mode).
"""

from dataclasses import dataclass, field

from .scalars import Scalar, format_scalar, join_modes, mode_of, slack_ok


@dataclass(slots=True)
class Link:
    name: str
    lhs: Scalar
    rhs: Scalar
    slack: Scalar
    mode: str
    verdict: bool

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": format_scalar(self.lhs),
            "rhs": format_scalar(self.rhs),
            "slack": format_scalar(self.slack),
            "mode": self.mode,
            "verdict": self.verdict,
        }


def make_link(name: str, lhs: Scalar, rhs: Scalar) -> Link:
    """Build a link asserting lhs <= rhs, in the mode of its slack: a float
    side makes the difference a float, and exact sides keep it exact."""
    slack = rhs - lhs
    mode = mode_of(slack)
    return Link(name, lhs, rhs, slack, mode, slack_ok(slack, mode))


@dataclass(slots=True)
class Certificate:
    name: str
    links: tuple
    mode: str
    verdict: bool
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_links(cls, name, links, meta=None):
        links = tuple(links)
        mode = join_modes(*(link.mode for link in links))
        verdict = all(link.verdict for link in links)
        return cls(name, links, mode, verdict, dict(meta or {}))

    def to_dict(self):
        return {
            "name": self.name,
            "mode": self.mode,
            "verdict": self.verdict,
            "links": [link.to_dict() for link in self.links],
            "meta": self.meta,
        }
