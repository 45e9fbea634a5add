"""flatact: certificates and screening for finite group actions on tori
and closed flat manifolds."""

__version__ = "0.1.0"


class BoundExceeded(Exception):
    """A resource bound was exceeded: cosets, search nodes, group order or
    coefficient rank.  The command line exits 3 on it."""
