"""The argparse parser `arithjet.cli` used before it read its flags from
one table, kept verbatim as the reference for `cli.parse_args`."""

import argparse
import functools

from arithjet.errors import InvalidParameters


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a fail report, not a usage exit
        raise InvalidParameters(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the process, built on the first call."""
    ap = _Parser(
        prog="arithjet",
        description="pi-typical Witt vectors, delta-characters and the "
                    "filtered crystal of a formal group at finite precision")
    ap.add_argument("--config", help="key=value parameter file")
    ap.add_argument("--cmd", default="verify", help="verify, crystal or witt")
    ap.add_argument("--p", type=int, default=5,
                    help="residue characteristic")
    ap.add_argument("--e", type=int, default=1, help="ramification index")
    ap.add_argument("--prec", type=int, default=8,
                    help="pi-adic working precision (verify, witt)")
    ap.add_argument("--deg", type=int, help="series degree cap")
    ap.add_argument("--nmax", type=int, default=3,
                    help="maximal character order; witt: Witt vector "
                         "length - 1, at most 3")
    ap.add_argument("--a4", type=int, help="Weierstrass a4 (short form)")
    ap.add_argument("--a6", type=int, help="Weierstrass a6 (short form)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized suites")
    ap.add_argument("--out", help="write the JSON report here")
    return ap
