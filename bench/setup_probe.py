"""Cold set-up of xratio, timed in a fresh interpreter.

    python3 -I bench/setup_probe.py SRC_DIR FIELD [FIELD ...]

prints the seconds from just before ``import xratio`` until the shipped
certificates are parsed and the named fields are built: the work a fresh
``replay`` process does before its first unit can start.
"""

import sys
import time


def setup(fields):
    import xratio
    from xratio import certs

    certs.shipped_certificates()
    for name in fields:
        xratio.field_by_name(name)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    setup(sys.argv[2:])
    print(time.perf_counter() - t0)
