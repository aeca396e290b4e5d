"""Regenerate pins.json: the default-seed outputs that rsb_solve (branch
sets and pressures) and finite_size (bit-exact seeded oracle values)
are compared against.  Run only when an intended change of those
values has been reviewed:

    python3 perfbench/make_pins.py
"""

import json

import package
from workloads import DEFAULT_SEED, PINS, WORKLOADS


def main():
    rsb = package.load()
    pins = {}
    for name in ("rsb_solve", "finite_size"):
        wl = WORKLOADS[name]
        pins[name] = {item.label: wl.pin(wl.call(rsb, item))
                      for item in wl.items(DEFAULT_SEED)}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
