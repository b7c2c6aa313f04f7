"""Fixed calibration task: the machine-speed yardstick of a run.

    python3 -S perfbench/calibrate.py

Does the same sorts of work a vsslab process does (interpreter start, the
stdlib modules vsslab imports, big-integer modular exponentiation, dict
building and indented JSON encoding), but never touches vsslab, so no
change to the library can move it. run.py times it in fresh processes
interleaved with the ceremonies and scales each op's wall time by
CALIBRATION_REF_S over the median of its nearest timings. Changing this
file changes the unit of every timed metric.
"""

import dataclasses  # noqa: F401
import enum  # noqa: F401
import json
from configparser import ConfigParser  # noqa: F401

MODULUS = (1 << 89) - 1  # a Mersenne prime


def main() -> None:
    acc = 1
    for i in range(1, 1500):
        acc = acc * pow(3, i * 0x9E3779B97F4A7C15, MODULUS) % MODULUS
    doc = {str(i): {"value": str(acc * i % MODULUS), "ok": i % 3 == 0} for i in range(4000)}
    text = json.dumps(doc, sort_keys=True, indent=2)
    if len(text) < 1000:
        raise SystemExit("calibration task produced too little output")


if __name__ == "__main__":
    main()
