"""Store crash drills: a SIGKILL at any byte reloads the flushed prefix.

The torn-write drill runs a real child process and really SIGKILLs it
mid-append, then asserts the reload equals exactly the records the
child had flushed — byte-level crash safety, not a simulation of one.
"""

import json
import os
import signal
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

# The child appends records forever, printing each index after its
# flush; the parent kills it mid-stream and replays the survivor count.
_CHILD = r"""
import sys
from repro.store import StoreWriter

writer = StoreWriter(sys.argv[1], segment_max_records=5)
index = 0
while True:
    writer.append("listings", {"offer_url": "u%06d" % index,
                               "marketplace": "M", "i": index})
    print(index, flush=True)
    index += 1
"""


def test_sigkill_mid_append_reloads_flushed_prefix(tmp_path):
    directory = str(tmp_path / "store")
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, directory],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    # Let it append a healthy number of records, then kill it hard.
    acked = []
    deadline = time.time() + 30
    while len(acked) < 40 and time.time() < deadline:
        line = child.stdout.readline()
        if line.strip().isdigit():
            acked.append(int(line))
    child.send_signal(signal.SIGKILL)
    child.wait()
    assert len(acked) >= 40, "child never got going"

    from repro.store import STORE_MANIFEST_FILENAME, StoreReader

    # The manifest is written once, by the final seal: a killed writer
    # leaves none, and the footers alone carry the sealed segments.
    assert not os.path.exists(
        os.path.join(directory, STORE_MANIFEST_FILENAME))
    reader = StoreReader.open(directory)
    survivors = [r["i"] for r in reader.iter_records("listings")]
    # Every record the child acknowledged (append + flush returned
    # before the print) must survive; at most a handful of in-flight
    # ones past the last ack may additionally appear.
    assert survivors[:len(acked)] == acked
    assert survivors == list(range(len(survivors)))
    # And the survivor store is internally consistent.
    assert reader.verify() == []


def test_sigkill_store_loads_as_dataset(tmp_path):
    # Same drill through the dataset bridge: the flushed prefix loads
    # as a MeasurementDataset with no quarantines needed.
    directory = str(tmp_path / "store")
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, directory],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    deadline = time.time() + 30
    count = 0
    while count < 20 and time.time() < deadline:
        if child.stdout.readline().strip().isdigit():
            count += 1
    child.send_signal(signal.SIGKILL)
    child.wait()

    from repro.contracts import QuarantineStore
    from repro.store import load_dataset

    quarantine = QuarantineStore()
    dataset = load_dataset(directory, quarantine=quarantine)
    assert len(dataset.listings) >= 20
    assert [l.offer_url for l in dataset.listings] == [
        "u%06d" % i for i in range(len(dataset.listings))
    ]
    assert quarantine.total == 0
