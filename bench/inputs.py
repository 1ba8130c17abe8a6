"""Set-up step: generate one workload's input files from its seed.

    python3 bench/inputs.py --workload NAME --seed N --out DIR [--tiny]

run.py runs this script once per set-up repetition, each in a fresh process,
so the set-up time includes starting Python and importing probecount, and the
memory set-up uses does not count toward the measuring process's peak RSS.  The CLI later receives
only the files written here:

* ``capture_fit_count``: a radiotap capture (link type 127) written by this
  module, not by probecount, from the simulator's events plus beacon and data
  frames;
* ``events_mac_baseline``: an event-text trace in the format ``simulate``
  writes, and a model file from known moments;
* ``simulate_validate``: the simulator config and the model file.

Next to them go ``reference.npz`` (the generated arrays the reference checks
use) and ``inputs.json`` (input sizes).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from workloads import FILES, NON_PROBE_SHARE, WORKLOADS, import_probecount, known_model_text

_PCAP_HEADER = np.array(
    [(0xA1B2C3D4, 2, 4, 0, 0, 65535, 127)],
    dtype=[("magic", "<u4"), ("major", "<u2"), ("minor", "<u2"), ("zone", "<i4"),
           ("sigfigs", "<u4"), ("snaplen", "<u4"), ("linktype", "<u4")],
)

# One record: record header, radiotap header with TSFT (bit 0, 8-aligned at
# offset 8) and antenna signal (bit 5, offset 16), then a 26-byte 802.11
# management or data header with an empty SSID element as its body.
_RADIOTAP_LEN = 17
_FRAME_LEN = 26
_RECORD = np.dtype([
    ("ts_sec", "<u4"), ("ts_usec", "<u4"), ("incl_len", "<u4"), ("orig_len", "<u4"),
    ("rt_version", "u1"), ("rt_pad", "u1"), ("rt_len", "<u2"), ("rt_present", "<u4"),
    ("tsft", "<u8"), ("antsignal", "i1"),
    ("fc", "<u2"), ("duration", "<u2"), ("addr1", "u1", 6), ("addr2", "u1", 6),
    ("addr3", "u1", 6), ("seq", "<u2"), ("body", "u1", 2),
])
assert _RECORD.itemsize == 16 + _RADIOTAP_LEN + _FRAME_LEN

FC_PROBE_REQUEST = 0x40  # management, subtype 4
FC_BEACON = 0x80  # management, subtype 8
FC_DATA = 0x08  # data, subtype 0


def mac_bytes(mac: np.ndarray) -> np.ndarray:
    """uint64 MACs -> (n, 6) octets, most significant first."""
    shifts = np.arange(40, -1, -8, dtype=np.uint64)
    return ((mac[:, None] >> shifts) & np.uint64(0xFF)).astype(np.uint8)


def write_capture(path: Path, t: np.ndarray, mac: np.ndarray, fc: np.ndarray,
                  rssi: np.ndarray) -> int:
    """Write time-ordered frames as a radiotap capture; returns its size in bytes."""
    usec_total = np.round(t * 1e6).astype(np.int64)
    rec = np.zeros(t.size, dtype=_RECORD)
    rec["ts_sec"] = usec_total // 1_000_000
    rec["ts_usec"] = usec_total % 1_000_000
    rec["incl_len"] = rec["orig_len"] = _RADIOTAP_LEN + _FRAME_LEN
    rec["rt_len"] = _RADIOTAP_LEN
    rec["rt_present"] = (1 << 0) | (1 << 5)
    rec["tsft"] = usec_total
    rec["antsignal"] = rssi
    rec["fc"] = fc
    rec["addr1"] = 0xFF
    rec["addr2"] = mac_bytes(mac)
    rec["addr3"] = 0xFF
    data = _PCAP_HEADER.tobytes() + rec.tobytes()
    path.write_bytes(data)
    return len(data)


def write_events(path: Path, t: np.ndarray, mac: np.ndarray, rssi: np.ndarray) -> int:
    """Write the line-delimited event text format; returns its size in bytes."""
    octets = mac_bytes(mac)
    hexes = [f"{o:02x}" for o in range(256)]
    lines = [
        f"{ts:.6f} {':'.join(hexes[o] for o in row)} venue {r}\n"
        for ts, row, r in zip(t.tolist(), octets.tolist(), rssi.tolist())
    ]
    data = "".join(lines).encode("ascii")
    path.write_bytes(data)
    return len(data)


def simulate_arrays(config_text: str):
    """Run the simulator; returns probe events and ground truth as arrays."""
    from probecount import simulate  # noqa: PLC0415

    events, trace = simulate.simulate(simulate.parse_config(config_text))
    t = np.array([e.timestamp for e in events], dtype=np.float64)
    octets = np.array([e.mac.octets for e in events], dtype=np.uint64).reshape(-1, 6)
    mac = np.zeros(len(events), dtype=np.uint64)
    for i in range(6):
        mac = (mac << np.uint64(8)) | octets[:, i]
    truth = {}
    for kind in ("device", "person"):
        ents = [e for e in trace.entities if e.kind == kind]
        truth[f"{kind}_enter"] = np.array([e.enter for e in ents], dtype=np.float64)
        truth[f"{kind}_leave"] = np.array([e.leave for e in ents], dtype=np.float64)
    return t, mac, truth


def generate(workload_name: str, seed: int, out: Path, tiny: bool) -> dict:
    wl = WORKLOADS[workload_name]
    # Every workload imports the package here, as each CLI invocation does,
    # so that work moved into import time shows in the set-up time.
    import_probecount()
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0xBE0C])
    config_text = wl.sim_config(seed, tiny)
    meta = {"workload": wl.name, "seed": seed, "tiny": tiny}
    if wl.name == "simulate_validate":
        (out / FILES["config"]).write_text(config_text, encoding="ascii")
        (out / FILES["model"]).write_text(known_model_text(), encoding="ascii")
        meta["bytes"] = len(config_text)
        (out / FILES["meta"]).write_text(json.dumps(meta), encoding="ascii")
        return meta

    t, mac, truth = simulate_arrays(config_text)
    rssi = rng.integers(-90, -30, t.size, dtype=np.int8)
    meta["probe_frames"] = int(t.size)
    meta["entities"] = int(truth["device_enter"].size + truth["person_enter"].size)
    if wl.name == "capture_fit_count":
        n_other = int(round(t.size * NON_PROBE_SHARE / (1 - NON_PROBE_SHARE)))
        t_other = np.round(rng.uniform(0.0, float(t[-1]), n_other), 6)
        # half beacons from four access points, half data frames from stations
        ap_macs = rng.integers(0, 1 << 46, 4, dtype=np.uint64) << np.uint64(2)
        is_beacon = rng.random(n_other) < 0.5
        mac_other = np.where(is_beacon, ap_macs[rng.integers(0, 4, n_other)],
                             rng.integers(0, 1 << 48, n_other, dtype=np.uint64))
        fc = np.concatenate([np.full(t.size, FC_PROBE_REQUEST),
                             np.where(is_beacon, FC_BEACON, FC_DATA)]).astype(np.uint16)
        all_t = np.concatenate([t, t_other])
        order = np.argsort(all_t, kind="stable")
        all_rssi = np.concatenate([rssi, rng.integers(-90, -30, n_other, dtype=np.int8)])
        meta["bytes"] = write_capture(out / FILES["capture"], all_t[order],
                                      np.concatenate([mac, mac_other])[order], fc[order],
                                      all_rssi[order])
        meta["frames"] = int(all_t.size)
    else:
        meta["bytes"] = write_events(out / FILES["events"], t, mac, rssi)
        meta["frames"] = int(t.size)
        (out / FILES["model"]).write_text(known_model_text(), encoding="ascii")
    np.savez(out / FILES["arrays"], t=t, mac=mac, **truth)
    (out / FILES["meta"]).write_text(json.dumps(meta), encoding="ascii")
    return meta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, args.tiny)


if __name__ == "__main__":
    main()
