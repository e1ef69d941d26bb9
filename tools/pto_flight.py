#!/usr/bin/env python3
"""Parse and render a PTO_FLIGHT flight-recorder dump (pto_flight.bin).

The dump (format documented in src/obs/flight.h, written by flight_dump at
process exit or on a fatal signal) holds the last N transaction events per
ring: prefix attempts, commits, aborts (with decoded cause), and fallback
acquisitions, each stamped with the raw TSC. A ring belongs to a telemetry
slot, which one thread holds at a time, so a ring's records may span the
slot's successive owners; the `thread` field and CSV column carry the slot.

Default output: per-slot ring occupancy, per-site event counts with the
abort-cause breakdown, and a validation summary ("malformed records: K") —
CI asserts K == 0. `--timeline N` additionally prints the last N events
across all rings, merged by timestamp, with times relative to the newest
event.

Usage:
  pto_flight.py [FILE] [--timeline N]     # FILE defaults to pto_flight.bin
  pto_flight.py FILE --since 500          # only events in the last 500us
  pto_flight.py FILE --last 100 --csv     # newest 100 events as CSV
"""

import argparse
import os
import struct
import sys

MAGIC = b"PTOFLT01"
REC_SIZE = 16
EVENT_NAMES = {1: "attempt", 2: "commit", 3: "abort", 4: "fallback"}
# Mirrors htm/txcode.h TxAbort (abort event arg).
CAUSE_NAMES = {1: "conflict", 2: "capacity", 3: "explicit", 4: "duration",
               5: "spurious", 6: "other"}


class Truncated(Exception):
    pass


class Reader:
    def __init__(self, data):
        self.data = data
        self.off = 0

    def take(self, n):
        if self.off + n > len(self.data):
            raise Truncated(f"need {n} bytes at offset {self.off}, "
                            f"file has {len(self.data)}")
        b = self.data[self.off:self.off + n]
        self.off += n
        return b

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]


def parse(data):
    """Parse a dump into {tsc_hz, sites, rings}; raises Truncated/ValueError.

    Each ring is {thread (its slot), total, records}; each record has a
    `malformed` reason (None when clean). Malformed records are kept so the
    timeline still shows them, flagged.
    """
    r = Reader(data)
    if r.take(8) != MAGIC:
        raise ValueError("not a PTO_FLIGHT dump (bad magic)")
    version = r.u32()
    if version != 1:
        raise ValueError(f"unsupported dump version {version}")
    tsc_hz = r.u64()
    nsites = r.u32()
    sites = []
    for _ in range(nsites):
        ln = r.u32()
        sites.append(r.take(ln).decode("utf-8", errors="replace"))
    nrings = r.u32()
    rings = []
    for _ in range(nrings):
        thread = r.u32()
        total = r.u64()
        nrec = r.u32()
        records = []
        prev_tsc = 0
        for _ in range(nrec):
            tsc, site, event, pad, arg = struct.unpack(
                "<QHBBI", r.take(REC_SIZE))
            bad = None
            if event not in EVENT_NAMES:
                bad = f"unknown event {event}"
            elif pad != 0:
                bad = f"nonzero pad byte {pad}"
            elif site != 0xFFFF and site >= max(nsites, 1):
                bad = f"site id {site} out of range"
            elif event == 3 and arg not in CAUSE_NAMES:
                bad = f"abort cause {arg} out of range"
            # A backwards TSC within one ring is a hardware artifact
            # (core migration on a non-invariant TSC), not a parse error:
            # note it but do not count it malformed.
            warp = tsc < prev_tsc
            prev_tsc = max(prev_tsc, tsc)
            records.append({"tsc": tsc, "site": site, "event": event,
                            "arg": arg, "malformed": bad, "warp": warp})
        rings.append({"thread": thread, "total": total, "records": records})
    if r.off != len(data):
        raise Truncated(f"{len(data) - r.off} trailing bytes after last ring")
    return {"tsc_hz": tsc_hz, "sites": sites, "rings": rings}


def site_name(dump, sid):
    if sid == 0xFFFF:
        return "(overflow)"
    if sid < len(dump["sites"]):
        return dump["sites"][sid] or f"site#{sid}"
    return f"site#{sid}"


def print_summary(dump):
    hz = dump["tsc_hz"]
    print(f"tsc: {hz} ticks/s ({hz / 1e9:.3f} GHz)")
    print(f"sites: {len(dump['sites'])}, slots with rings: "
          f"{len(dump['rings'])}")
    print()
    print("per-slot rings (a slot is held by one thread at a time):")
    for ring in dump["rings"]:
        kept = len(ring["records"])
        dropped = ring["total"] - kept
        print(f"  slot {ring['thread']}: {ring['total']} recorded, "
              f"{kept} kept, {dropped} overwritten")
    # site -> {event -> count}; abort causes broken out.
    per_site = {}
    for ring in dump["rings"]:
        for rec in ring["records"]:
            if rec["malformed"]:
                continue
            key = site_name(dump, rec["site"])
            ev = EVENT_NAMES[rec["event"]]
            if ev == "abort":
                ev = "abort." + CAUSE_NAMES[rec["arg"]]
            per_site.setdefault(key, {})
            per_site[key][ev] = per_site[key].get(ev, 0) + 1
    print()
    print("per-site event counts (surviving window only):")
    if not per_site:
        print("  (no records)")
    for site in sorted(per_site):
        evs = per_site[site]
        parts = ", ".join(f"{k}={evs[k]}" for k in sorted(evs))
        print(f"  {site}: {parts}")


def window_records(dump, since_us=None, last=None):
    """Merge all rings by timestamp and trim to a window.

    `since_us` keeps only events within that many microseconds of the newest
    event across all rings (inclusive at the boundary); `last` then keeps
    the newest N of those. Both default to "no trimming". Pure function of
    the parsed dump — unit-tested against a synthetic fixture.
    """
    events = []
    for ring in dump["rings"]:
        for rec in ring["records"]:
            events.append((rec["tsc"], ring["thread"], rec))
    events.sort(key=lambda e: e[0])
    if since_us is not None and events:
        hz = dump["tsc_hz"] or 10**9
        cutoff = events[-1][0] - int(since_us * hz / 1e6)
        events = [e for e in events if e[0] >= cutoff]
    if last is not None:
        events = events[len(events) - last:] if last < len(events) else events
    return events


def print_csv(dump, events, out=sys.stdout):
    out.write("rel_us,thread,site,event,cause,malformed\n")
    t_end = events[-1][0] if events else 0
    hz = dump["tsc_hz"] or 10**9
    for tsc, thread, rec in events:
        rel_us = (t_end - tsc) / hz * 1e6
        ev = EVENT_NAMES.get(rec["event"], f"ev{rec['event']}")
        cause = CAUSE_NAMES.get(rec["arg"], "") if rec["event"] == 3 else ""
        bad = rec["malformed"] or ""
        out.write(f"{rel_us:.3f},{thread},{site_name(dump, rec['site'])},"
                  f"{ev},{cause},{bad}\n")


def print_timeline(dump, n):
    events = window_records(dump, last=n)
    if not events:
        print("timeline: (no records)")
        return
    t_end = events[-1][0]
    hz = dump["tsc_hz"] or 10**9
    print(f"timeline (last {len(events)} events, time before end of trace):")
    for tsc, thread, rec in events:
        dt_us = (t_end - tsc) / hz * 1e6
        ev = EVENT_NAMES.get(rec["event"], f"ev{rec['event']}")
        detail = ""
        if rec["event"] == 3:
            detail = f" cause={CAUSE_NAMES.get(rec['arg'], rec['arg'])}"
        flag = f"  [MALFORMED: {rec['malformed']}]" if rec["malformed"] else ""
        print(f"  -{dt_us:10.1f}us  s{thread}  "
              f"{site_name(dump, rec['site'])}  {ev}{detail}{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", nargs="?", default="pto_flight.bin",
                    help="flight dump (default pto_flight.bin)")
    ap.add_argument("--timeline", type=int, metavar="N", default=0,
                    help="also print the last N events across rings")
    ap.add_argument("--since", type=float, metavar="US", default=None,
                    help="restrict to events within US microseconds of the "
                         "newest event")
    ap.add_argument("--last", type=int, metavar="N", default=None,
                    help="restrict to the newest N events (after --since)")
    ap.add_argument("--csv", action="store_true",
                    help="emit the selected window as CSV instead of the "
                         "summary")
    args = ap.parse_args()

    with open(args.file, "rb") as f:
        data = f.read()
    try:
        dump = parse(data)
    except (Truncated, ValueError) as e:
        raise SystemExit(f"error: {e}")

    if args.csv:
        print_csv(dump, window_records(dump, args.since, args.last))
        return 0

    print_summary(dump)
    if args.since is not None or args.last is not None:
        n = len(window_records(dump, args.since, args.last))
        print()
        print(f"window: {n} events selected "
              f"(--since {args.since} --last {args.last})")
    if args.timeline:
        print()
        print_timeline(dump, args.timeline)

    malformed = sum(1 for ring in dump["rings"]
                    for rec in ring["records"] if rec["malformed"])
    warps = sum(1 for ring in dump["rings"]
                for rec in ring["records"] if rec["warp"])
    total = sum(len(ring["records"]) for ring in dump["rings"])
    print()
    if warps:
        print(f"note: {warps} backwards timestamps (non-invariant TSC?)")
    print(f"records parsed: {total}, malformed records: {malformed}")
    return 1 if malformed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed early; not an error worth a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
