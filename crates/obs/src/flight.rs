//! The flight recorder: a fixed-size, always-on ring of span closes.
//!
//! Full capture ([`crate::capture`]) is opt-in and serialized; the flight
//! recorder is neither. Every [`Span`](crate::Span) close — whether tracing
//! is enabled or not — deposits one fixed-size [`FlightRecord`] into a
//! static ring of [`FLIGHT_CAPACITY`] slots, so a wedged or just-crashed
//! process can always explain its recent past (the serve layer dumps the
//! ring over a flight scrape, and the CLI dumps it on panic).
//!
//! The ring is lock-light: one short, allocation-free critical section per
//! span close over a `const`-initialized array (std mutexes don't allocate),
//! which keeps the zero-allocation guarantee of the disabled path. With the
//! inert span's two clock reads, that deposit is all a disabled span costs;
//! `obs_overhead_gate` holds it within 2x of a bare pair of clock reads.
//! Work that is timed anyway deposits its close with [`flight_close`] and
//! reads the clock no more.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How many span-close events the ring retains (the newest
/// `FLIGHT_CAPACITY` survive; older ones are overwritten).
pub const FLIGHT_CAPACITY: usize = 256;

/// One span close, as retained by the ring and shipped by a flight scrape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Process-wide close ordinal, starting at 1 (gaps never occur; a dump
    /// whose smallest `seq` is > 1 has wrapped).
    pub seq: u64,
    /// The span's static name.
    pub name: String,
    /// Small per-process thread ordinal (see [`crate::SpanRecord::thread`]).
    pub(crate) thread: u64,
    /// Microseconds from the *process* epoch (first flight event or span)
    /// to the span's close. Note: a different timebase than the capture
    /// epoch used by [`crate::SpanRecord::start_us`].
    end_us: u64,
    /// Span duration in microseconds.
    pub(crate) dur_us: u64,
}

/// A ring slot. `seq == 0` marks a never-written slot.
#[derive(Clone, Copy)]
struct Slot {
    seq: u64,
    name: &'static str,
    thread: u64,
    end_us: u64,
    dur_us: u64,
}

const EMPTY: Slot = Slot {
    seq: 0,
    name: "",
    thread: 0,
    end_us: 0,
    dur_us: 0,
};

struct Ring {
    slots: [Slot; FLIGHT_CAPACITY],
    /// Index of the next slot to overwrite.
    next: usize,
    /// Last sequence number handed out.
    seq: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    slots: [EMPTY; FLIGHT_CAPACITY],
    next: 0,
    seq: 0,
});

/// The process-wide monotonic epoch the flight timebase counts from.
static PROCESS_EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds from the process epoch (lazily pinned on first use) to
/// `at`; zero for an instant before the epoch.
pub(crate) fn process_micros(at: Instant) -> u64 {
    at.saturating_duration_since(*PROCESS_EPOCH.get_or_init(Instant::now))
        .as_micros() as u64
}

/// Deposits one span close into the ring. Allocation-free.
pub(crate) fn push(name: &'static str, thread: u64, end_us: u64, dur_us: u64) {
    let mut ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    ring.seq += 1;
    let seq = ring.seq;
    let next = ring.next;
    ring.slots[next] = Slot {
        seq,
        name,
        thread,
        end_us,
        dur_us,
    };
    ring.next = (next + 1) % FLIGHT_CAPACITY;
}

/// Deposits the close of work timed elsewhere: what a disabled span named
/// `name` would deposit had it closed at `end` after `dur`. For a caller
/// that already read the clock around its work and would otherwise read it
/// twice more for a span (the serve layer's untraced `request`, timed by
/// its backend). Allocation-free.
pub fn flight_close(name: &'static str, end: Instant, dur: Duration) {
    push(
        name,
        crate::span::thread_ordinal(),
        process_micros(end),
        dur.as_micros() as u64,
    );
}

/// Snapshots the ring, oldest close first. At most [`FLIGHT_CAPACITY`]
/// records; fewer if the process has closed fewer spans.
pub fn flight_snapshot() -> Vec<FlightRecord> {
    let ring = RING.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::with_capacity(FLIGHT_CAPACITY);
    for i in 0..FLIGHT_CAPACITY {
        let slot = &ring.slots[(ring.next + i) % FLIGHT_CAPACITY];
        if slot.seq == 0 {
            continue; // never written
        }
        out.push(FlightRecord {
            seq: slot.seq,
            name: slot.name.to_string(),
            thread: slot.thread,
            end_us: slot.end_us,
            dur_us: slot.dur_us,
        });
    }
    out
}

/// Serializes flight records as JSONL, one
/// `{"type":"flight","seq":..,"name":..,"thread":..,"end_us":..,"dur_us":..}`
/// object per line (the payload of a flight scrape).
pub fn flight_to_jsonl(records: &[FlightRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "{{\"type\":\"flight\",\"seq\":{},\"name\":\"{}\",\"thread\":{},\"end_us\":{},\"dur_us\":{}}}\n",
            r.seq,
            crate::json::escape(&r.name),
            r.thread,
            r.end_us,
            r.dur_us,
        ));
    }
    out
}

/// Parses the output of [`flight_to_jsonl`] (blank lines ignored).
pub fn flight_from_jsonl(text: &str) -> Result<Vec<FlightRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = crate::json::parse(line).map_err(|e| format!("flight line {}: {e}", lineno + 1))?;
        if v.as_object().is_none() {
            return Err(format!("flight line {}: not an object", lineno + 1));
        }
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("flight line {}: missing number {key:?}", lineno + 1))
        };
        let name = v
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("flight line {}: missing string \"name\"", lineno + 1))?;
        out.push(FlightRecord {
            seq: num("seq")?,
            name: name.to_string(),
            thread: num("thread")?,
            end_us: num("end_us")?,
            dur_us: num("dur_us")?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_roundtrip() {
        let records = vec![
            FlightRecord {
                seq: 1,
                name: "kernel".to_string(),
                thread: 2,
                end_us: 123,
                dur_us: 45,
            },
            FlightRecord {
                seq: 2,
                name: "net.connection".to_string(),
                thread: 1,
                end_us: 200,
                dur_us: 77,
            },
        ];
        let text = flight_to_jsonl(&records);
        assert_eq!(flight_from_jsonl(&text).unwrap(), records);
    }

    #[test]
    fn a_close_timed_elsewhere_lands_as_given() {
        // Serialized with the ring-filling test below, as there.
        let cap = crate::capture();
        let end = Instant::now();
        flight_close("flight.timed", end, Duration::from_micros(42));
        let snap = flight_snapshot();
        drop(cap);
        let record = snap
            .iter()
            .rfind(|r| r.name == "flight.timed")
            .expect("the close was deposited");
        assert_eq!(record.dur_us, 42);
        assert_eq!(record.end_us, process_micros(end));
    }

    #[test]
    fn snapshot_orders_by_seq_and_caps_at_capacity() {
        // Hold a capture so span emission serializes with other tests'
        // captures (the ring is fed in enabled mode too; the disabled-mode
        // path is asserted by the `flight_ring` integration test, which
        // owns its whole process).
        let cap = crate::capture();
        for _ in 0..(FLIGHT_CAPACITY + 10) {
            let _s = crate::span("flight.fill");
        }
        drop(cap);
        let snap = flight_snapshot();
        assert_eq!(snap.len(), FLIGHT_CAPACITY, "full ring caps at capacity");
        for pair in snap.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1, "seqs are gapless");
        }
        assert!(snap.iter().any(|r| r.name == "flight.fill"));
    }
}
