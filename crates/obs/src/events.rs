//! The flight recorder: a bounded ring of recent structured events.
//!
//! When a serving process dies — panic, SIGKILL drill, operator drain —
//! the cumulative counters say *how much* happened but not *what happened
//! last*. The [`FlightRecorder`] keeps the most recent N events (admission
//! sheds, epoch bumps, checkpoints, slow queries, restores) in memory and serializes them as JSON-lines:
//!
//! * to `<data-dir>/flightrec-<unix-millis>.jsonl` on graceful drain,
//! * from the panic hook installed by `kreach serve --data-dir`,
//! * on demand via `POST /debug/flightrec`.
//!
//! Recording is one short mutex acquire on paths that are already off the
//! per-query hot loop (an epoch bump, a checkpoint, a shed connection), so
//! no lock-free cleverness is needed here.

use std::collections::VecDeque;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Wall-clock milliseconds since the Unix epoch when the event fired.
    pub unix_millis: u64,
    /// Stable event kind: `shed`, `epoch`, `checkpoint`, `slow_query`,
    /// `restore`, `drain`, `panic`, ...
    pub kind: &'static str,
    /// Free-form detail, `key=value` style.
    pub detail: String,
}

impl FlightEvent {
    /// The event as one JSON object — one line of the `.jsonl` dump.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"unix_millis\":{},\"kind\":{:?},\"detail\":{:?}}}",
            self.unix_millis, self.kind, self.detail
        )
    }
}

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is broken).
pub fn unix_millis_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The shared bounded event ring; see the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    total: AtomicU64,
    ring: Mutex<VecDeque<FlightEvent>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            total: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Records one event, stamped now. Oldest events fall off the ring;
    /// the total stays monotone.
    pub fn record(&self, kind: &'static str, detail: String) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let event = FlightEvent {
            unix_millis: unix_millis_now(),
            kind,
            detail,
        };
        let mut ring = self.ring.lock().expect("flight-recorder ring poisoned");
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Events recorded since startup (monotone; unlike the bounded ring,
    /// never forgets) — the `kreach_flight_events_total` counter.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.ring
            .lock()
            .expect("flight-recorder ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// The retained events as JSON-lines (one object per line, trailing
    /// newline when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }

    /// Dumps the ring as `flightrec-<unix-millis>.jsonl` under `dir`
    /// (created if missing) and returns the written path. The write is
    /// flushed and fsynced — this runs on the way down, where a torn dump
    /// defeats the purpose.
    pub fn dump_to(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("flightrec-{}.jsonl", unix_millis_now()));
        let mut file = fs::File::create(&path)?;
        file.write_all(self.to_jsonl().as_bytes())?;
        file.sync_all()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_but_total_is_monotone() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.record("epoch", format!("epoch={i}"));
        }
        assert_eq!(rec.total(), 5);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].detail, "epoch=2");
        assert_eq!(events[2].detail, "epoch=4");
        assert!(events[0].unix_millis > 0);
    }

    #[test]
    fn jsonl_renders_one_escaped_object_per_line() {
        let rec = FlightRecorder::new(8);
        rec.record("checkpoint", "epoch=7 bytes=123".to_string());
        rec.record("slow_query", "op=\"GET /reach\" micros=900".to_string());
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"checkpoint\""), "{jsonl}");
        assert!(
            lines[1].contains("\"detail\":\"op=\\\"GET /reach\\\" micros=900\""),
            "{jsonl}"
        );
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert_eq!(FlightRecorder::new(1).to_jsonl(), "");
    }

    #[test]
    fn dump_writes_a_timestamped_jsonl_file() {
        let dir = std::env::temp_dir().join(format!(
            "kreach-flightrec-test-{}-{}",
            std::process::id(),
            unix_millis_now()
        ));
        let rec = FlightRecorder::new(8);
        rec.record("drain", "clean=true".to_string());
        let path = rec.dump_to(&dir).expect("dump");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("flightrec-") && name.ends_with(".jsonl"),
            "{name}"
        );
        let body = fs::read_to_string(&path).expect("read dump");
        assert!(body.contains("\"kind\":\"drain\""), "{body}");
        fs::remove_dir_all(&dir).ok();
    }
}
