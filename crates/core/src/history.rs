//! The transfer history the empirical model fits against (§III-B).
//!
//! Each record captures one collective data transfer: its total size, the
//! number of participating ranks, the I/O mode and direction, and the
//! observed aggregate rate. The history can be snapshotted to (and
//! restored from) a plain-text format so a later run starts with a warm
//! model — the "history of previous runs" in Fig. 2.

use crate::error_msg::ModelError;

/// Synchronous or asynchronous I/O.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IoMode {
    /// Blocking I/O on the application thread.
    Sync,
    /// Background I/O behind a transactional snapshot.
    Async,
}

impl IoMode {
    fn tag(self) -> &'static str {
        match self {
            IoMode::Sync => "sync",
            IoMode::Async => "async",
        }
    }

    fn from_tag(s: &str) -> Result<Self, ModelError> {
        match s {
            "sync" => Ok(IoMode::Sync),
            "async" => Ok(IoMode::Async),
            _ => Err(ModelError(format!("unknown mode '{s}'"))),
        }
    }
}

/// Read or write.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Data moves to storage.
    Write,
    /// Data moves from storage.
    Read,
}

impl Direction {
    fn tag(self) -> &'static str {
        match self {
            Direction::Write => "write",
            Direction::Read => "read",
        }
    }

    fn from_tag(s: &str) -> Result<Self, ModelError> {
        match s {
            "write" => Ok(Direction::Write),
            "read" => Ok(Direction::Read),
            _ => Err(ModelError(format!("unknown direction '{s}'"))),
        }
    }
}

/// One observed collective transfer.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TransferRecord {
    /// Total bytes moved across all ranks.
    pub data_size: f64,
    /// Participating MPI ranks.
    pub ranks: u32,
    /// I/O mode the transfer ran under.
    pub mode: IoMode,
    /// Transfer direction.
    pub direction: Direction,
    /// Observed aggregate rate, bytes/second.
    pub rate: f64,
}

impl TransferRecord {
    /// Build a record from a measured transfer time.
    pub fn from_time(
        data_size: f64,
        ranks: u32,
        mode: IoMode,
        direction: Direction,
        io_secs: f64,
    ) -> Self {
        assert!(io_secs > 0.0, "transfer time must be positive");
        TransferRecord {
            data_size,
            ranks,
            mode,
            direction,
            rate: data_size / io_secs,
        }
    }

    /// Eq. 3 for this record: time to move `bytes` at this rate.
    pub fn io_time(&self, bytes: f64) -> f64 {
        bytes / self.rate
    }
}

/// Whether `x` can be a transfer's size or rate: finite and above zero.
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// Collection of transfer records with model-oriented queries. Grows by
/// appending; the only removal is [`discard_oldest`](History::discard_oldest)
/// (drift-triggered forgetting of a stale regime).
#[derive(Clone, Debug, Default)]
pub struct History {
    records: Vec<TransferRecord>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Append a record (its size and rate must be positive and finite).
    pub fn push(&mut self, r: TransferRecord) {
        assert!(
            positive(r.data_size) && positive(r.rate),
            "size and rate must be positive and finite"
        );
        self.records.push(r);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no transfers have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in insertion order.
    pub fn records(&self) -> &[TransferRecord] {
        &self.records
    }

    /// Discard the `n` oldest records (all of them when `n >= len`),
    /// returning how many were dropped. Peak-rate fitting keeps the best
    /// rate ever seen per configuration, so after a persistent regime
    /// change (a drift alarm) stale fast observations would dominate the
    /// fit forever — truncating the prefix is how the feedback loop
    /// forgets the old regime.
    pub fn discard_oldest(&mut self, n: usize) -> usize {
        let n = n.min(self.records.len());
        self.records.drain(..n);
        n
    }

    /// Records of one (mode, direction) slice — what a single rate model
    /// fits against.
    pub fn slice(&self, mode: IoMode, direction: Direction) -> Vec<&TransferRecord> {
        self.records
            .iter()
            .filter(|r| r.mode == mode && r.direction == direction)
            .collect()
    }

    /// The best (maximum) observed rate per `(ranks, data_size)` in a
    /// slice. The paper models the *ideal* observed bandwidth — the
    /// maximum over repeated runs — because contention only ever slows a
    /// transfer down (§V-C).
    pub fn peak_rates(&self, mode: IoMode, direction: Direction) -> Vec<TransferRecord> {
        let mut best: Vec<TransferRecord> = Vec::new();
        for r in self.slice(mode, direction) {
            match best
                .iter_mut()
                .find(|b| b.ranks == r.ranks && b.data_size == r.data_size)
            {
                Some(b) => {
                    if r.rate > b.rate {
                        *b = *r;
                    }
                }
                None => best.push(*r),
            }
        }
        best
    }

    // ----- plain-text snapshot (one record per line) -------------------

    /// Serialize as `size ranks mode direction rate` lines.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# apio-history v1\n");
        for r in &self.records {
            out.push_str(&format!(
                "{} {} {} {} {}\n",
                r.data_size,
                r.ranks,
                r.mode.tag(),
                r.direction.tag(),
                r.rate
            ));
        }
        out
    }

    /// Restore from the text format (comments and blank lines ignored).
    pub fn from_text(text: &str) -> Result<History, ModelError> {
        let mut h = History::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 5 {
                return Err(ModelError(format!(
                    "line {}: expected 5 fields, got {}",
                    lineno + 1,
                    fields.len()
                )));
            }
            // Rust parses "NaN" and "inf" as f64, so a number that parses
            // is not yet a size or a rate.
            let parse_f = |s: &str, what: &str| match s.parse::<f64>() {
                Ok(x) if positive(x) => Ok(x),
                _ => Err(ModelError(format!("line {}: bad {what} '{s}'", lineno + 1))),
            };
            let data_size = parse_f(fields[0], "size")?;
            let ranks: u32 = match fields[1].parse() {
                Ok(n) if n > 0 => n,
                _ => return Err(ModelError(format!("line {}: bad ranks", lineno + 1))),
            };
            let mode = IoMode::from_tag(fields[2])?;
            let direction = Direction::from_tag(fields[3])?;
            let rate = parse_f(fields[4], "rate")?;
            h.push(TransferRecord {
                data_size,
                ranks,
                mode,
                direction,
                rate,
            });
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(size: f64, ranks: u32, mode: IoMode, rate: f64) -> TransferRecord {
        TransferRecord {
            data_size: size,
            ranks,
            mode,
            direction: Direction::Write,
            rate,
        }
    }

    #[test]
    fn from_time_computes_rate() {
        let r = TransferRecord::from_time(1e9, 64, IoMode::Sync, Direction::Write, 2.0);
        assert_eq!(r.rate, 5e8);
        assert_eq!(r.io_time(1e9), 2.0);
    }

    #[test]
    fn slice_filters_mode_and_direction() {
        let mut h = History::new();
        h.push(rec(1.0, 1, IoMode::Sync, 1.0));
        h.push(rec(1.0, 1, IoMode::Async, 2.0));
        h.push(TransferRecord {
            data_size: 1.0,
            ranks: 1,
            mode: IoMode::Sync,
            direction: Direction::Read,
            rate: 3.0,
        });
        assert_eq!(h.slice(IoMode::Sync, Direction::Write).len(), 1);
        assert_eq!(h.slice(IoMode::Async, Direction::Write).len(), 1);
        assert_eq!(h.slice(IoMode::Sync, Direction::Read).len(), 1);
        assert_eq!(h.slice(IoMode::Async, Direction::Read).len(), 0);
    }

    #[test]
    fn peak_rates_take_the_max_per_config() {
        let mut h = History::new();
        // Three runs of the same configuration with contention noise.
        h.push(rec(1e9, 64, IoMode::Sync, 4e8));
        h.push(rec(1e9, 64, IoMode::Sync, 6e8));
        h.push(rec(1e9, 64, IoMode::Sync, 5e8));
        // A different configuration.
        h.push(rec(2e9, 128, IoMode::Sync, 9e8));
        let peaks = h.peak_rates(IoMode::Sync, Direction::Write);
        assert_eq!(peaks.len(), 2);
        let p64 = peaks.iter().find(|p| p.ranks == 64).unwrap();
        assert_eq!(p64.rate, 6e8);
    }

    #[test]
    fn text_roundtrip() {
        let mut h = History::new();
        h.push(rec(32e6, 96, IoMode::Sync, 1.5e9));
        h.push(TransferRecord {
            data_size: 64e6,
            ranks: 192,
            mode: IoMode::Async,
            direction: Direction::Read,
            rate: 2.5e9,
        });
        let text = h.to_text();
        let back = History::from_text(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.records()[0], h.records()[0]);
        assert_eq!(back.records()[1], h.records()[1]);
    }

    #[test]
    fn text_ignores_comments_and_blanks() {
        let text = "# header\n\n1000 4 sync write 500\n  # trailing comment line\n";
        let h = History::from_text(text).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.records()[0].ranks, 4);
    }

    #[test]
    fn malformed_text_rejected() {
        assert!(History::from_text("1 2 3").is_err());
        assert!(History::from_text("1000 4 hybrid write 500").is_err());
        assert!(History::from_text("1000 4 sync sideways 500").is_err());
        assert!(History::from_text("1000 4 sync write -5").is_err());
        assert!(History::from_text("x 4 sync write 500").is_err());
    }

    #[test]
    fn sizes_rates_and_ranks_that_cannot_be_a_transfer_are_rejected_with_their_line() {
        for bad in [
            "NaN 4 sync write 500",
            "inf 4 sync write 500",
            "0 4 sync write 500",
            "-1000 4 sync write 500",
            "1000 0 sync write 500",
            "1000 4 sync write NaN",
            "1000 4 sync write inf",
        ] {
            let text = format!("# apio-history v1\n1000 4 sync write 500\n{bad}\n");
            let err = History::from_text(&text).expect_err(bad);
            assert!(err.0.starts_with("line 3:"), "{bad}: {}", err.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nan_size_rejected_on_push() {
        let mut h = History::new();
        h.push(rec(f64::NAN, 1, IoMode::Sync, 1.0));
    }

    #[test]
    fn discard_oldest_drops_the_prefix() {
        let mut h = History::new();
        h.push(rec(1e9, 64, IoMode::Sync, 9e8)); // old fast regime
        h.push(rec(1e9, 64, IoMode::Sync, 8e8));
        h.push(rec(1e9, 64, IoMode::Sync, 1e7)); // new slow regime
        assert_eq!(h.discard_oldest(2), 2);
        assert_eq!(h.len(), 1);
        // The peak now reflects only the surviving (new-regime) records.
        let peaks = h.peak_rates(IoMode::Sync, Direction::Write);
        assert_eq!(peaks[0].rate, 1e7);
        // Over-asking clamps instead of panicking.
        assert_eq!(h.discard_oldest(100), 1);
        assert!(h.is_empty());
        assert_eq!(h.discard_oldest(1), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected_on_push() {
        let mut h = History::new();
        h.push(rec(1.0, 1, IoMode::Sync, 0.0));
    }
}
