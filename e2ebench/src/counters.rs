//! Deterministic work counters and their exact comparison.
//!
//! Every iteration of a workload reports the same counters: the work
//! the model did (hammer sessions, epochs, simulated ns, activations,
//! commits, events, ...) and a digest of every rendered output. A
//! change that only makes the program faster leaves every one of them
//! identical, so they are compared exactly: per iteration against the
//! first iteration, between traced and untraced iterations, and against
//! the counters stored under `counters/` for the same seed.

use std::collections::BTreeMap;
use std::path::Path;

/// Counter name → value. A `BTreeMap`, so the printed order and the
/// stored file are stable.
pub type Counters = BTreeMap<String, u64>;

/// Every difference between `expected` and `actual`, one line each:
/// values that differ, and names present on one side only. Empty means
/// identical.
pub fn diff(expected: &Counters, actual: &Counters) -> Vec<String> {
    let mut out = Vec::new();
    for (name, want) in expected {
        match actual.get(name) {
            Some(got) if got == want => {}
            Some(got) => out.push(format!("{name}: expected {want}, got {got}")),
            None => out.push(format!("{name}: expected {want}, missing")),
        }
    }
    for (name, got) in actual {
        if !expected.contains_key(name) {
            out.push(format!("{name}: unexpected counter with value {got}"));
        }
    }
    out
}

/// A streaming 64-bit FNV-1a digest over labelled byte strings (the
/// label keeps `("ab", "c")` and `("a", "bc")` apart).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one labelled output into the digest.
    pub fn add(&mut self, label: &str, bytes: &[u8]) {
        for b in label.bytes().chain([0xFF]).chain(bytes.iter().copied()).chain([0xFE]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    }

    /// Folds a serialized value into the digest.
    pub fn add_json<T: serde::Serialize>(&mut self, label: &str, value: &T) {
        let json = serde_json::to_string(value).expect("benchmark outputs serialize");
        self.add(label, json.as_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Stored counters of one workload: seed → counters.
pub type Stored = BTreeMap<u64, Counters>;

/// Reads a stored-counters file; a missing file is an empty store.
pub fn load(path: &Path) -> Result<Stored, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Stored::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Writes a stored-counters file.
pub fn save(path: &Path, stored: &Stored) -> Result<(), String> {
    let json = serde_json::to_string_pretty(stored).expect("counters serialize");
    std::fs::write(path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(pairs: &[(&str, u64)]) -> Counters {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    #[test]
    fn identical_counters_have_no_diff() {
        let a = counters(&[("sessions", 10), ("digest", u64::MAX)]);
        assert!(diff(&a, &a.clone()).is_empty());
    }

    #[test]
    fn any_difference_is_reported() {
        let a = counters(&[("sessions", 10), ("epochs", 3)]);
        let off_by_one = counters(&[("sessions", 11), ("epochs", 3)]);
        assert_eq!(diff(&a, &off_by_one), vec!["sessions: expected 10, got 11"]);
        let missing = counters(&[("sessions", 10)]);
        assert_eq!(diff(&a, &missing), vec!["epochs: expected 3, missing"]);
        let extra = counters(&[("sessions", 10), ("epochs", 3), ("sim_ns", 1)]);
        assert_eq!(diff(&a, &extra), vec!["sim_ns: unexpected counter with value 1"]);
    }

    #[test]
    fn digest_separates_labels_and_bytes() {
        let mut a = Digest::default();
        a.add("ab", b"c");
        let mut b = Digest::default();
        b.add("a", b"bc");
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.add("ab", b"c");
        assert_eq!(a.value(), c.value());
    }

    #[test]
    fn stored_counters_round_trip_exactly() {
        let mut stored = Stored::new();
        stored.insert(7, counters(&[("digest", u64::MAX), ("sessions", 12_345)]));
        let json = serde_json::to_string_pretty(&stored).unwrap();
        let back: Stored = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stored);
    }
}
