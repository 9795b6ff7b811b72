//! The four data patterns of the paper's Table 2.
//!
//! | Rows             | Rowstripe0 | Rowstripe1 | Checkered0 | Checkered1 |
//! |------------------|-----------|-----------|-----------|-----------|
//! | Victim (V)       | 0x00      | 0xFF      | 0x55      | 0xAA      |
//! | Aggressors (V±1) | 0xFF      | 0x00      | 0xAA      | 0x55      |
//! | V ± [2..8]       | 0x00      | 0xFF      | 0x55      | 0xAA      |
//!
//! Every byte of a given row is filled with the same value, so a row's
//! content under these patterns is fully described by one byte.

use serde::{Deserialize, Serialize};

/// One of the four standard memory-test data patterns (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DataPattern {
    /// Victim all-zeros, aggressors all-ones.
    Rowstripe0,
    /// Victim all-ones, aggressors all-zeros.
    Rowstripe1,
    /// Victim `0x55`, aggressors `0xAA`.
    Checkered0,
    /// Victim `0xAA`, aggressors `0x55`.
    Checkered1,
}

impl DataPattern {
    /// All four patterns, in Table-2 order.
    pub const ALL: [DataPattern; 4] = [
        DataPattern::Rowstripe0,
        DataPattern::Rowstripe1,
        DataPattern::Checkered0,
        DataPattern::Checkered1,
    ];

    /// The byte written to every byte of the victim row.
    #[inline]
    pub fn victim_byte(self) -> u8 {
        match self {
            DataPattern::Rowstripe0 => 0x00,
            DataPattern::Rowstripe1 => 0xFF,
            DataPattern::Checkered0 => 0x55,
            DataPattern::Checkered1 => 0xAA,
        }
    }

    /// The byte written to the two aggressor rows (V ± 1).
    pub fn aggressor_byte(self) -> u8 {
        !self.victim_byte()
    }

    /// The byte written to the surrounding rows (V ± \[2..8\]).
    pub fn outer_byte(self) -> u8 {
        self.victim_byte()
    }

    /// Dense index in `0..4`, for parameter tables indexed by pattern.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            DataPattern::Rowstripe0 => 0,
            DataPattern::Rowstripe1 => 1,
            DataPattern::Checkered0 => 2,
            DataPattern::Checkered1 => 3,
        }
    }

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DataPattern::Rowstripe0 => "Rowstripe0",
            DataPattern::Rowstripe1 => "Rowstripe1",
            DataPattern::Checkered0 => "Checkered0",
            DataPattern::Checkered1 => "Checkered1",
        }
    }
}

impl std::fmt::Display for DataPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_bytes() {
        assert_eq!(DataPattern::Rowstripe0.victim_byte(), 0x00);
        assert_eq!(DataPattern::Rowstripe0.aggressor_byte(), 0xFF);
        assert_eq!(DataPattern::Rowstripe1.victim_byte(), 0xFF);
        assert_eq!(DataPattern::Rowstripe1.aggressor_byte(), 0x00);
        assert_eq!(DataPattern::Checkered0.victim_byte(), 0x55);
        assert_eq!(DataPattern::Checkered0.aggressor_byte(), 0xAA);
        assert_eq!(DataPattern::Checkered1.victim_byte(), 0xAA);
        assert_eq!(DataPattern::Checkered1.aggressor_byte(), 0x55);
    }

    #[test]
    fn outer_matches_victim() {
        for p in DataPattern::ALL {
            assert_eq!(p.outer_byte(), p.victim_byte());
        }
    }

    #[test]
    fn aggressor_is_complement() {
        for p in DataPattern::ALL {
            assert_eq!(p.victim_byte() ^ p.aggressor_byte(), 0xFF);
        }
    }

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; 4];
        for p in DataPattern::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DataPattern::Checkered0.to_string(), "Checkered0");
    }
}
