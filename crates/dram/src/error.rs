//! Error type for DRAM device operations.

use std::error::Error;
use std::fmt;

/// Error returned by fallible DRAM device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DramError {
    /// The bank index was outside the device's bank count.
    BankOutOfRange { bank: usize, banks: usize },
    /// The row address was outside the bank's row count.
    RowOutOfRange { row: u32, rows: u32 },
    /// A row access was issued while the bank had a different row open
    /// (a real chip would corrupt data; the model rejects the command).
    RowNotOpen { bank: usize, row: u32 },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::BankOutOfRange { bank, banks } => {
                write!(f, "bank {bank} out of range (device has {banks} banks)")
            }
            DramError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range (bank has {rows} rows)")
            }
            DramError::RowNotOpen { bank, row } => {
                write!(f, "row {row} is not open in bank {bank}")
            }
        }
    }
}

impl Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = DramError::BankOutOfRange { bank: 9, banks: 8 };
        assert!(e.to_string().contains("bank 9"));
        let e = DramError::RowNotOpen { bank: 2, row: 77 };
        assert!(e.to_string().contains("row 77"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DramError>();
    }
}
