//! The DRAM command set issued by the testing platform (paper §2.2).

use serde::{Deserialize, Serialize};

/// One DRAM command, addressed at bank/row granularity (column accesses
/// operate on the open row; the byte payload of a write is a uniform fill,
/// matching the Table-2 data patterns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DramCommand {
    /// Row activation: opens `row` in `bank`.
    Act {
        /// Target bank.
        bank: usize,
        /// Target row.
        row: u32,
    },
    /// Bank precharge: closes the open row of `bank`.
    Pre {
        /// Target bank.
        bank: usize,
    },
    /// Column write burst filling the open row of `bank` with `fill`.
    Wr {
        /// Target bank.
        bank: usize,
        /// Fill byte written to the whole burst.
        fill: u8,
    },
    /// Column read burst from the open row of `bank`.
    Rd {
        /// Target bank.
        bank: usize,
    },
    /// Refresh command (all banks).
    Ref,
}

impl std::fmt::Display for DramCommand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DramCommand::Act { bank, row } => write!(f, "ACT b{bank} r{row}"),
            DramCommand::Pre { bank } => write!(f, "PRE b{bank}"),
            DramCommand::Wr { bank, fill } => write!(f, "WR b{bank} 0x{fill:02X}"),
            DramCommand::Rd { bank } => write!(f, "RD b{bank}"),
            DramCommand::Ref => write!(f, "REF"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        let c = DramCommand::Wr { bank: 2, fill: 0xAA };
        assert_eq!(c.to_string(), "WR b2 0xAA");
        assert_eq!(DramCommand::Act { bank: 1, row: 37 }.to_string(), "ACT b1 r37");
    }
}
