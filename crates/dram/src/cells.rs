//! True-/anti-cell data encoding layout (paper §5.6).
//!
//! A *true cell* encodes logic-1 as a charged capacitor; an *anti cell*
//! encodes logic-1 as a discharged capacitor. Manufacturers lay out true-
//! and anti-cell regions in row blocks; the paper measures 50 rows of
//! module M0 and finds 20 anti-cell rows and 30 true-cell rows, with no
//! significant RDT-distribution difference (Finding 17).

use serde::{Deserialize, Serialize};

/// The data encoding convention of a DRAM cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellPolarity {
    /// Logic-1 stored as a charged capacitor.
    True,
    /// Logic-1 stored as a discharged capacitor.
    Anti,
}

impl CellPolarity {
    /// Whether a cell of this polarity holding `bit` is *charged*.
    ///
    /// Read disturbance predominantly discharges charged cells, so only
    /// charged cells flip at full coupling strength.
    #[inline]
    pub fn is_charged(self, bit: bool) -> bool {
        match self {
            CellPolarity::True => bit,
            CellPolarity::Anti => !bit,
        }
    }
}

/// Block-based row polarity layout: rows alternate polarity every
/// `block_rows` physical rows, optionally starting with anti cells.
///
/// # Examples
///
/// ```
/// use vrd_dram::cells::{CellLayout, CellPolarity};
///
/// let layout = CellLayout::new(512, false);
/// assert_eq!(layout.polarity_of_physical_row(0), CellPolarity::True);
/// assert_eq!(layout.polarity_of_physical_row(512), CellPolarity::Anti);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellLayout {
    block_rows: u32,
    starts_anti: bool,
}

impl CellLayout {
    /// Creates a layout alternating every `block_rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `block_rows` is zero.
    pub fn new(block_rows: u32, starts_anti: bool) -> Self {
        assert!(block_rows > 0, "block_rows must be nonzero");
        CellLayout { block_rows, starts_anti }
    }

    /// The polarity of every cell in the given *physical* row.
    pub fn polarity_of_physical_row(&self, physical_row: u32) -> CellPolarity {
        let block = physical_row / self.block_rows;
        let anti = (block % 2 == 1) ^ self.starts_anti;
        if anti {
            CellPolarity::Anti
        } else {
            CellPolarity::True
        }
    }

    /// Rows per polarity block.
    pub fn block_rows(&self) -> u32 {
        self.block_rows
    }
}

impl Default for CellLayout {
    /// Alternating 512-row blocks starting with true cells — a common
    /// open-bitline arrangement.
    fn default() -> Self {
        CellLayout::new(512, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn true_cell_charged_on_one() {
        assert!(CellPolarity::True.is_charged(true));
        assert!(!CellPolarity::True.is_charged(false));
    }

    #[test]
    fn anti_cell_charged_on_zero() {
        assert!(CellPolarity::Anti.is_charged(false));
        assert!(!CellPolarity::Anti.is_charged(true));
    }

    #[test]
    fn blocks_alternate() {
        let l = CellLayout::new(4, false);
        assert_eq!(l.polarity_of_physical_row(3), CellPolarity::True);
        assert_eq!(l.polarity_of_physical_row(4), CellPolarity::Anti);
        assert_eq!(l.polarity_of_physical_row(7), CellPolarity::Anti);
        assert_eq!(l.polarity_of_physical_row(8), CellPolarity::True);
    }

    #[test]
    fn starts_anti_inverts() {
        let l = CellLayout::new(4, true);
        assert_eq!(l.polarity_of_physical_row(0), CellPolarity::Anti);
        assert_eq!(l.polarity_of_physical_row(4), CellPolarity::True);
    }

    #[test]
    #[should_panic(expected = "block_rows")]
    fn zero_block_panics() {
        CellLayout::new(0, false);
    }
}
