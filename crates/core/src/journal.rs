//! Durable state on disk: one record append ([`append`]), one torn-tail
//! rule ([`open`]) and one atomic whole-file write ([`write_atomic`]).
//! The checkpoint journal, [`JsonlSink`] traces and the campaign
//! service's logs and state files all go through them, each keeping its
//! own record format.
//!
//! Nothing calls `fsync`: the contract is a process crash (`kill -9`, an
//! OOM kill, an exit mid-write), after which every returned `append` is
//! on disk. Power loss or a kernel crash may lose more, and is out of
//! scope.
//!
//! [`JsonlSink`]: crate::obs::trace::JsonlSink

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Why a log could not be opened.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(io::Error),
    /// A record before the tail is unreadable: not a torn write, so the
    /// log is refused rather than guessed at.
    Corrupted {
        /// 1-based line of the bad record.
        line: usize,
        /// Why it failed (not UTF-8, or the caller's parse error).
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "{e}"),
            JournalError::Corrupted { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// An opened log: its whole records, whether a torn tail was cut, and
/// an append handle placed after the last whole record.
#[derive(Debug)]
pub struct Log<T> {
    /// The parsed records, in file order.
    pub records: Vec<T>,
    /// Whether opening cut a torn tail off the file.
    pub torn: bool,
    /// Append handle; pass it to [`append`].
    pub file: File,
}

/// Appends `line` (which holds no newline) and its newline in one
/// `write_all`, then flushes: a crash between two writes would leave the
/// record without its newline, and the next record would join its line.
///
/// # Errors
///
/// Any write or flush failure of `w`.
pub fn append(w: &mut impl Write, line: &str) -> io::Result<()> {
    let mut record = String::with_capacity(line.len() + 1);
    record.push_str(line);
    record.push('\n');
    w.write_all(record.as_bytes())?;
    w.flush()
}

/// Opens the log at `path` (creating it empty if missing) and reads it
/// back under the one tail rule:
///
/// - every newline-terminated line is a record: it must be UTF-8 and
///   `parse` must accept it;
/// - bytes after the last newline are a torn write;
/// - a bad last line is a torn write when nothing follows it;
/// - a bad line anywhere else is [`JournalError::Corrupted`].
///
/// A torn tail is cut off in place, so later appends extend the whole
/// records.
///
/// # Errors
///
/// [`JournalError::Corrupted`] for a bad record before the tail, and
/// [`JournalError::Io`] on filesystem failure.
pub fn open<T>(
    path: impl AsRef<Path>,
    mut parse: impl FnMut(&str) -> Result<T, String>,
) -> Result<Log<T>, JournalError> {
    let mut file = OpenOptions::new().read(true).append(true).create(true).open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;

    // Only newline-terminated lines are records; bytes after the last
    // newline are torn.
    let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
    let mut records = Vec::new();
    let mut whole = 0; // byte length of the whole records
    let mut lines = bytes[..end].split_inclusive(|&b| b == b'\n').enumerate().peekable();
    while let Some((i, line)) = lines.next() {
        let body = std::str::from_utf8(&line[..line.len() - 1]);
        match body.map_err(|e| format!("not UTF-8: {e}")).and_then(&mut parse) {
            Ok(record) => {
                records.push(record);
                whole += line.len();
            }
            Err(_) if lines.peek().is_none() && end == bytes.len() => {} // torn
            Err(reason) => return Err(JournalError::Corrupted { line: i + 1, reason }),
        }
    }
    let torn = whole < bytes.len();
    if torn {
        file.set_len(whole as u64)?;
    }
    Ok(Log { records, torn, file })
}

/// Replaces the content of `path` with `bytes`: writes `<path>.tmp`,
/// then renames it over `path`.
///
/// # Errors
///
/// Any failure to write the temporary file or to rename it.
pub fn write_atomic(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}
