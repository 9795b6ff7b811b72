//! Crash recovery of `vrd_core::journal`, the framing every line log
//! shares (checkpoint journal, scheduler op log, event streams).
//!
//! A process killed mid-append leaves any byte prefix of the log on
//! disk. For every such prefix, `journal::open` must return exactly the
//! records whose lines are whole, cut the file back to them, and leave
//! an append handle that adds one clean line. A bad record before the
//! tail is corruption and is refused with its line number;
//! `write_atomic` replaces a file whole.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use vrd::core::checkpoint::fnv1a64;
use vrd::core::exec::faults::corrupt_record;
use vrd::core::journal::{self, JournalError};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_file(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vrd-journal-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("log.jsonl")
}

/// Record text is drawn from ASCII and 2-, 3- and 4-byte UTF-8 chars,
/// so cuts land inside multi-byte sequences too.
const ALPHABET: [char; 10] = ['a', 'Z', '7', ' ', '"', '{', 'å', 'ß', '€', '𝄞'];

fn records(count: std::ops::Range<usize>) -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(prop::collection::vec(0..ALPHABET.len(), 0..10), count).prop_map(
        |records| {
            records.into_iter().map(|r| r.into_iter().map(|i| ALPHABET[i]).collect()).collect()
        },
    )
}

/// A checksummed record line, so a flipped byte never parses.
fn line(text: &str) -> String {
    format!("{:016x} {text}", fnv1a64(text.as_bytes()))
}

fn parse(line: &str) -> Result<String, String> {
    let (sum, text) = line.split_once(' ').ok_or("no checksum field")?;
    let sum = u64::from_str_radix(sum, 16).map_err(|e| e.to_string())?;
    if sum != fnv1a64(text.as_bytes()) {
        return Err("checksum mismatch".into());
    }
    Ok(text.to_owned())
}

/// Writes `records` through `journal::append` into a fresh log.
fn write_log(path: &PathBuf, records: &[String]) -> Vec<u8> {
    let mut log = journal::open(path, parse).unwrap();
    for r in records {
        journal::append(&mut log.file, &line(r)).unwrap();
    }
    std::fs::read(path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_cut_recovers_exactly_the_whole_records(records in records(0..7)) {
        let path = scratch_file("cut");
        let bytes = write_log(&path, &records);
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut log = journal::open(&path, parse).unwrap();
            let whole = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
            let whole_len = bytes[..cut].iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
            prop_assert!(log.records == records[..whole], "cut at {}: {:?}", cut, log.records);
            prop_assert_eq!(log.torn, whole_len < cut);
            prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), whole_len as u64);

            journal::append(&mut log.file, &line("after ålice")).unwrap();
            drop(log);
            let reopened = journal::open(&path, parse).unwrap();
            prop_assert!(!reopened.torn);
            let mut expected = records[..whole].to_vec();
            expected.push("after ålice".to_owned());
            prop_assert_eq!(reopened.records, expected);
            let text = std::fs::read(&path).unwrap();
            prop_assert_eq!(text.len(), whole_len + line("after ålice").len() + 1);
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn a_bad_last_line_is_torn_and_an_earlier_one_is_corrupted(
        records in records(1..7),
        pick in any::<usize>(),
        fragment in any::<bool>(),
    ) {
        let path = scratch_file("corrupt");
        write_log(&path, &records);
        let bad = pick % records.len();
        corrupt_record(&path, bad).unwrap();
        if fragment {
            // Half a record after the bad line: the bad line is no tail.
            let mut log = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            std::io::Write::write_all(&mut log, &line("torn").as_bytes()[..9]).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        match journal::open(&path, parse) {
            Ok(log) => {
                prop_assert!(bad + 1 == records.len() && !fragment, "only a last line is torn");
                prop_assert!(log.torn);
                prop_assert_eq!(log.records, records[..bad].to_vec());
                let kept: usize = records[..bad].iter().map(|r| line(r).len() + 1).sum();
                prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), kept as u64);
            }
            Err(JournalError::Corrupted { line, .. }) => {
                prop_assert!(bad + 1 < records.len() || fragment, "a last line is torn");
                prop_assert_eq!(line, bad + 1);
                prop_assert!(std::fs::read(&path).unwrap().len() == bytes.len(), "left as is");
            }
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

#[test]
fn a_line_that_is_not_utf8_before_the_tail_is_corrupted() {
    let path = scratch_file("utf8");
    let mut bytes = line("first").into_bytes();
    bytes.extend_from_slice(b"\n\xC3\n");
    bytes.extend_from_slice(line("third").as_bytes());
    bytes.push(b'\n');
    std::fs::write(&path, &bytes).unwrap();
    match journal::open(&path, parse) {
        Err(JournalError::Corrupted { line, reason }) => {
            assert_eq!(line, 2);
            assert!(reason.starts_with("not UTF-8"), "{reason}");
        }
        other => panic!("expected Corrupted, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn open_creates_a_missing_log_empty() {
    let path = scratch_file("missing");
    let log = journal::open(&path, parse).unwrap();
    assert!(log.records.is_empty() && !log.torn);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn write_atomic_replaces_the_content_and_leaves_no_temp_file() {
    let path = scratch_file("atomic").with_file_name("state.json");
    let tmp = path.with_file_name("state.json.tmp");
    journal::write_atomic(&path, "{\"v\": 1}").unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\": 1}");
    journal::write_atomic(&path, "{\"v\": \"två\"}\n").unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\": \"två\"}\n");
    assert!(!tmp.exists(), "the temp file is renamed away");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
