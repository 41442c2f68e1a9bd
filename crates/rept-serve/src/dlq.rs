//! Per-tenant dead-letter file for malformed or rejected ingest.
//!
//! A line that *looks* like an `INGEST` but fails to parse — or parses
//! but is refused durably — is not silently discarded: it is appended
//! verbatim to a sibling of the checkpoint named `<stem>.dlq`, prefixed
//! with the rejection reason, one line per rejection:
//!
//! ```text
//! <reason>\t<original line>\n
//! ```
//!
//! The file is plain text on purpose: an operator can inspect, fix and
//! re-feed it with shell tools. The running count is surfaced through
//! `STATS` (`dlq=`) and `JOURNAL STATS`; on restart the count is
//! re-seeded from the existing file so it survives a resume.
//!
//! Writes are buffered-append without fsync — the DLQ is an operator
//! aid, not part of the durability contract the journal provides. So a
//! crash can leave the last entry torn, even inside a multi-byte
//! character; the file is read line by line, and a torn line decodes
//! lossily (U+FFFD) without costing any other entry.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Append-only capture of rejected ingest lines. Cheap to share: the
/// count is atomic and only actual rejections take the file lock.
#[derive(Debug)]
pub struct DeadLetterQueue {
    path: PathBuf,
    file: Mutex<File>,
    count: AtomicU64,
}

impl DeadLetterQueue {
    /// The dead-letter file that belongs to the checkpoint at `ckpt`:
    /// `<stem>.dlq` in the same directory.
    pub fn path_for(ckpt: &Path) -> PathBuf {
        crate::journal::sibling(ckpt, "dlq")
    }

    /// Opens (or creates) the dead-letter file, re-seeding the count
    /// from lines already present.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn open(path: PathBuf) -> std::io::Result<Self> {
        let existing = read_text(&path).map_or(0, |text| text.lines().count() as u64);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            file: Mutex::new(file),
            count: AtomicU64::new(existing),
        })
    }

    /// Records one rejected line with its reason. Line breaks inside
    /// either part are flattened so each rejection stays one line.
    pub fn record(&self, line: &str, reason: &str) {
        let reason: String = reason
            .chars()
            .map(|c| {
                if c == '\t' || c == '\n' || c == '\r' {
                    ' '
                } else {
                    c
                }
            })
            .collect();
        let line: String = line
            .chars()
            .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
            .collect();
        let entry = format!("{reason}\t{}\n", line.trim_end());
        if let Ok(mut file) = self.file.lock() {
            if file.write_all(entry.as_bytes()).is_ok() {
                self.count.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of rejected lines captured (including pre-restart ones).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Atomically takes every captured `(reason, line)` entry and
    /// truncates the file — the `DLQ REPLAY` primitive. Entries are
    /// returned in capture order; lines that fail replay are expected
    /// to be re-`record`ed by the caller, so a crash mid-replay loses
    /// at most the in-flight entries (the DLQ is an operator aid, not
    /// part of the durability contract).
    pub fn drain(&self) -> Vec<(String, String)> {
        let Ok(file) = self.file.lock() else {
            return Vec::new();
        };
        // Nothing is truncated that was not read.
        let Ok(text) = read_text(&self.path) else {
            return Vec::new();
        };
        let entries: Vec<(String, String)> = text
            .lines()
            .map(|entry| match entry.split_once('\t') {
                Some((reason, line)) => (reason.to_string(), line.to_string()),
                // A hand-edited entry without a tab: treat the whole
                // line as the payload.
                None => (String::new(), entry.to_string()),
            })
            .collect();
        if file.set_len(0).is_ok() {
            self.count.store(0, Ordering::Relaxed);
        }
        entries
    }

    /// Where the dead-letter file lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The file's text, each line decoded on its own: `\n` never occurs
/// inside a UTF-8 sequence, so a torn line decodes lossily and every
/// other line stays byte-exact.
fn read_text(path: &Path) -> std::io::Result<String> {
    std::fs::read(path).map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_count_and_survive_reopen() {
        let dir = std::env::temp_dir().join(format!("rept-dlq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = DeadLetterQueue::path_for(&dir.join("serve.rpck"));
        assert!(path.ends_with("serve.dlq"));

        let dlq = DeadLetterQueue::open(path.clone()).expect("open");
        assert_eq!(dlq.count(), 0);
        dlq.record("INGEST 1-1", "expected NxN edge");
        dlq.record("INGEST a b\nextra", "bad\tnode id");
        assert_eq!(dlq.count(), 2);
        drop(dlq);

        let text = std::fs::read_to_string(&path).expect("read dlq");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "expected NxN edge\tINGEST 1-1");
        assert_eq!(
            lines[1], "bad node id\tINGEST a b extra",
            "breaks flattened"
        );

        // Reopen re-seeds the count and keeps appending.
        let dlq = DeadLetterQueue::open(path).expect("reopen");
        assert_eq!(dlq.count(), 2);
        dlq.record("INGEST", "missing edges");
        assert_eq!(dlq.count(), 3);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_takes_entries_and_truncates() {
        let dir = std::env::temp_dir().join(format!("rept-dlq-drain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = DeadLetterQueue::path_for(&dir.join("serve.rpck"));
        std::fs::remove_file(&path).ok();

        let dlq = DeadLetterQueue::open(path.clone()).expect("open");
        dlq.record("INGEST 1 1", "self-loop 1-1 rejected");
        dlq.record("INGEST a b", "bad node id \"a\"");
        let entries = dlq.drain();
        assert_eq!(
            entries,
            vec![
                (
                    "self-loop 1-1 rejected".to_string(),
                    "INGEST 1 1".to_string()
                ),
                ("bad node id \"a\"".to_string(), "INGEST a b".to_string()),
            ]
        );
        assert_eq!(dlq.count(), 0, "drain resets the count");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read").len(),
            0,
            "drain truncates the file"
        );
        // Recording after a drain starts a fresh capture at offset 0.
        dlq.record("INGEST 2 2", "self-loop 2-2 rejected");
        assert_eq!(dlq.count(), 1);
        let again = dlq.drain();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].1, "INGEST 2 2");
        assert!(dlq.drain().is_empty(), "empty file drains to nothing");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash mid-append can cut the last entry inside a multi-byte
    /// character. That entry is read lossily; the others survive intact.
    #[test]
    fn a_torn_entry_costs_no_other_entry() {
        let dir = std::env::temp_dir().join(format!("rept-dlq-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = DeadLetterQueue::path_for(&dir.join("serve.rpck"));
        let mut bytes = b"self-loop 1-1 rejected\tINGEST 1 1\n".to_vec();
        bytes.extend_from_slice("bad node id\tINGEST café".as_bytes());
        bytes.pop(); // the second byte of `é`
        std::fs::write(&path, &bytes).expect("write");

        let dlq = DeadLetterQueue::open(path.clone()).expect("open");
        assert_eq!(dlq.count(), 2);
        let entries = dlq.drain();
        assert_eq!(entries.len(), 2, "{entries:?}");
        assert_eq!(
            entries[0],
            (
                "self-loop 1-1 rejected".to_string(),
                "INGEST 1 1".to_string()
            )
        );
        assert_eq!(
            entries[1],
            ("bad node id".to_string(), "INGEST caf\u{FFFD}".to_string())
        );
        assert_eq!(std::fs::read(&path).expect("read").len(), 0, "drained");

        std::fs::remove_dir_all(&dir).ok();
    }
}
