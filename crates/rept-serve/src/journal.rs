//! Append-only, segmented write-ahead edge journal — the lossless half
//! of the crash-safety story.
//!
//! Checkpoints alone make resume *deterministic*: a kill loses every
//! edge accepted after the last RPCK file, and the producer must replay
//! them. The journal closes that gap. The ingest thread appends one
//! length-prefixed, CRC-guarded record per accepted batch **before**
//! applying it, and (under [`SyncPolicy::PerRecord`], the default)
//! fsyncs before the batch is acknowledged — so an acked edge is on
//! disk before the caller hears `OK`. Recovery restores the checkpoint,
//! then replays the journal tail above the checkpointed position:
//! resume becomes **lossless**, not merely bit-identical-given-replay.
//!
//! ## On-disk format
//!
//! The journal lives next to its checkpoint: segments are siblings of
//! the checkpoint path named `<stem>.wal.<start position, zero-padded>`
//! (zero padding makes name order equal position order). Each segment:
//!
//! ```text
//! magic "RJL1" (4 bytes) | start position (u64 LE)        — header
//! len (u32 LE) | crc32 (u32 LE) | payload                 — record 0
//! len (u32 LE) | crc32 (u32 LE) | payload                 — record 1
//! …
//! ```
//!
//! A record's payload is its own start position (u64 LE) followed by
//! `(len − 8) / 8` edges as `(u, v)` u32 LE pairs; `crc32` (IEEE) is
//! computed over the payload. Records are position-contiguous: each
//! starts where the previous ended, and the first starts at the segment
//! header's position. Everything is redundant on purpose — a torn final
//! record (the kill-mid-append case) fails the length or CRC check and
//! is **dropped, not fatal**; a record that fails contiguity marks the
//! same cut. Nothing past a cut is trusted.
//!
//! ## Truncation
//!
//! A successful checkpoint at position `p` makes every record below `p`
//! redundant; [`Journal::truncate_to`] then deletes segments whose
//! coverage ends at or below `p`. A kill between the checkpoint rename
//! and the truncation leaves stale segments behind — recovery skips
//! records below the restored position, so the window is harmless.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rept_graph::edge::Edge;

use crate::metrics::ServeMetrics;

/// Magic bytes opening every journal segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"RJL1";
/// Segment header size: magic plus the u64 start position.
const SEGMENT_HEADER: u64 = 12;
/// Record header size: u32 payload length plus u32 CRC-32.
const RECORD_HEADER: usize = 8;
/// Payload bytes before the edges: the record's own start position.
const PAYLOAD_PREFIX: usize = 8;
/// Bytes per edge in a record payload.
const EDGE_BYTES: usize = 8;

/// When the journal fsyncs relative to the ingest acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every appended record, before the ack — an acked
    /// edge is durable. The default, and the only policy under which
    /// recovery is lossless against power failure.
    #[default]
    PerRecord,
    /// Ack after the buffered write; fsync on segment rotation, flush,
    /// checkpoint and shutdown. Much cheaper per batch, but a kill can
    /// lose acked-but-unsynced records — recovery still detects the
    /// missing tail gracefully (it simply is not there).
    Batched,
}

impl SyncPolicy {
    /// Stable lowercase name (bench output, docs).
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::PerRecord => "per-record",
            SyncPolicy::Batched => "batched",
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `bytes` — the per-record integrity guard.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The currently-appended segment.
#[derive(Debug)]
struct ActiveSegment {
    file: File,
    path: PathBuf,
    /// File length in bytes (header + records written so far).
    len: u64,
}

/// A sealed segment kept until a checkpoint retires it.
#[derive(Debug)]
struct ClosedSegment {
    path: PathBuf,
    /// Stream position one past the segment's last record.
    end: u64,
    /// File length in bytes.
    bytes: u64,
}

/// The write-ahead journal of one serving core. Owned exclusively by
/// the ingest thread — appends, syncs and truncations all happen in
/// stream order with no locking.
#[derive(Debug)]
pub struct Journal {
    /// The checkpoint path the segment names derive from.
    ckpt_path: PathBuf,
    /// Rotation threshold: a segment reaching this size is sealed.
    segment_bytes: u64,
    sync: SyncPolicy,
    active: Option<ActiveSegment>,
    closed: Vec<ClosedSegment>,
    /// Stream position the next appended record must start at.
    next_position: u64,
    /// Unsynced bytes are sitting in the active segment (Batched only).
    unsynced: bool,
    /// When set, append/fsync durations and counts are recorded here
    /// (the owning core's metric set — see [`Journal::instrument`]).
    metrics: Option<Arc<ServeMetrics>>,
}

/// What [`Journal::recover`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// The journal, positioned to continue appending.
    pub journal: Journal,
    /// Edges above the checkpointed position, in stream order — the
    /// tail the caller must apply to make the restored run lossless.
    pub replay: Vec<Edge>,
    /// A torn or corrupt tail was detected and dropped (already logged).
    pub dropped_tail: bool,
}

/// A file next to the checkpoint at `ckpt`: `<stem>.<suffix>` in the
/// same directory (stem `checkpoint` when the path has none). Journal
/// segments, rotated checkpoints and the dead-letter file are all named
/// by this one rule.
pub(crate) fn sibling(ckpt: &Path, suffix: &str) -> PathBuf {
    let stem = ckpt
        .file_stem()
        .map_or_else(|| "checkpoint".into(), |s| s.to_string_lossy());
    ckpt.with_file_name(format!("{stem}.{suffix}"))
}

/// The siblings of `ckpt` named `<stem>.<infix><position><suffix>` for
/// a decimal position, sorted by position. Writers zero-pad positions
/// to 20 digits, so name order is position order too.
pub(crate) fn numbered_siblings(
    ckpt: &Path,
    infix: &str,
    suffix: &str,
) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let (Some(dir), Some(stem)) = (ckpt.parent(), ckpt.file_stem()) else {
        return Ok(Vec::new());
    };
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    let prefix = format!("{}.{infix}", stem.to_string_lossy());
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut found = Vec::new();
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name();
        let position = name
            .to_str()
            .and_then(|n| n.strip_prefix(&prefix)?.strip_suffix(suffix))
            .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|d| d.parse().ok());
        if let Some(position) = position {
            found.push((position, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// The segment file for records starting at `start`, next to `ckpt`.
fn segment_path(ckpt: &Path, start: u64) -> PathBuf {
    sibling(ckpt, &format!("wal.{start:020}"))
}

/// One decoded record: its start position and the byte length it
/// occupied in the segment file.
struct DecodedRecord {
    start: u64,
    edges: Vec<Edge>,
    stored_bytes: u64,
}

/// Decodes the record at `bytes[at..]`. `Ok(None)` = clean end of the
/// segment; `Err(reason)` = torn or corrupt (drop from here).
fn decode_record(bytes: &[u8], at: usize) -> Result<Option<DecodedRecord>, &'static str> {
    if at == bytes.len() {
        return Ok(None);
    }
    let rest = &bytes[at..];
    if rest.len() < RECORD_HEADER {
        return Err("torn record header");
    }
    let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    if len < PAYLOAD_PREFIX + EDGE_BYTES || !(len - PAYLOAD_PREFIX).is_multiple_of(EDGE_BYTES) {
        return Err("invalid record length");
    }
    if rest.len() - RECORD_HEADER < len {
        return Err("torn record payload");
    }
    let payload = &rest[RECORD_HEADER..RECORD_HEADER + len];
    if crc32(payload) != crc {
        return Err("record CRC mismatch");
    }
    let start = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let n = (len - PAYLOAD_PREFIX) / EDGE_BYTES;
    let mut edges = Vec::with_capacity(n);
    for i in 0..n {
        let at = PAYLOAD_PREFIX + i * EDGE_BYTES;
        let u = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        let v = u32::from_le_bytes(payload[at + 4..at + 8].try_into().unwrap());
        // A self-loop cannot have been appended; a CRC collision hiding
        // one is astronomically unlikely but must not panic recovery.
        let Some(e) = Edge::try_new(u, v) else {
            return Err("self-loop edge in record");
        };
        edges.push(e);
    }
    Ok(Some(DecodedRecord {
        start,
        edges,
        stored_bytes: (RECORD_HEADER + len) as u64,
    }))
}

impl Journal {
    /// Scans the segments next to `ckpt_path`, replays the tail above
    /// `base` (the restored checkpoint's position), and returns a
    /// journal ready to continue appending at `base + replay.len()`.
    ///
    /// Damage tolerance, in order of severity:
    ///
    /// * Segments wholly below `base` are deleted (a checkpoint made
    ///   them redundant; the kill interrupted their truncation).
    /// * Records below `base` inside surviving segments are skipped; a
    ///   record straddling `base` is partially applied.
    /// * A torn final record (short header/payload), a CRC mismatch, or
    ///   a contiguity violation cuts the journal there: the bad record
    ///   and everything after it is dropped (logged, and the files are
    ///   trimmed to the valid prefix), never fatal.
    /// * A journal whose surviving records *start* above `base` is a
    ///   gap — acked edges are missing — and **is** fatal.
    ///
    /// # Errors
    ///
    /// Filesystem errors, and a detected gap above `base` (kind
    /// [`std::io::ErrorKind::InvalidData`]).
    pub fn recover(
        ckpt_path: &Path,
        segment_bytes: u64,
        sync: SyncPolicy,
        base: u64,
    ) -> std::io::Result<Recovery> {
        let segments = numbered_siblings(ckpt_path, "wal.", "")?;
        // Only the run of segments from the last one starting at or
        // below `base` matters; older ones are fully checkpointed.
        let first_relevant = segments
            .iter()
            .rposition(|(start, _)| *start <= base)
            .unwrap_or(0);
        if let Some((start, path)) = segments.first() {
            if *start > base {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "journal gap: segment {path:?} starts at {start} but the checkpoint \
                         covers only {base} edges"
                    ),
                ));
            }
        }
        for (_, path) in &segments[..first_relevant] {
            let _ = std::fs::remove_file(path);
        }

        let mut journal = Journal {
            ckpt_path: ckpt_path.to_path_buf(),
            segment_bytes,
            sync,
            active: None,
            closed: Vec::new(),
            next_position: base,
            unsynced: false,
            metrics: None,
        };
        let mut replay: Vec<Edge> = Vec::new();
        let mut dropped_tail = false;
        // Running stream position across records; `None` before the
        // first record of the first surviving segment.
        let mut pos: Option<u64> = None;
        let mut cut = false;

        for (idx, (start, path)) in segments[first_relevant..].iter().enumerate() {
            if cut {
                // Nothing past a cut is trusted; remove it.
                let _ = std::fs::remove_file(path);
                continue;
            }
            let bytes = std::fs::read(path)?;
            let header_ok = bytes.len() >= SEGMENT_HEADER as usize
                && bytes[..4] == SEGMENT_MAGIC
                && u64::from_le_bytes(bytes[4..12].try_into().unwrap()) == *start;
            let contiguous = idx == 0 || pos == Some(*start);
            if !header_ok || !contiguous {
                eprintln!(
                    "rept-serve: journal segment {path:?} is {} — dropping it and everything after",
                    if header_ok {
                        "discontiguous"
                    } else {
                        "torn or corrupt"
                    }
                );
                let _ = std::fs::remove_file(path);
                cut = true;
                dropped_tail = true;
                continue;
            }
            let mut at = SEGMENT_HEADER as usize;
            let mut seg_pos = *start;
            let mut valid_len = at as u64;
            loop {
                match decode_record(&bytes, at) {
                    Ok(None) => break,
                    Ok(Some(rec)) => {
                        if rec.start != seg_pos {
                            eprintln!(
                                "rept-serve: journal record at {path:?}+{at} claims position \
                                 {} (expected {seg_pos}) — dropping the tail",
                                rec.start
                            );
                            cut = true;
                            dropped_tail = true;
                            break;
                        }
                        let end = rec.start + rec.edges.len() as u64;
                        if end > base {
                            let skip = base.saturating_sub(rec.start) as usize;
                            replay.extend_from_slice(&rec.edges[skip..]);
                        }
                        seg_pos = end;
                        at += rec.stored_bytes as usize;
                        valid_len = at as u64;
                    }
                    Err(reason) => {
                        eprintln!(
                            "rept-serve: journal {path:?} ends in a {reason} at byte {at} — \
                             dropping the torn tail"
                        );
                        cut = true;
                        dropped_tail = true;
                        break;
                    }
                }
            }
            pos = Some(seg_pos);
            if cut && valid_len <= SEGMENT_HEADER {
                // Nothing valid in this segment: remove it outright.
                let _ = std::fs::remove_file(path);
                pos = Some(*start);
                continue;
            }
            // The last surviving segment becomes the active one,
            // trimmed to its valid prefix; earlier ones are closed.
            journal.closed.push(ClosedSegment {
                path: path.clone(),
                end: seg_pos,
                bytes: valid_len,
            });
            if cut && valid_len < bytes.len() as u64 {
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(valid_len)?;
                file.sync_all()?;
            }
        }

        let tail = pos.unwrap_or(base);
        if tail < base {
            // Every surviving record is already inside the checkpoint
            // (e.g. a corrupt record below `base` cut the scan): the
            // journal contributes nothing — start clean to keep the
            // contiguity invariant for future appends.
            for seg in journal.closed.drain(..) {
                let _ = std::fs::remove_file(&seg.path);
            }
            journal.next_position = base;
            return Ok(Recovery {
                journal,
                replay: Vec::new(),
                dropped_tail,
            });
        }
        journal.next_position = tail;
        // Reopen the newest surviving segment for appending.
        if let Some(last) = journal.closed.pop() {
            let mut file = OpenOptions::new().write(true).open(&last.path)?;
            file.seek(SeekFrom::Start(last.bytes))?;
            journal.active = Some(ActiveSegment {
                file,
                path: last.path,
                len: last.bytes,
            });
        }
        Ok(Recovery {
            journal,
            replay,
            dropped_tail,
        })
    }

    /// Appends one batch as a single record. `start` must be the
    /// journal's next position (the run's position before the batch is
    /// applied) — the invariant that journal order equals apply order.
    ///
    /// Under [`SyncPolicy::PerRecord`] the record is fsynced before
    /// this returns; under [`SyncPolicy::Batched`] it is buffered until
    /// the next [`Self::sync`] point.
    ///
    /// # Errors
    ///
    /// Filesystem errors (the record must then be treated as not
    /// written — the caller must not ack the batch).
    pub fn append(&mut self, start: u64, edges: &[Edge]) -> std::io::Result<()> {
        self.append_inner(start, edges, false)
    }

    /// Routes append/fsync timings and counts into `metrics` from now
    /// on. Called once by [`crate::core::ServeCore::start`] when timing
    /// instrumentation is enabled; an uninstrumented journal records
    /// nothing and reads no clocks.
    pub(crate) fn instrument(&mut self, metrics: Arc<ServeMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Times an fsync of `file` and records it (duration histogram,
    /// counter, slow-op trace) when instrumented.
    fn timed_sync_data(metrics: Option<&Arc<ServeMetrics>>, file: &File) -> std::io::Result<()> {
        let Some(m) = metrics else {
            return file.sync_data();
        };
        let started = Instant::now();
        file.sync_data()?;
        let took = started.elapsed();
        m.journal_fsyncs.inc();
        m.fsync_micros.record_duration(took);
        m.trace.record("fsync", took, String::new);
        Ok(())
    }

    /// Appends one batch like [`Self::append`] but **defers the fsync**
    /// even under [`SyncPolicy::PerRecord`]: the record is buffered and
    /// covered by the next [`Self::sync`] call. This is the group-commit
    /// primitive — the ingest thread writes every member of a coalesced
    /// group with this, then issues one barrier `sync()` for all of
    /// them, so N concurrent producers share a single fsync.
    ///
    /// The caller **must not ack** any deferred batch until that
    /// `sync()` succeeds.
    ///
    /// # Errors
    ///
    /// Filesystem errors (the record must then be treated as not
    /// written).
    pub fn append_deferred(&mut self, start: u64, edges: &[Edge]) -> std::io::Result<()> {
        self.append_inner(start, edges, true)
    }

    fn append_inner(
        &mut self,
        start: u64,
        edges: &[Edge],
        defer_sync: bool,
    ) -> std::io::Result<()> {
        if start != self.next_position {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "journal append out of order: position {start}, expected {}",
                    self.next_position
                ),
            ));
        }
        if edges.is_empty() {
            return Ok(());
        }
        if self
            .active
            .as_ref()
            .is_none_or(|a| a.len >= self.segment_bytes)
        {
            self.rotate()?;
        }
        let started = self.metrics.as_ref().map(|_| Instant::now());
        let mut payload = Vec::with_capacity(PAYLOAD_PREFIX + edges.len() * EDGE_BYTES);
        payload.extend_from_slice(&start.to_le_bytes());
        for e in edges {
            payload.extend_from_slice(&e.u().to_le_bytes());
            payload.extend_from_slice(&e.v().to_le_bytes());
        }
        let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        let active = self.active.as_mut().expect("rotated above");
        active.file.write_all(&record)?;
        active.len += record.len() as u64;
        self.next_position = start + edges.len() as u64;
        if let (Some(m), Some(started)) = (&self.metrics, started) {
            m.journal_appends.inc();
            m.journal_append_micros.record_duration(started.elapsed());
        }
        match self.sync {
            SyncPolicy::PerRecord if !defer_sync => {
                Self::timed_sync_data(self.metrics.as_ref(), &active.file)?;
            }
            _ => self.unsynced = true,
        }
        Ok(())
    }

    /// Seals the active segment (if any) and opens a fresh one starting
    /// at the current position.
    fn rotate(&mut self) -> std::io::Result<()> {
        if let Some(active) = self.active.take() {
            // Seal durably: once closed, a segment is never written
            // again, so its bytes must not linger in the page cache.
            if self.unsynced {
                active.file.sync_data()?;
                self.unsynced = false;
            }
            self.closed.push(ClosedSegment {
                path: active.path,
                end: self.next_position,
                bytes: active.len,
            });
        }
        let path = segment_path(&self.ckpt_path, self.next_position);
        let mut file = File::create(&path)?;
        file.write_all(&SEGMENT_MAGIC)?;
        file.write_all(&self.next_position.to_le_bytes())?;
        self.active = Some(ActiveSegment {
            file,
            path,
            len: SEGMENT_HEADER,
        });
        Ok(())
    }

    /// Fsyncs buffered records (a no-op under
    /// [`SyncPolicy::PerRecord`], which never buffers).
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.unsynced {
            if let Some(active) = &self.active {
                Self::timed_sync_data(self.metrics.as_ref(), &active.file)?;
            }
            self.unsynced = false;
        }
        Ok(())
    }

    /// Retires everything a checkpoint at `position` made redundant:
    /// deletes sealed segments whose coverage ends at or below it, and
    /// the active segment too when every appended record is below it.
    /// Best-effort — a file that fails to delete is retried by the next
    /// truncation (and skipped by the next recovery).
    pub fn truncate_to(&mut self, position: u64) {
        self.closed.retain(|seg| {
            if seg.end <= position {
                let _ = std::fs::remove_file(&seg.path);
                false
            } else {
                true
            }
        });
        if self.next_position <= position {
            if let Some(active) = self.active.take() {
                drop(active.file);
                let _ = std::fs::remove_file(&active.path);
                self.unsynced = false;
            }
        }
    }

    /// Stream position the next appended record starts at.
    pub fn position(&self) -> u64 {
        self.next_position
    }

    /// Total journal bytes currently on disk.
    pub fn bytes(&self) -> u64 {
        self.closed.iter().map(|s| s.bytes).sum::<u64>() + self.active.as_ref().map_or(0, |a| a.len)
    }

    /// Number of live segment files.
    pub fn segments(&self) -> u64 {
        self.closed.len() as u64 + u64::from(self.active.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_ckpt(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rept-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("serve.rpck")
    }

    fn edges(range: std::ops::Range<u32>) -> Vec<Edge> {
        range.map(|i| Edge::new(i, i + 1)).collect()
    }

    fn cleanup(ckpt: &Path) {
        if let Some(dir) = ckpt.parent() {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_recover_roundtrip() {
        let ckpt = temp_ckpt("roundtrip");
        let all = edges(0..100);
        {
            let rec =
                Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 0).expect("fresh recover");
            assert!(rec.replay.is_empty());
            let mut j = rec.journal;
            let mut pos = 0u64;
            for chunk in all.chunks(13) {
                j.append(pos, chunk).expect("append");
                pos += chunk.len() as u64;
            }
            assert_eq!(j.position(), 100);
            assert!(j.bytes() > 0);
        } // drop without truncation ≙ kill
        let rec = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 0).expect("recover");
        assert!(!rec.dropped_tail);
        assert_eq!(rec.replay, all, "full tail above an empty checkpoint");
        assert_eq!(rec.journal.position(), 100);
        // A restored base mid-stream replays only the tail, even from
        // the middle of a record (27 splits the 13-edge records).
        let rec = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 27).expect("recover");
        assert_eq!(rec.replay, all[27..].to_vec());
        cleanup(&ckpt);
    }

    #[test]
    fn rotation_creates_segments_and_truncation_retires_them() {
        let ckpt = temp_ckpt("rotate");
        let all = edges(0..64);
        let mut j = Journal::recover(&ckpt, 64, SyncPolicy::PerRecord, 0)
            .expect("recover")
            .journal;
        let mut pos = 0u64;
        for chunk in all.chunks(4) {
            j.append(pos, chunk).expect("append");
            pos += chunk.len() as u64;
        }
        assert!(j.segments() > 1, "tiny threshold forces rotation");
        let before = j.bytes();
        j.truncate_to(32);
        assert!(j.bytes() < before, "sealed segments below 32 retired");
        // Recovery after truncation: only the tail above 32 remains and
        // it must still replay cleanly above a checkpoint at 32.
        drop(j);
        let rec = Journal::recover(&ckpt, 64, SyncPolicy::PerRecord, 32).expect("recover");
        assert_eq!(rec.replay, all[32..].to_vec());
        // Truncating at the head retires everything.
        let mut j = rec.journal;
        j.truncate_to(64);
        assert_eq!(j.bytes(), 0);
        assert_eq!(j.segments(), 0);
        drop(j);
        let rec = Journal::recover(&ckpt, 64, SyncPolicy::PerRecord, 64).expect("recover");
        assert!(rec.replay.is_empty());
        assert_eq!(rec.journal.position(), 64);
        cleanup(&ckpt);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let ckpt = temp_ckpt("torn");
        let all = edges(0..20);
        let mut j = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 0)
            .expect("recover")
            .journal;
        j.append(0, &all[..10]).expect("append");
        j.append(10, &all[10..]).expect("append");
        let seg = segment_path(&ckpt, 0);
        let bytes = std::fs::read(&seg).expect("read segment");
        drop(j);
        // Chop one byte off the final record: torn payload.
        std::fs::write(&seg, &bytes[..bytes.len() - 1]).expect("truncate");
        let rec = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 0).expect("recover");
        assert!(rec.dropped_tail);
        assert_eq!(rec.replay, all[..10].to_vec(), "first record survives");
        assert_eq!(rec.journal.position(), 10);
        // The journal keeps appending from the cut.
        let mut j = rec.journal;
        j.append(10, &all[10..]).expect("re-append");
        drop(j);
        let rec = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 0).expect("recover");
        assert!(!rec.dropped_tail);
        assert_eq!(rec.replay, all);
        cleanup(&ckpt);
    }

    #[test]
    fn crc_corruption_is_dropped_not_fatal() {
        let ckpt = temp_ckpt("crc");
        let all = edges(0..20);
        let mut j = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 0)
            .expect("recover")
            .journal;
        j.append(0, &all[..10]).expect("append");
        j.append(10, &all[10..]).expect("append");
        let seg = segment_path(&ckpt, 0);
        drop(j);
        let mut bytes = std::fs::read(&seg).expect("read segment");
        // Flip one payload byte of the *second* record. First record:
        // header 12 + 8 (rec header) + 8 + 80 payload.
        let second_payload = 12 + 8 + 8 + 80 + 8 + 4;
        bytes[second_payload] ^= 0xFF;
        std::fs::write(&seg, &bytes).expect("corrupt");
        let rec = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 0).expect("recover");
        assert!(rec.dropped_tail);
        assert_eq!(rec.replay, all[..10].to_vec());
        cleanup(&ckpt);
    }

    #[test]
    fn gap_above_checkpoint_is_fatal() {
        let ckpt = temp_ckpt("gap");
        let mut j = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 0)
            .expect("recover")
            .journal;
        j.append(0, &edges(0..10)).expect("append");
        drop(j);
        // Pretend the checkpoint only covers 3 edges but the segment
        // file was (externally) renamed to start at 5: edges 3..5 are
        // claimed durable yet gone.
        let seg = segment_path(&ckpt, 0);
        std::fs::rename(&seg, segment_path(&ckpt, 5)).expect("rename");
        let err = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 3).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("gap"), "{err}");
        cleanup(&ckpt);
    }

    #[test]
    fn batched_sync_survives_explicit_sync_points() {
        let ckpt = temp_ckpt("batched");
        let all = edges(0..30);
        let mut j = Journal::recover(&ckpt, 1 << 20, SyncPolicy::Batched, 0)
            .expect("recover")
            .journal;
        j.append(0, &all).expect("append");
        j.sync().expect("sync");
        drop(j);
        let rec = Journal::recover(&ckpt, 1 << 20, SyncPolicy::Batched, 0).expect("recover");
        assert_eq!(rec.replay, all);
        assert_eq!(SyncPolicy::Batched.name(), "batched");
        assert_eq!(SyncPolicy::PerRecord.name(), "per-record");
        cleanup(&ckpt);
    }

    #[test]
    fn deferred_appends_survive_once_synced() {
        let ckpt = temp_ckpt("deferred");
        let all = edges(0..30);
        let mut j = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 0)
            .expect("recover")
            .journal;
        // Group commit: members written with the fsync deferred, then
        // one barrier covers them all — even under PerRecord.
        j.append_deferred(0, &all[..10]).expect("append");
        j.append_deferred(10, &all[10..20]).expect("append");
        j.sync().expect("barrier");
        // A final non-deferred append keeps working after the barrier.
        j.append(20, &all[20..]).expect("append");
        drop(j);
        let rec = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 0).expect("recover");
        assert!(!rec.dropped_tail);
        assert_eq!(rec.replay, all, "all three records durable");
        cleanup(&ckpt);
    }

    #[test]
    fn out_of_order_append_is_refused() {
        let ckpt = temp_ckpt("order");
        let mut j = Journal::recover(&ckpt, 1 << 20, SyncPolicy::PerRecord, 0)
            .expect("recover")
            .journal;
        j.append(0, &edges(0..4)).expect("append");
        assert!(j.append(3, &edges(0..4)).is_err(), "position regression");
        assert!(j.append(9, &edges(0..4)).is_err(), "position skip");
        j.append(4, &edges(0..4)).expect("contiguous append works");
        cleanup(&ckpt);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// A journal of several small segments whose files take bit
        /// flips, truncations, splices of two segments or arbitrary
        /// bytes recovers above any base without a panic: the replay is
        /// a prefix of the edges appended past the base, and an append
        /// at `base + replay.len()` succeeds and recovers after it.
        #[test]
        fn damaged_segments_recover_a_prefix(
            chunks in proptest::collection::vec(1usize..10, 4..16),
            base in proptest::prelude::any::<u64>(),
            damage in proptest::collection::vec(
                (
                    (0u8..4, proptest::prelude::any::<usize>()),
                    (proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
                    0u8..8,
                ),
                1..4,
            ),
            junk in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
        ) {
            const SEGMENT: u64 = 64;
            static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let ckpt = temp_ckpt(&format!("damaged-{case}"));
            let total: usize = chunks.iter().sum();
            let all = edges(0..total as u32);
            let mut j = Journal::recover(&ckpt, SEGMENT, SyncPolicy::Batched, 0)
                .expect("recover")
                .journal;
            let mut at = 0;
            for n in chunks {
                j.append(at as u64, &all[at..at + n]).expect("append");
                at += n;
            }
            drop(j);
            let segments = numbered_siblings(&ckpt, "wal.", "").expect("list segments");
            proptest::prop_assert!(segments.len() >= 2, "{} segments", segments.len());
            for ((kind, pick), (cut, other), bit) in damage {
                let path = &segments[pick % segments.len()].1;
                let mut bytes = std::fs::read(path).expect("read segment");
                let cut = cut % (bytes.len() + 1);
                match kind {
                    0 => {
                        if let Some(byte) = bytes.get_mut(cut) {
                            *byte ^= 1 << bit;
                        }
                    }
                    1 => bytes.truncate(cut),
                    2 => {
                        let spliced = std::fs::read(&segments[other % segments.len()].1)
                            .expect("read segment");
                        bytes.truncate(cut);
                        bytes.extend_from_slice(&spliced[other % (spliced.len() + 1)..]);
                    }
                    _ => bytes.clone_from(&junk),
                }
                std::fs::write(path, bytes).expect("damage segment");
            }
            let base = base % (total as u64 + 1);
            let rec = Journal::recover(&ckpt, SEGMENT, SyncPolicy::Batched, base);
            let rec = rec.unwrap_or_else(|e| panic!("recovery above {base} failed: {e}"));
            let past_base = &all[base as usize..];
            proptest::prop_assert!(
                past_base.starts_with(&rec.replay),
                "replay {:?} is not a prefix of {:?}",
                rec.replay,
                past_base
            );
            let next = base + rec.replay.len() as u64;
            proptest::prop_assert_eq!(rec.journal.position(), next);
            let mut j = rec.journal;
            let extra = Edge::new(1 << 30, (1 << 30) + 1);
            proptest::prop_assert!(j.append(next, &[extra]).is_ok());
            j.sync().expect("sync");
            drop(j);
            let again = Journal::recover(&ckpt, SEGMENT, SyncPolicy::Batched, base)
                .expect("recover after the append");
            let mut want = rec.replay;
            want.push(extra);
            proptest::prop_assert_eq!(again.replay, want);
            cleanup(&ckpt);
        }
    }
}
