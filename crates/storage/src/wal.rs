//! The maintenance write-ahead log.
//!
//! Every dynamic index mutation (insert / remove / settle / reopen of an
//! RCC, Section 4.1) is appended here *before* the in-memory apply, as an
//! epoch-stamped, CRC-framed record. Recovery replays the longest valid
//! prefix onto the newest intact checkpoint; the epoch stamps make replay
//! idempotent — a duplicated tail record (a torn rewrite) repeats an
//! epoch already applied and is rejected at the prefix boundary, and
//! records already folded into the checkpoint are skipped.
//!
//! Record layout (all integers little-endian). The payload length field
//! doubles as the record version: 33 bytes is a version-1 record (the
//! logical projection only), 58 bytes is a version-2 record (the same 33
//! bytes followed by the full RCC fields). Both versions coexist in one
//! log — replay dispatches per record — so a store written by an older
//! build keeps replaying unchanged.
//!
//! ```text
//! offset  size  field
//! 0       4     payload length (33 = record v1, 58 = record v2)
//! 4       4     CRC-32 of the payload
//! 8       8     epoch (strictly increasing by 1 per record)
//! 16      1     op (1=insert, 2=remove, 3=settle, 4=reopen)
//! 17      4     row id
//! 21      4     avail id
//! 25      8     logical start position (f64 bits)
//! 33      8     logical end position (f64 bits)
//! --- record v2 continues ---
//! 41      4     RCC id
//! 45      1     RCC type code (0=G, 1=N/NW, 2=NG)
//! 46      4     SWLIN (8 decimal digits packed, <= 99_999_999)
//! 50      4     created date (days, signed)
//! 54      4     settled date (days, signed)
//! 58      8     settled amount (f64 bits)
//! ```

use crate::crc::crc32;
use crate::error::StorageError;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Fixed payload size of a version-1 WAL record.
pub const PAYLOAD_LEN: usize = 33;

/// Full on-disk size of one version-1 record (length + CRC header +
/// payload).
pub const RECORD_LEN: usize = 8 + PAYLOAD_LEN;

/// Fixed payload size of a version-2 WAL record (v1 projection + full
/// RCC fields).
pub const PAYLOAD_LEN_V2: usize = PAYLOAD_LEN + FULL_RCC_LEN;

/// Full on-disk size of one version-2 record.
pub const RECORD_LEN_V2: usize = 8 + PAYLOAD_LEN_V2;

/// Serialized size of the [`FullRcc`] suffix a v2 record carries.
pub const FULL_RCC_LEN: usize = 25;

/// The full RCC fields a version-2 record (or checkpoint entry) carries
/// beyond the logical projection — everything needed to rebuild the row
/// into serving state without consulting the extracts. Kept as raw
/// primitives: this crate stays schema-agnostic, and the index layer
/// converts to/from its typed RCC (decoding validates the type code and
/// SWLIN range, so a CRC-valid record always converts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullRcc {
    /// RCC identifier (`RccId`).
    pub rcc_id: u32,
    /// RCC type code: 0 = Growth, 1 = New Work, 2 = New Growth.
    pub rcc_type: u8,
    /// SWLIN as 8 packed decimal digits (`<= 99_999_999`).
    pub swlin: u32,
    /// Creation date in days (signed).
    pub created: i32,
    /// Settled date in days (signed).
    pub settled: i32,
    /// Settled dollar amount (bit-preserved).
    pub amount: f64,
}

impl FullRcc {
    /// Appends the 25-byte serialized form to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.rcc_id.to_le_bytes());
        out.push(self.rcc_type);
        out.extend_from_slice(&self.swlin.to_le_bytes());
        out.extend_from_slice(&self.created.to_le_bytes());
        out.extend_from_slice(&self.settled.to_le_bytes());
        out.extend_from_slice(&self.amount.to_bits().to_le_bytes());
    }

    /// Parses 25 bytes at `bytes[at..]`, validating the type code and the
    /// SWLIN range. `None` on a short buffer or an out-of-domain field —
    /// callers treat that exactly like an undecodable op byte.
    pub fn read_from(bytes: &[u8], at: usize) -> Option<FullRcc> {
        if bytes.len() < at + FULL_RCC_LEN {
            return None;
        }
        let rcc_type = bytes[at + 4];
        let swlin = crate::bytes::le_u32(bytes, at + 5);
        if rcc_type > 2 || swlin > 99_999_999 {
            return None;
        }
        Some(FullRcc {
            rcc_id: crate::bytes::le_u32(bytes, at),
            rcc_type,
            swlin,
            created: crate::bytes::le_u32(bytes, at + 9) as i32,
            settled: crate::bytes::le_u32(bytes, at + 13) as i32,
            amount: f64::from_bits(crate::bytes::le_u64(bytes, at + 17)),
        })
    }
}

/// The mutation kinds the maintenance path produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// A new RCC entered the index.
    Insert,
    /// An RCC left the index entirely.
    Remove,
    /// An open RCC settled: its logical end moved to the settlement point.
    Settle,
    /// A settled RCC reopened: its logical end moved again.
    Reopen,
}

impl WalOp {
    fn to_byte(self) -> u8 {
        match self {
            WalOp::Insert => 1,
            WalOp::Remove => 2,
            WalOp::Settle => 3,
            WalOp::Reopen => 4,
        }
    }

    fn from_byte(b: u8) -> Option<WalOp> {
        match b {
            1 => Some(WalOp::Insert),
            2 => Some(WalOp::Remove),
            3 => Some(WalOp::Settle),
            4 => Some(WalOp::Reopen),
            _ => None,
        }
    }

    /// Short name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            WalOp::Insert => "insert",
            WalOp::Remove => "remove",
            WalOp::Settle => "settle",
            WalOp::Reopen => "reopen",
        }
    }
}

impl fmt::Display for WalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One epoch-stamped mutation record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalRecord {
    /// Index epoch this mutation produced (strictly `previous + 1`).
    pub epoch: u64,
    /// Mutation kind.
    pub op: WalOp,
    /// Dense row id of the mutated RCC.
    pub id: u32,
    /// Owning avail id.
    pub avail: u32,
    /// Logical start position (`t*_start`).
    pub start: f64,
    /// Logical end position — for settle/reopen, the *new* end.
    pub end: f64,
    /// The full RCC fields (record v2). `None` encodes as a v1 record,
    /// `Some` as a v2 record; replay reports each record's version.
    pub full: Option<FullRcc>,
}

impl WalRecord {
    /// Serializes this record (header + payload). A record without
    /// [`WalRecord::full`] serializes to the version-1 layout byte for
    /// byte, so v1 logs are exactly the logs this encoder used to write.
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = match self.full {
            None => PAYLOAD_LEN,
            Some(_) => PAYLOAD_LEN_V2,
        };
        let mut payload = Vec::with_capacity(payload_len);
        payload.extend_from_slice(&self.epoch.to_le_bytes());
        payload.push(self.op.to_byte());
        payload.extend_from_slice(&self.id.to_le_bytes());
        payload.extend_from_slice(&self.avail.to_le_bytes());
        payload.extend_from_slice(&self.start.to_bits().to_le_bytes());
        payload.extend_from_slice(&self.end.to_bits().to_le_bytes());
        if let Some(full) = &self.full {
            full.write_to(&mut payload);
        }
        let mut out = Vec::with_capacity(8 + payload_len);
        out.extend_from_slice(&(payload_len as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// On-disk size of this record, header included.
    pub fn encoded_len(&self) -> usize {
        match self.full {
            None => RECORD_LEN,
            Some(_) => RECORD_LEN_V2,
        }
    }

    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let epoch = u64::from_le_bytes(payload[0..8].try_into().ok()?);
        let op = WalOp::from_byte(payload[8])?;
        let id = u32::from_le_bytes(payload[9..13].try_into().ok()?);
        let avail = u32::from_le_bytes(payload[13..17].try_into().ok()?);
        let start = f64::from_bits(u64::from_le_bytes(payload[17..25].try_into().ok()?));
        let end = f64::from_bits(u64::from_le_bytes(payload[25..33].try_into().ok()?));
        let full = match payload.len() {
            PAYLOAD_LEN => None,
            _ => Some(FullRcc::read_from(payload, PAYLOAD_LEN)?),
        };
        Some(WalRecord { epoch, op, id, avail, start, end, full })
    }
}

/// Outcome of scanning a WAL byte stream: the longest valid, epoch-
/// contiguous prefix, and (when the tail was damaged) what stopped the
/// scan. A damaged tail is *expected* after a crash — it is reported, not
/// an error.
#[derive(Debug, Clone)]
pub struct WalReplay {
    /// Valid records with epoch beyond the checkpoint, in log order.
    pub records: Vec<WalRecord>,
    /// Records skipped because their epoch was already checkpointed.
    pub skipped: usize,
    /// Byte length of the valid prefix (re-writing the log to this length
    /// discards the damaged tail).
    pub valid_len: usize,
    /// Diagnosis of the damaged tail, when the scan stopped early.
    pub tail_fault: Option<String>,
    /// Version-1 records among [`WalReplay::records`].
    pub v1: usize,
    /// Version-2 records among [`WalReplay::records`].
    pub v2: usize,
}

/// Scans `bytes` for the longest valid WAL prefix given the epoch of the
/// checkpoint being recovered onto. Never panics on arbitrary input.
pub fn replay(bytes: &[u8], checkpoint_epoch: u64) -> WalReplay {
    let mut records = Vec::new();
    let mut skipped = 0usize;
    let mut pos = 0usize;
    let mut next_epoch = checkpoint_epoch + 1;
    let mut tail_fault = None;
    let (mut v1, mut v2) = (0usize, 0usize);
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            tail_fault = Some(format!(
                "torn record header at offset {pos}: expected 8 bytes, found {}",
                rest.len()
            ));
            break;
        }
        let len = crate::bytes::le_u32(rest, 0) as usize;
        if len != PAYLOAD_LEN && len != PAYLOAD_LEN_V2 {
            tail_fault = Some(format!(
                "bad record length at offset {pos}: expected {PAYLOAD_LEN} (v1) or \
                 {PAYLOAD_LEN_V2} (v2), found {len}"
            ));
            break;
        }
        if rest.len() < 8 + len {
            tail_fault = Some(format!(
                "torn record payload at offset {pos}: expected {len} bytes, found {}",
                rest.len() - 8
            ));
            break;
        }
        let crc = crate::bytes::le_u32(rest, 4);
        let payload = &rest[8..8 + len];
        let found = crc32(payload);
        if found != crc {
            tail_fault = Some(format!(
                "checksum mismatch at offset {pos}: header records {crc:#010x}, \
                 payload hashes to {found:#010x}"
            ));
            break;
        }
        let Some(record) = WalRecord::decode_payload(payload) else {
            tail_fault = Some(format!(
                "undecodable record at offset {pos}: bad op, RCC type, or SWLIN byte"
            ));
            break;
        };
        if record.epoch <= checkpoint_epoch && records.is_empty() {
            // Already folded into the checkpoint (a crash between
            // checkpoint write and log truncation leaves these behind).
            skipped += 1;
        } else if record.epoch == next_epoch {
            if record.full.is_some() {
                v2 += 1;
            } else {
                v1 += 1;
            }
            records.push(record);
            next_epoch += 1;
        } else {
            // A duplicate tail record repeats an applied epoch; a gap
            // means the log is from a different lineage. Either way the
            // valid prefix ends here.
            tail_fault = Some(format!(
                "non-contiguous epoch at offset {pos}: expected {next_epoch}, found {}",
                record.epoch
            ));
            break;
        }
        pos += 8 + len;
    }
    WalReplay { records, skipped, valid_len: pos, tail_fault, v1, v2 }
}

/// Record bytes accumulated in user space before one `write` syscall
/// pushes them to the OS (group commit). 32 KiB ≈ 800 records — large
/// enough that one `write` syscall serves hundreds of mutations, small
/// enough that a crash loses at most one batch (which replay's prefix
/// contract already tolerates).
const FLUSH_THRESHOLD: usize = 32 * 1024;

/// Appending writer over the WAL file with group commit: appends
/// accumulate in a user-space batch, flushed to the OS when the batch
/// fills, on [`WalWriter::sync`], and on drop. Records are durable only
/// after `sync` (fsync) — a crash can lose the unsynced tail, which
/// recovery handles as prefix truncation, but can never interleave or
/// reorder records.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: std::fs::File,
    batch: Vec<u8>,
}

impl WalWriter {
    /// Opens `path` for appending, creating it if absent.
    pub fn open(path: &Path) -> Result<WalWriter, StorageError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("opening WAL {}", path.display()), e))?;
        Ok(WalWriter {
            path: path.to_path_buf(),
            file,
            batch: Vec::with_capacity(FLUSH_THRESHOLD + RECORD_LEN),
        })
    }

    /// Appends one record (write-ahead: call before the in-memory apply).
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StorageError> {
        self.batch.extend_from_slice(&record.encode());
        if self.batch.len() >= FLUSH_THRESHOLD {
            self.flush()?;
        }
        Ok(())
    }

    /// Pushes the accumulated batch to the OS (no fsync).
    pub fn flush(&mut self) -> Result<(), StorageError> {
        if self.batch.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&self.batch)
            .map_err(|e| StorageError::io(format!("appending to WAL {}", self.path.display()), e))?;
        self.batch.clear();
        Ok(())
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.flush()?;
        self.file
            .sync_data()
            .map_err(|e| StorageError::io(format!("syncing WAL {}", self.path.display()), e))
    }

    /// The log file being appended to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WalWriter {
    /// Best-effort flush so a clean process exit never discards appended
    /// records; a crash (no drop) loses at most the current batch.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64) -> WalRecord {
        WalRecord {
            epoch,
            op: WalOp::Insert,
            id: epoch as u32,
            avail: 7,
            start: epoch as f64 * 1.5,
            end: epoch as f64 * 1.5 + 10.0,
            full: None,
        }
    }

    fn full_record(epoch: u64) -> WalRecord {
        WalRecord {
            full: Some(FullRcc {
                rcc_id: epoch as u32,
                rcc_type: (epoch % 3) as u8,
                swlin: 12_345_678,
                created: epoch as i32 * 30 - 100,
                settled: epoch as i32 * 30,
                amount: epoch as f64 * 250.25,
            }),
            ..record(epoch)
        }
    }

    fn log_of(epochs: std::ops::RangeInclusive<u64>) -> Vec<u8> {
        let mut bytes = Vec::new();
        for e in epochs {
            bytes.extend_from_slice(&record(e).encode());
        }
        bytes
    }

    #[test]
    fn clean_log_replays_fully() {
        let bytes = log_of(1..=5);
        let r = replay(&bytes, 0);
        assert_eq!(r.records.len(), 5);
        assert_eq!(r.valid_len, bytes.len());
        assert_eq!(r.skipped, 0);
        assert!(r.tail_fault.is_none());
        assert_eq!(r.records[4], record(5));
    }

    #[test]
    fn checkpointed_epochs_are_skipped() {
        let bytes = log_of(1..=6);
        let r = replay(&bytes, 4);
        assert_eq!(r.skipped, 4);
        let epochs: Vec<u64> = r.records.iter().map(|x| x.epoch).collect();
        assert_eq!(epochs, vec![5, 6]);
        assert!(r.tail_fault.is_none());
    }

    #[test]
    fn every_truncation_lands_on_a_record_boundary_prefix() {
        let bytes = log_of(1..=4);
        for cut in 0..bytes.len() {
            let r = replay(&bytes[..cut], 0);
            assert_eq!(r.valid_len, (cut / RECORD_LEN) * RECORD_LEN, "cut {cut}");
            assert_eq!(r.records.len(), cut / RECORD_LEN, "cut {cut}");
            if cut % RECORD_LEN != 0 {
                assert!(r.tail_fault.is_some(), "cut {cut} reported no tail fault");
            }
        }
    }

    #[test]
    fn bit_flips_stop_the_scan_at_the_damaged_record() {
        let bytes = log_of(1..=4);
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            let r = replay(&bad, 0);
            // The damaged record (and everything after it) is excluded;
            // records before it replay normally.
            assert!(r.records.len() <= byte / RECORD_LEN + 1, "flip at {byte}");
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec.epoch, i as u64 + 1, "flip at {byte} corrupted the prefix");
            }
        }
    }

    #[test]
    fn duplicate_tail_record_is_rejected() {
        let mut bytes = log_of(1..=3);
        let tail = bytes[bytes.len() - RECORD_LEN..].to_vec();
        bytes.extend_from_slice(&tail);
        let r = replay(&bytes, 0);
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.valid_len, 3 * RECORD_LEN);
        let fault = r.tail_fault.expect("duplicate tail must be diagnosed");
        assert!(fault.contains("expected 4, found 3"), "{fault}");
    }

    #[test]
    fn record_roundtrip_preserves_f64_bits() {
        let r = WalRecord {
            epoch: 42,
            op: WalOp::Settle,
            id: 9,
            avail: 3,
            start: -0.0,
            end: f64::MIN_POSITIVE,
            full: None,
        };
        let bytes = r.encode();
        let back = WalRecord::decode_payload(&bytes[8..]).unwrap();
        assert_eq!(back.epoch, 42);
        assert_eq!(back.op, WalOp::Settle);
        assert_eq!(back.start.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.end.to_bits(), f64::MIN_POSITIVE.to_bits());
    }

    #[test]
    fn writer_appends_replayable_records() {
        let dir = crate::test_dir("wal-writer");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        for e in 1..=3 {
            w.append(&record(e)).unwrap();
        }
        w.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let r = replay(&bytes, 0);
        assert_eq!(r.records.len(), 3);
        // Re-open appends after the existing tail.
        let mut w2 = WalWriter::open(&path).unwrap();
        w2.append(&record(4)).unwrap();
        w2.sync().unwrap();
        let r = replay(&std::fs::read(&path).unwrap(), 0);
        assert_eq!(r.records.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_batch_until_flush_and_drop_flushes() {
        let dir = crate::test_dir("wal-batch");
        let path = dir.join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&record(1)).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "append is batched");
        w.flush().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), RECORD_LEN as u64);
        w.append(&record(2)).unwrap();
        drop(w);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            2 * RECORD_LEN as u64,
            "drop flushes the tail batch"
        );
        // A full batch flushes without an explicit call.
        let mut w = WalWriter::open(&path).unwrap();
        let records_per_batch = FLUSH_THRESHOLD.div_ceil(RECORD_LEN);
        for e in 3..3 + records_per_batch as u64 {
            w.append(&record(e)).unwrap();
        }
        assert!(
            std::fs::metadata(&path).unwrap().len() >= FLUSH_THRESHOLD as u64,
            "filling the batch forces a write"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_encoding_is_unchanged_by_the_v2_extension() {
        let bytes = record(3).encode();
        assert_eq!(bytes.len(), RECORD_LEN);
        assert_eq!(crate::bytes::le_u32(&bytes, 0) as usize, PAYLOAD_LEN);
    }

    #[test]
    fn v2_record_roundtrips_every_field_bit_exactly() {
        let full = FullRcc {
            rcc_id: u32::MAX - 3,
            rcc_type: 2,
            swlin: 99_999_999,
            created: -7,
            settled: i32::MAX,
            amount: -0.0,
        };
        let r = WalRecord { full: Some(full), ..record(9) };
        let bytes = r.encode();
        assert_eq!(bytes.len(), RECORD_LEN_V2);
        assert_eq!(r.encoded_len(), RECORD_LEN_V2);
        let back = WalRecord::decode_payload(&bytes[8..]).unwrap();
        let got = back.full.expect("full payload survives the roundtrip");
        assert_eq!(got.rcc_id, full.rcc_id);
        assert_eq!(got.rcc_type, full.rcc_type);
        assert_eq!(got.swlin, full.swlin);
        assert_eq!(got.created, full.created);
        assert_eq!(got.settled, full.settled);
        assert_eq!(got.amount.to_bits(), full.amount.to_bits());
        assert_eq!(back.start.to_bits(), r.start.to_bits());
    }

    #[test]
    fn mixed_version_log_replays_and_counts_each_version() {
        let mut bytes = Vec::new();
        let mut lens = Vec::new();
        for e in 1..=6u64 {
            let rec = if e % 2 == 0 { full_record(e) } else { record(e) };
            lens.push(rec.encoded_len());
            bytes.extend_from_slice(&rec.encode());
        }
        let r = replay(&bytes, 0);
        assert_eq!(r.records.len(), 6);
        assert_eq!(r.v1, 3);
        assert_eq!(r.v2, 3);
        assert!(r.tail_fault.is_none());
        assert_eq!(r.records[1], full_record(2));
        // Every truncation point still yields a record-boundary prefix.
        let mut boundaries = vec![0usize];
        for len in &lens {
            boundaries.push(boundaries.last().unwrap() + len);
        }
        for cut in 0..bytes.len() {
            let r = replay(&bytes[..cut], 0);
            let whole = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(r.valid_len, boundaries[whole], "cut {cut}");
            assert_eq!(r.records.len(), whole, "cut {cut}");
        }
        // Bit flips stop the scan without corrupting the prefix.
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            let r = replay(&bad, 0);
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec.epoch, i as u64 + 1, "flip at {byte} corrupted the prefix");
            }
        }
    }

    #[test]
    fn invalid_full_fields_are_rejected_at_the_damaged_record() {
        for (mutate, what) in [
            ((PAYLOAD_LEN + 4, 0x7fu8), "type code above 2"),
            ((PAYLOAD_LEN + 8, 0x7f), "SWLIN above the packed ceiling"),
        ] {
            let mut bytes = full_record(1).encode();
            let (at, or) = mutate;
            bytes[8 + at] |= or;
            // Fix the checksum so only field validation can reject it.
            let crc = crc32(&bytes[8..]);
            bytes[4..8].copy_from_slice(&crc.to_le_bytes());
            let r = replay(&bytes, 0);
            assert!(r.records.is_empty(), "{what} must not replay");
            let fault = r.tail_fault.expect("rejection must be diagnosed");
            assert!(fault.contains("undecodable record"), "{what}: {fault}");
        }
    }
}
