//! Checksummed arena checkpoints and the store directory layout.
//!
//! A checkpoint is the periodic compaction of the maintenance WAL: the
//! full set of `(id, avail, start, end)` index entries at one epoch,
//! serialized to a fixed binary layout and wrapped in the checksummed
//! frame. The store directory holds the rolling checkpoint generations
//! plus the live WAL:
//!
//! ```text
//! store/
//!   checkpoint.<epoch, zero-padded>.ckpt   (newest two generations kept)
//!   checkpoint.<epoch>.ckpt.damaged        (quarantined by recovery)
//!   wal.log
//!   wal.<n>.damaged                        (discarded tails, kept by recovery)
//! ```
//!
//! Recovery walks the generations newest-first and takes the first one
//! whose frame and payload verify — a crash mid-checkpoint can only tear
//! the tempfile or the newest generation, never the previous good one.
//! Generations that fail verification are renamed out of the `.ckpt`
//! namespace (quarantined, not deleted): a damaged file must neither
//! count toward [`KEPT_GENERATIONS`] at the next pruning — which would
//! silently evict the good older generation — nor be re-parsed first by
//! every future recovery.
//!
//! Checkpoint payload layout (inside the frame, little-endian). The
//! version field selects the entry layout: version 1 (24-byte entries,
//! logical projection only) is still decoded so pre-v2 stores recover
//! unchanged; the encoder always writes version 2, whose 50-byte entries
//! append a full-RCC presence byte plus the [`FullRcc`] fields (zeroed
//! when absent, so equal states still produce identical bytes):
//!
//! ```text
//! offset  size  field
//! 0       16    tag b"domd-checkpoint\0"
//! 16      4     checkpoint payload version (1 or 2)
//! 20      8     epoch
//! 28      8     entry count n
//! 36      Ln    entries (L = 24 at version 1, 50 at version 2):
//!               id u32, avail u32, start f64 bits, end f64 bits
//!               [v2] has_full u8 (0 or 1), FullRcc 25 bytes (zeroed
//!               when has_full = 0)
//! ```

use crate::atomic::{read_framed, write_framed_atomic};
use crate::error::StorageError;
use crate::wal::{FullRcc, FULL_RCC_LEN};
use std::path::{Path, PathBuf};

/// Tag opening every checkpoint payload.
pub const CHECKPOINT_TAG: [u8; 16] = *b"domd-checkpoint\0";

/// Checkpoint payload layout version the encoder writes.
pub const CHECKPOINT_VERSION: u32 = 2;

/// The pre-full-row layout version the decoder still accepts.
pub const CHECKPOINT_VERSION_V1: u32 = 1;

/// Bytes per serialized version-1 entry.
const ENTRY_LEN: usize = 24;

/// Bytes per serialized version-2 entry.
const ENTRY_LEN_V2: usize = ENTRY_LEN + 1 + FULL_RCC_LEN;

/// Checkpoint generations kept on disk (newest N).
pub const KEPT_GENERATIONS: usize = 2;

/// One index entry as persisted: the logical projection of an RCC, plus
/// (at checkpoint version 2) the optional full RCC fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointEntry {
    /// Dense row id.
    pub id: u32,
    /// Owning avail id.
    pub avail: u32,
    /// Logical start position.
    pub start: f64,
    /// Logical end position.
    pub end: f64,
    /// Full RCC fields, when the row was written by a full-row (v2)
    /// mutation. Absent for rows that only ever saw v1 records.
    pub full: Option<FullRcc>,
}

/// A decoded checkpoint: every live entry at `epoch`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Payload layout version the bytes carried.
    pub version: u32,
    /// Index epoch the entries reflect.
    pub epoch: u64,
    /// Live entries, ascending by id (the decoder enforces this).
    pub entries: Vec<CheckpointEntry>,
}

impl Checkpoint {
    /// Serializes `entries` at `epoch` to the version-2 payload layout
    /// (absent full fields zero-filled, so equal states produce identical
    /// bytes). An id that does not ascend is [`StorageError::Malformed`].
    pub fn encode(
        epoch: u64,
        entries: impl ExactSizeIterator<Item = CheckpointEntry>,
        path: &str,
    ) -> Result<Vec<u8>, StorageError> {
        let mut out = Vec::with_capacity(36 + entries.len() * ENTRY_LEN_V2);
        out.extend_from_slice(&CHECKPOINT_TAG);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        let mut prev_id: Option<u32> = None;
        for e in entries {
            if let Some(p) = prev_id.filter(|&p| e.id <= p) {
                let message = format!("entry ids must ascend: expected > {p}, found {}", e.id);
                return Err(StorageError::malformed(path, out.len() as u64, message));
            }
            prev_id = Some(e.id);
            out.extend_from_slice(&e.id.to_le_bytes());
            out.extend_from_slice(&e.avail.to_le_bytes());
            out.extend_from_slice(&e.start.to_bits().to_le_bytes());
            out.extend_from_slice(&e.end.to_bits().to_le_bytes());
            match &e.full {
                Some(full) => {
                    out.push(1);
                    full.write_to(&mut out);
                }
                None => {
                    out.push(0);
                    out.extend_from_slice(&[0u8; FULL_RCC_LEN]);
                }
            }
        }
        Ok(out)
    }

    /// Parses a payload; `path` names the file in errors. Never panics on
    /// arbitrary input.
    pub fn decode(payload: &[u8], path: &str) -> Result<Checkpoint, StorageError> {
        let need = |offset: usize, n: usize| -> Result<(), StorageError> {
            if payload.len() < offset + n {
                return Err(StorageError::malformed(
                    path,
                    offset as u64,
                    format!(
                        "expected {n} bytes, found {}",
                        payload.len().saturating_sub(offset)
                    ),
                ));
            }
            Ok(())
        };
        need(0, 36)?;
        if payload[0..16] != CHECKPOINT_TAG {
            return Err(StorageError::malformed(
                path,
                0,
                format!("expected tag {CHECKPOINT_TAG:?}, found {:?}", &payload[0..16]),
            ));
        }
        let version = crate::bytes::le_u32(payload, 16);
        let entry_len = match version {
            CHECKPOINT_VERSION_V1 => ENTRY_LEN,
            CHECKPOINT_VERSION => ENTRY_LEN_V2,
            _ => {
                return Err(StorageError::malformed(
                    path,
                    16,
                    format!(
                        "expected checkpoint version {CHECKPOINT_VERSION_V1} or \
                         {CHECKPOINT_VERSION}, found {version}"
                    ),
                ))
            }
        };
        let epoch = crate::bytes::le_u64(payload, 20);
        let n = crate::bytes::le_u64(payload, 28);
        let n_usize = usize::try_from(n).map_err(|_| {
            StorageError::malformed(path, 28, format!("impossible entry count {n}"))
        })?;
        let declared = n_usize
            .checked_mul(entry_len)
            .ok_or_else(|| StorageError::malformed(path, 28, format!("impossible entry count {n}")))?;
        if payload.len() - 36 != declared {
            return Err(StorageError::malformed(
                path,
                36,
                format!("expected {declared} entry bytes for {n} entries, found {}", payload.len() - 36),
            ));
        }
        let mut entries = Vec::with_capacity(n_usize);
        let mut prev_id: Option<u32> = None;
        for i in 0..n_usize {
            let at = 36 + i * entry_len;
            let id = crate::bytes::le_u32(payload, at);
            let avail = crate::bytes::le_u32(payload, at + 4);
            let start = f64::from_bits(crate::bytes::le_u64(payload, at + 8));
            let end = f64::from_bits(crate::bytes::le_u64(payload, at + 16));
            let full = if version == CHECKPOINT_VERSION_V1 {
                None
            } else {
                match payload[at + ENTRY_LEN] {
                    0 => None,
                    1 => Some(FullRcc::read_from(payload, at + ENTRY_LEN + 1).ok_or_else(
                        || {
                            StorageError::malformed(
                                path,
                                (at + ENTRY_LEN + 1) as u64,
                                "full-RCC fields out of domain (type code or SWLIN)"
                                    .to_string(),
                            )
                        },
                    )?),
                    b => {
                        return Err(StorageError::malformed(
                            path,
                            (at + ENTRY_LEN) as u64,
                            format!("expected full-RCC presence byte 0 or 1, found {b}"),
                        ))
                    }
                }
            };
            if let Some(p) = prev_id {
                if id <= p {
                    return Err(StorageError::malformed(
                        path,
                        at as u64,
                        format!("entry ids must ascend: expected > {p}, found {id}"),
                    ));
                }
            }
            prev_id = Some(id);
            entries.push(CheckpointEntry { id, avail, start, end, full });
        }
        Ok(Checkpoint { version, epoch, entries })
    }
}

/// The store directory: rolling checkpoints plus the live WAL.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
}

/// What [`Store::newest_intact_checkpoint`] recovered, with forensics on
/// the generations it had to skip.
#[derive(Debug)]
pub struct RecoveredCheckpoint {
    /// The first (newest) checkpoint that verified.
    pub checkpoint: Checkpoint,
    /// Its file path.
    pub path: PathBuf,
    /// Candidate generations examined, newest first.
    pub tried: usize,
    /// Diagnoses of the generations that failed verification (each is
    /// quarantined to a `.damaged` sibling, noted in its diagnosis).
    pub damaged: Vec<String>,
}

impl Store {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: &Path) -> Result<Store, StorageError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| StorageError::io(format!("creating store {}", dir.display()), e))?;
        Ok(Store { dir: dir.to_path_buf() })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the live WAL.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    /// Path of the checkpoint at `epoch` (zero-padded so lexicographic
    /// order is numeric order).
    pub fn checkpoint_path(&self, epoch: u64) -> PathBuf {
        self.dir.join(format!("checkpoint.{epoch:020}.ckpt"))
    }

    /// True when the store holds at least one checkpoint file (intact or
    /// not) — i.e. it has been initialized.
    pub fn is_initialized(&self) -> Result<bool, StorageError> {
        Ok(!self.checkpoint_files()?.is_empty())
    }

    /// Checkpoint files present, newest (highest epoch) first. Quarantined
    /// `.damaged` siblings are not checkpoints and are excluded.
    fn checkpoint_files(&self) -> Result<Vec<PathBuf>, StorageError> {
        self.files_where(|n| n.starts_with("checkpoint.") && n.ends_with(".ckpt"))
    }

    /// Files under the store whose name passes `keep`, sorted newest
    /// (lexicographically last) first.
    fn files_where(&self, keep: impl Fn(&str) -> bool) -> Result<Vec<PathBuf>, StorageError> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .map_err(|e| StorageError::io(format!("listing store {}", self.dir.display()), e))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.file_name().map(|n| keep(&n.to_string_lossy())).unwrap_or(false))
            .collect();
        files.sort();
        files.reverse();
        Ok(files)
    }

    /// Writes the checkpoint of `entries` (ascending by id, else refused
    /// before any write) at `epoch` atomically and prunes generations
    /// beyond [`KEPT_GENERATIONS`] — intact and quarantined alike, so
    /// forensic `.damaged` copies stay bounded too. Returns its path.
    pub fn write_checkpoint(
        &self,
        epoch: u64,
        entries: impl ExactSizeIterator<Item = CheckpointEntry>,
    ) -> Result<PathBuf, StorageError> {
        let path = self.checkpoint_path(epoch);
        let payload = Checkpoint::encode(epoch, entries, &path.display().to_string())?;
        write_framed_atomic(&path, &payload)?;
        for old in self.checkpoint_files()?.into_iter().skip(KEPT_GENERATIONS) {
            let _ = std::fs::remove_file(old);
        }
        let quarantined = self
            .files_where(|n| n.starts_with("checkpoint.") && n.ends_with(".ckpt.damaged"))?;
        for old in quarantined.into_iter().skip(KEPT_GENERATIONS) {
            let _ = std::fs::remove_file(old);
        }
        Ok(path)
    }

    /// Finds the newest checkpoint whose frame and payload both verify.
    ///
    /// Generations that fail verification are quarantined: renamed to a
    /// `.damaged` sibling so they stop counting toward
    /// [`KEPT_GENERATIONS`] (pruning would otherwise evict the good older
    /// generation in their favor) and are not re-parsed by later
    /// recoveries, while the bytes survive for forensics.
    pub fn newest_intact_checkpoint(&self) -> Result<RecoveredCheckpoint, StorageError> {
        let files = self.checkpoint_files()?;
        let tried = files.len();
        let mut damaged = Vec::new();
        for path in files {
            let name = path.display().to_string();
            match read_framed(&path).and_then(|payload| Checkpoint::decode(&payload, &name)) {
                Ok(checkpoint) => {
                    return Ok(RecoveredCheckpoint { checkpoint, path, tried, damaged })
                }
                Err(e @ (StorageError::Frame { .. } | StorageError::Malformed { .. })) => {
                    let mut quarantine = path.clone().into_os_string();
                    quarantine.push(".damaged");
                    let quarantine = PathBuf::from(quarantine);
                    damaged.push(match std::fs::rename(&path, &quarantine) {
                        Ok(()) => format!("{e} (quarantined to {})", quarantine.display()),
                        Err(re) => format!("{e} (quarantine rename failed: {re})"),
                    });
                }
                Err(e) => return Err(e),
            }
        }
        Err(StorageError::NoCheckpoint { dir: self.dir.display().to_string(), tried })
    }

    /// Reads the raw WAL bytes (empty when the log does not exist yet).
    pub fn read_wal(&self) -> Result<Vec<u8>, StorageError> {
        match std::fs::read(self.wal_path()) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => {
                Err(StorageError::io(format!("reading WAL {}", self.wal_path().display()), e))
            }
        }
    }

    /// Atomically rewrites the WAL to exactly `bytes` (used to discard a
    /// damaged tail after recovery, or to truncate after a checkpoint).
    pub fn rewrite_wal(&self, bytes: &[u8]) -> Result<(), StorageError> {
        crate::atomic::write_atomic(&self.wal_path(), bytes)
    }

    /// Preserves a WAL tail that recovery is about to discard: writes it
    /// to the first free `wal.<n>.damaged` slot and returns that path.
    /// The discarded bytes may be the only remaining evidence of
    /// fsync-acknowledged mutations (e.g. records stranded beyond a
    /// fallen-back checkpoint generation), so they are quarantined, never
    /// destroyed.
    pub fn quarantine_wal_tail(&self, tail: &[u8]) -> Result<PathBuf, StorageError> {
        let Some(path) = (0..=u32::MAX)
            .map(|n| self.dir.join(format!("wal.{n}.damaged")))
            .find(|p| !p.exists())
        else {
            return Err(StorageError::io(
                format!("quarantining WAL tail in {}", self.dir.display()),
                std::io::Error::other("all 2^32 wal.<n>.damaged slots are occupied"),
            ));
        };
        crate::atomic::write_atomic(&path, tail)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    fn entries(n: u32) -> Vec<CheckpointEntry> {
        (0..n)
            .map(|i| CheckpointEntry {
                id: i,
                avail: i % 5,
                start: f64::from(i) * 0.5,
                end: f64::from(i) * 0.5 + 3.0,
                full: (i % 2 == 0).then_some(FullRcc {
                    rcc_id: i,
                    rcc_type: (i % 3) as u8,
                    swlin: 10_000_000 + i,
                    created: i as i32 - 4,
                    settled: i as i32 + 90,
                    amount: f64::from(i) * 12.75,
                }),
            })
            .collect()
    }

    fn encode(epoch: u64, entries: Vec<CheckpointEntry>) -> Vec<u8> {
        Checkpoint::encode(epoch, entries.into_iter(), "t").unwrap()
    }

    #[test]
    fn payload_roundtrip() {
        let payload = encode(17, entries(40));
        let back = Checkpoint::decode(&payload, "test").unwrap();
        assert_eq!(
            back,
            Checkpoint { version: CHECKPOINT_VERSION, epoch: 17, entries: entries(40) }
        );
        let full = back.entries[0].full.expect("even rows carry full fields");
        assert_eq!(full.amount.to_bits(), 0.0f64.to_bits());
        assert!(back.entries[1].full.is_none(), "odd rows stay projection-only");
    }

    #[test]
    fn version_1_payloads_still_decode() {
        // Hand-build a v1 payload exactly as the pre-v2 encoder wrote it.
        let rows = entries(6);
        let mut payload = Vec::new();
        payload.extend_from_slice(&CHECKPOINT_TAG);
        payload.extend_from_slice(&CHECKPOINT_VERSION_V1.to_le_bytes());
        payload.extend_from_slice(&11u64.to_le_bytes());
        payload.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        for e in &rows {
            payload.extend_from_slice(&e.id.to_le_bytes());
            payload.extend_from_slice(&e.avail.to_le_bytes());
            payload.extend_from_slice(&e.start.to_bits().to_le_bytes());
            payload.extend_from_slice(&e.end.to_bits().to_le_bytes());
        }
        let back = Checkpoint::decode(&payload, "v1").unwrap();
        assert_eq!(back.version, CHECKPOINT_VERSION_V1);
        assert_eq!(back.epoch, 11);
        assert_eq!(back.entries.len(), rows.len());
        for (got, want) in back.entries.iter().zip(&rows) {
            assert_eq!((got.id, got.avail), (want.id, want.avail));
            assert_eq!(got.start.to_bits(), want.start.to_bits());
            assert_eq!(got.end.to_bits(), want.end.to_bits());
            assert!(got.full.is_none(), "v1 entries carry no full fields");
        }
    }

    #[test]
    fn write_checkpoint_writes_the_documented_v2_frame() {
        // Hand-build a framed v2 checkpoint field by field, from the
        // layouts in this module's and frame.rs's docs.
        let rows = entries(5);
        let mut payload = Vec::new();
        payload.extend_from_slice(b"domd-checkpoint\0");
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&23u64.to_le_bytes());
        payload.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        for e in &rows {
            payload.extend_from_slice(&e.id.to_le_bytes());
            payload.extend_from_slice(&e.avail.to_le_bytes());
            payload.extend_from_slice(&e.start.to_bits().to_le_bytes());
            payload.extend_from_slice(&e.end.to_bits().to_le_bytes());
            match &e.full {
                Some(f) => {
                    payload.push(1);
                    payload.extend_from_slice(&f.rcc_id.to_le_bytes());
                    payload.push(f.rcc_type);
                    payload.extend_from_slice(&f.swlin.to_le_bytes());
                    payload.extend_from_slice(&f.created.to_le_bytes());
                    payload.extend_from_slice(&f.settled.to_le_bytes());
                    payload.extend_from_slice(&f.amount.to_bits().to_le_bytes());
                }
                None => payload.extend_from_slice(&[0u8; 26]),
            }
        }
        let mut want = Vec::new();
        want.extend_from_slice(b"DOMDFRM\0");
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        want.extend_from_slice(&crate::crc32(&payload).to_le_bytes());
        want.extend_from_slice(&payload);
        assert_eq!(want.len(), 24 + 36 + 5 * 50);

        let dir = test_dir("golden");
        let store = Store::open(&dir).unwrap();
        let path = store.write_checkpoint(23, rows.into_iter()).unwrap();
        assert_eq!(path, store.checkpoint_path(23));
        assert_eq!(std::fs::read(&path).unwrap(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_ascending_entries_are_refused_before_any_write() {
        let dir = test_dir("non-ascending");
        let store = Store::open(&dir).unwrap();
        let mut swapped = entries(6);
        swapped.swap(2, 3);
        let mut repeated = entries(4);
        repeated[3].id = 2;
        for (epoch, rows) in [(4u64, swapped), (5, repeated)] {
            match store.write_checkpoint(epoch, rows.into_iter()) {
                Err(e @ StorageError::Malformed { .. }) => {
                    assert!(e.to_string().contains("must ascend"), "{e}")
                }
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "a refused checkpoint leaves no file behind: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_presence_byte_and_out_of_domain_full_fields_are_typed_errors() {
        let payload = encode(5, entries(3));
        let mut bad = payload.clone();
        bad[36 + ENTRY_LEN] = 9; // first entry's presence byte
        match Checkpoint::decode(&bad, "t") {
            Err(StorageError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        let mut bad = payload.clone();
        bad[36 + ENTRY_LEN + 1 + 4] = 9; // first entry's RCC type code
        match Checkpoint::decode(&bad, "t") {
            Err(StorageError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn truncated_or_flipped_payloads_are_typed_errors() {
        let payload = encode(3, entries(10));
        for cut in 0..payload.len() {
            match Checkpoint::decode(&payload[..cut], "t") {
                Err(StorageError::Malformed { .. }) => {}
                other => panic!("cut {cut}: expected Malformed, got {other:?}"),
            }
        }
        // A bit-flip in the id column breaks the ascending-id invariant
        // (the frame CRC catches flips before this layer in production).
        let mut bad = payload.clone();
        bad[36] ^= 0xFF;
        assert!(Checkpoint::decode(&bad, "t").is_err());
    }

    #[test]
    fn store_keeps_newest_two_generations() {
        let dir = test_dir("store-gens");
        let store = Store::open(&dir).unwrap();
        assert!(!store.is_initialized().unwrap());
        for epoch in [1u64, 5, 9] {
            store.write_checkpoint(epoch, entries(4).into_iter()).unwrap();
        }
        assert!(store.is_initialized().unwrap());
        assert!(!store.checkpoint_path(1).exists(), "oldest generation must be pruned");
        assert!(store.checkpoint_path(5).exists());
        assert!(store.checkpoint_path(9).exists());
        let r = store.newest_intact_checkpoint().unwrap();
        assert_eq!(r.checkpoint.epoch, 9);
        assert!(r.damaged.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_falls_back_to_previous_generation() {
        let dir = test_dir("store-fallback");
        let store = Store::open(&dir).unwrap();
        store.write_checkpoint(2, entries(6).into_iter()).unwrap();
        store.write_checkpoint(8, entries(9).into_iter()).unwrap();
        // Tear the newest generation mid-file.
        let newest = store.checkpoint_path(8);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let r = store.newest_intact_checkpoint().unwrap();
        assert_eq!(r.checkpoint.epoch, 2);
        assert_eq!(r.tried, 2);
        assert_eq!(r.damaged.len(), 1);
        assert!(r.damaged[0].contains("truncated"), "{}", r.damaged[0]);
        // The damaged generation was quarantined out of the checkpoint
        // namespace, bytes intact for forensics.
        assert!(!newest.exists(), "damaged generation must leave the .ckpt namespace");
        let quarantined = PathBuf::from(format!("{}.damaged", newest.display()));
        assert!(quarantined.exists(), "damaged bytes must survive quarantine");
        assert_eq!(std::fs::read(&quarantined).unwrap().len(), bytes.len() / 2);
        // The last generation damaged too -> typed NoCheckpoint (only one
        // candidate left, the torn one no longer counts).
        let prev = store.checkpoint_path(2);
        std::fs::write(&prev, b"garbage").unwrap();
        match store.newest_intact_checkpoint() {
            Err(StorageError::NoCheckpoint { tried: 1, .. }) => {}
            other => panic!("expected NoCheckpoint, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantined_generation_does_not_consume_a_kept_slot() {
        let dir = test_dir("store-quarantine-slot");
        let store = Store::open(&dir).unwrap();
        store.write_checkpoint(3, entries(5).into_iter()).unwrap();
        store.write_checkpoint(7, entries(8).into_iter()).unwrap();
        // Damage the newest generation and recover: it gets quarantined.
        let newest = store.checkpoint_path(7);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() - 9]).unwrap();
        assert_eq!(store.newest_intact_checkpoint().unwrap().checkpoint.epoch, 3);
        // The next checkpoint write must keep the good epoch-3 generation
        // (before quarantine, the damaged epoch-7 file counted toward
        // KEPT_GENERATIONS and the good generation was pruned instead).
        store.write_checkpoint(12, entries(9).into_iter()).unwrap();
        assert!(store.checkpoint_path(3).exists(), "good generation was pruned");
        assert!(store.checkpoint_path(12).exists());
        let r = store.newest_intact_checkpoint().unwrap();
        assert_eq!(r.checkpoint.epoch, 12);
        assert!(r.damaged.is_empty(), "quarantined file must not be re-parsed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_tail_quarantine_uses_fresh_slots() {
        let dir = test_dir("store-wal-quarantine");
        let store = Store::open(&dir).unwrap();
        let p0 = store.quarantine_wal_tail(b"first tail").unwrap();
        let p1 = store.quarantine_wal_tail(b"second tail").unwrap();
        assert_ne!(p0, p1, "each quarantine gets its own slot");
        assert_eq!(std::fs::read(&p0).unwrap(), b"first tail");
        assert_eq!(std::fs::read(&p1).unwrap(), b"second tail");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_read_and_rewrite() {
        let dir = test_dir("store-wal");
        let store = Store::open(&dir).unwrap();
        assert!(store.read_wal().unwrap().is_empty(), "missing WAL reads as empty");
        store.rewrite_wal(b"abc").unwrap();
        assert_eq!(store.read_wal().unwrap(), b"abc");
        store.rewrite_wal(b"").unwrap();
        assert!(store.read_wal().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
