//! Atomic file replacement: tempfile + fsync + rename.
//!
//! A plain `fs::write` over an existing artifact can leave an arbitrary
//! byte prefix behind a crash — clobbering the previous good file with a
//! torn one. Every durable write here goes to a sibling tempfile first,
//! is fsynced, and only then renamed over the destination; POSIX rename
//! atomicity guarantees readers see either the old intact file or the new
//! intact file, never a mixture. The containing directory is fsynced
//! best-effort so the rename itself survives a power cut.

use crate::error::StorageError;
use crate::frame;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide tempfile counter; two concurrent writers of the same
/// destination must not share a temp name.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically (tempfile + fsync + rename).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    write_parts_atomic(path, &[bytes])
}

/// [`write_atomic`] of the concatenation of `parts`, one write per part.
fn write_parts_atomic(path: &Path, parts: &[&[u8]]) -> Result<(), StorageError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let stem = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    let tmp = dir.join(format!(
        ".{stem}.tmp.{}.{}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let ctx = |what: &str| format!("{what} {}", tmp.display());
    let result = (|| {
        let mut f = fs::File::create(&tmp).map_err(|e| StorageError::io(ctx("creating"), e))?;
        for part in parts {
            f.write_all(part).map_err(|e| StorageError::io(ctx("writing"), e))?;
        }
        f.sync_all().map_err(|e| StorageError::io(ctx("syncing"), e))?;
        fs::rename(&tmp, path)
            .map_err(|e| StorageError::io(format!("renaming over {}", path.display()), e))?;
        // Persist the rename itself; not all filesystems allow opening a
        // directory for sync, so failure here is not fatal.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        // Never leave the tempfile behind a failed write.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Frames `payload` (length + CRC header) and writes it atomically,
/// without copying the payload into a framed buffer.
pub fn write_framed_atomic(path: &Path, payload: &[u8]) -> Result<(), StorageError> {
    write_parts_atomic(path, &[&frame::header(payload), payload])
}

/// Reads `path` and verifies its frame, returning the payload.
pub fn read_framed(path: &Path) -> Result<Vec<u8>, StorageError> {
    let bytes = fs::read(path)
        .map_err(|e| StorageError::io(format!("reading {}", path.display()), e))?;
    match frame::decode(&bytes) {
        Ok(payload) => Ok(payload.to_vec()),
        Err(e) => Err(StorageError::Frame { path: path.display().to_string(), source: e }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = test_dir("atomic");
        let path = dir.join("artifact.bin");
        write_atomic(&path, b"generation one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"generation one");
        write_atomic(&path, b"gen2").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"gen2");
        // No temp droppings.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "tempfiles left behind: {leftovers:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn framed_roundtrip_via_disk() {
        let dir = test_dir("framed");
        let path = dir.join("blob.domd");
        write_framed_atomic(&path, b"checksummed payload").unwrap();
        assert_eq!(read_framed(&path).unwrap(), b"checksummed payload");
        // Torn write simulation: truncate the file in place.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        match read_framed(&path).unwrap_err() {
            StorageError::Frame { source: crate::FrameError::Truncated { .. }, .. } => {}
            other => panic!("expected Truncated frame error, got {other}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io() {
        let dir = test_dir("missing");
        match read_framed(&dir.join("nope.domd")).unwrap_err() {
            StorageError::Io { context, .. } => assert!(context.contains("nope.domd")),
            other => panic!("expected Io, got {other}"),
        }
        fs::remove_dir_all(&dir).ok();
    }
}
