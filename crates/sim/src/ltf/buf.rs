//! Shared immutable byte buffers backing zero-copy trace replay.
//!
//! A [`SharedBuf`] is the storage behind every
//! [`LtfTrace`](crate::ltf::LtfTrace) cursor: one refcounted, immutable
//! byte image of the trace file that all per-core streams decode from in
//! place. Opening a 64-core trace therefore costs one whole-file read,
//! not 64 seek-positioned handles, and cloning a buffer for another
//! cursor is an `Arc` bump. The image is a snapshot: rewriting the file
//! during a replay does not affect it.

use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// A cheaply cloneable, immutable heap byte buffer.
#[derive(Clone)]
pub struct SharedBuf(Arc<Vec<u8>>);

impl SharedBuf {
    /// Wraps in-memory bytes (tests, benches, in-process encoders).
    #[must_use]
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        SharedBuf(Arc::new(bytes))
    }

    /// Reads the whole file at `path` into a new buffer.
    ///
    /// # Errors
    ///
    /// Any I/O error from opening or reading the file.
    pub fn open<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        std::fs::read(path).map(Self::from_vec)
    }
}

impl Deref for SharedBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl std::fmt::Debug for SharedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBuf").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_matches_file_contents_and_clones_share() {
        let path = std::env::temp_dir().join("lacc_sharedbuf_unit.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();

        let buf = SharedBuf::open(&path).unwrap();
        assert_eq!(&*buf, &payload[..]);
        let clone = buf.clone();
        assert_eq!(clone.as_ptr(), buf.as_ptr(), "clones alias the same bytes");

        std::fs::remove_file(&path).ok();
        // The snapshot outlives the directory entry.
        assert_eq!(clone.len(), payload.len());
        assert!(format!("{buf:?}").contains("len"));
    }

    #[test]
    fn empty_files_open_as_empty_buffers() {
        let path = std::env::temp_dir().join("lacc_sharedbuf_empty.bin");
        std::fs::write(&path, b"").unwrap();
        let buf = SharedBuf::open(&path).unwrap();
        assert!(buf.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_vec_wraps_the_bytes() {
        let buf = SharedBuf::from_vec(vec![1, 2, 3]);
        assert_eq!(&*buf, &[1, 2, 3]);
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(SharedBuf::open("/nonexistent/definitely/not/here.bin").is_err());
    }
}
