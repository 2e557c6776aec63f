//! Segment files: the on-disk unit of the append-only log.
//!
//! Layout:
//!
//! ```text
//! segment := MAGIC (8 bytes) record*
//! record  := len:u32le  payload[len]  crc32(payload):u32le
//! ```
//!
//! The payload starts with the codec version byte (see [`crate::codec`]).
//! Appends go through a [`SegmentWriter`] that flushes the full frame per
//! record, so after a crash the file is a valid prefix plus at most one
//! torn frame. [`SegmentReader::scan`] validates every frame and reports
//! where the valid prefix ends so the store can truncate the tail on open.
//! Indexed reads go through a [`FrameWindow`], which serves neighbouring
//! frames from one bounded positioned read and checks each like the scan.
//!
//! Every file operation goes through a [`StoreIo`] handle so the fault
//! injector ([`crate::FaultIo`]) can tear or fail any of them; production
//! passes [`crate::RealIo`](crate::RealIo).

use crate::codec::MAX_RECORD_BYTES;
use crate::crc::crc32;
use crate::io::{StoreFile, StoreIo};
use std::path::{Path, PathBuf};

/// First 8 bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"profseg1";

/// Bytes of framing around a payload (length word + CRC word).
pub const RECORD_HEADER_BYTES: u64 = 8;

/// One record located inside a segment.
#[derive(Debug, Clone)]
pub struct RawRecord {
    /// Byte offset of the frame (the length word) within the file.
    pub offset: u64,
    /// Decoded payload bytes.
    pub payload: Vec<u8>,
}

/// Why a scan stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailDefect {
    /// Fewer bytes than a complete frame (torn length word or payload).
    TornFrame,
    /// Frame complete but the CRC does not match the payload.
    CrcMismatch,
    /// The length word is implausible (beyond [`MAX_RECORD_BYTES`]).
    BadLength(u64),
}

impl std::fmt::Display for TailDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailDefect::TornFrame => write!(f, "torn frame"),
            TailDefect::CrcMismatch => write!(f, "crc mismatch"),
            TailDefect::BadLength(n) => write!(f, "implausible record length {n}"),
        }
    }
}

/// Result of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// All records with valid frames, in file order.
    pub records: Vec<RawRecord>,
    /// Offset one past the last valid frame (where appends may resume).
    pub valid_len: u64,
    /// The defect that ended the scan early, if the file has a bad tail.
    pub tail_defect: Option<TailDefect>,
}

/// Sequential reader/recoverer for one segment file.
pub struct SegmentReader;

impl SegmentReader {
    /// Scan `path`, validating the magic and every record frame.
    ///
    /// A file shorter than the magic, or with a wrong magic, is reported
    /// as `valid_len == 0` with a tail defect, letting the caller decide
    /// whether that is recoverable (an empty just-created file) or fatal.
    pub fn scan(io: &dyn StoreIo, path: &Path) -> std::io::Result<SegmentScan> {
        let data = io.read_all(path)?;
        if data.len() < SEGMENT_MAGIC.len() || &data[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            return Ok(SegmentScan {
                records: Vec::new(),
                valid_len: 0,
                tail_defect: Some(TailDefect::TornFrame),
            });
        }
        let mut records = Vec::new();
        let mut pos = SEGMENT_MAGIC.len();
        let mut tail_defect = None;
        while pos < data.len() {
            if data.len() - pos < 4 {
                tail_defect = Some(TailDefect::TornFrame);
                break;
            }
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if len as u64 > MAX_RECORD_BYTES as u64 {
                tail_defect = Some(TailDefect::BadLength(len as u64));
                break;
            }
            if data.len() - pos < 4 + len + 4 {
                tail_defect = Some(TailDefect::TornFrame);
                break;
            }
            let payload = &data[pos + 4..pos + 4 + len];
            let stored_crc = u32::from_le_bytes(
                data[pos + 4 + len..pos + 8 + len].try_into().expect("4 bytes"),
            );
            if crc32(payload) != stored_crc {
                tail_defect = Some(TailDefect::CrcMismatch);
                break;
            }
            records.push(RawRecord {
                offset: pos as u64,
                payload: payload.to_vec(),
            });
            pos += 8 + len;
        }
        Ok(SegmentScan {
            records,
            valid_len: pos.min(data.len()) as u64,
            tail_defect,
        })
    }
}

/// Positioned reads of indexed frames from one segment through a bounded
/// window: one [`StoreIo::read_range`] fills the window with a run of
/// neighbouring frames, and every frame inside it is then served from
/// memory. Each served frame is checked exactly like a scan checks it
/// (length word within [`MAX_RECORD_BYTES`], complete frame, CRC).
pub struct FrameWindow {
    path: PathBuf,
    /// File offset of `buf[0]`.
    start: u64,
    buf: Vec<u8>,
}

impl FrameWindow {
    /// Most bytes one refill reads, unless a single frame is larger.
    pub const MAX_BYTES: u64 = 64 << 10;

    /// An empty window over the segment at `path`.
    pub fn new(path: PathBuf) -> Self {
        Self {
            path,
            start: 0,
            buf: Vec::new(),
        }
    }

    fn holds(&self, offset: u64, len: u64) -> bool {
        offset >= self.start && offset + len <= self.start + self.buf.len() as u64
    }

    fn fill(&mut self, io: &dyn StoreIo, offset: u64, len: u64) -> std::io::Result<()> {
        self.buf = io.read_range(&self.path, offset, len as usize)?;
        self.start = offset;
        Ok(())
    }

    /// The payload of the frame at `offset`, or `None` when the frame is
    /// short, implausibly long, or fails its CRC. When the frame is not
    /// inside the current window, the window is refilled from `offset`
    /// with `span()` bytes — the caller's estimate of this frame plus the
    /// neighbours it will ask for next (at least the frame itself).
    pub fn payload_at(
        &mut self,
        io: &dyn StoreIo,
        offset: u64,
        span: impl FnOnce() -> u64,
    ) -> std::io::Result<Option<&[u8]>> {
        if !self.holds(offset, 4) {
            self.fill(io, offset, span().max(4))?;
            if !self.holds(offset, 4) {
                return Ok(None);
            }
        }
        let at = (offset - self.start) as usize;
        let len = u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("4 bytes")) as u64;
        if len > MAX_RECORD_BYTES as u64 {
            return Ok(None);
        }
        let frame = len + RECORD_HEADER_BYTES;
        if !self.holds(offset, frame) {
            self.fill(io, offset, frame)?;
            if !self.holds(offset, frame) {
                return Ok(None);
            }
        }
        let at = (offset - self.start) as usize;
        let len = len as usize;
        let payload = &self.buf[at + 4..at + 4 + len];
        let stored_crc = u32::from_le_bytes(
            self.buf[at + 4 + len..at + 8 + len]
                .try_into()
                .expect("4 bytes"),
        );
        Ok((crc32(payload) == stored_crc).then_some(payload))
    }

    /// Drop the buffered bytes (the window refills on the next read).
    pub fn release(&mut self) {
        self.buf = Vec::new();
    }
}

/// Appender for the active segment.
pub struct SegmentWriter {
    path: PathBuf,
    file: Box<dyn StoreFile>,
    len: u64,
    sync: bool,
}

impl SegmentWriter {
    /// Create a fresh segment (fails if `path` exists).
    pub fn create(io: &dyn StoreIo, path: &Path, sync: bool) -> std::io::Result<Self> {
        let mut file = io.create_new(path)?;
        file.write_all(SEGMENT_MAGIC)?;
        file.flush()?;
        if sync {
            file.sync_all()?;
        }
        Ok(Self {
            path: path.to_path_buf(),
            file,
            len: SEGMENT_MAGIC.len() as u64,
            sync,
        })
    }

    /// Reopen an existing segment for appends, first truncating it to
    /// `valid_len` (the recovery step that drops a torn tail record).
    ///
    /// A `valid_len` shorter than the magic means the header itself never
    /// made it to disk (a crash between `create_new` and the magic write)
    /// or was destroyed: the file is truncated and the magic rewritten, so
    /// appends resume into a well-formed segment. Without this, every
    /// record appended after recovery would sit behind a bad header and be
    /// discarded wholesale by the next scan.
    pub fn recover(
        io: &dyn StoreIo,
        path: &Path,
        valid_len: u64,
        sync: bool,
    ) -> std::io::Result<Self> {
        let mut file = io.open_rw(path)?;
        let len = if valid_len < SEGMENT_MAGIC.len() as u64 {
            file.set_len(0)?;
            file.seek_to(0)?;
            file.write_all(SEGMENT_MAGIC)?;
            file.flush()?;
            SEGMENT_MAGIC.len() as u64
        } else {
            file.set_len(valid_len)?;
            file.seek_to(valid_len)?;
            valid_len
        };
        if sync {
            file.sync_all()?;
        }
        Ok(Self {
            path: path.to_path_buf(),
            file,
            len,
            sync,
        })
    }

    /// Append one framed record; returns the frame's byte offset.
    ///
    /// On failure the writer repairs itself best-effort: the file is
    /// truncated back to the last good frame and the cursor reseated, so
    /// a transient error (`ENOSPC` while the disk fills, `EIO` on one
    /// sector) leaves a well-formed log and the *next* append can
    /// succeed. If the repair itself fails (the process is "dead" in a
    /// crash simulation, or the device is gone) the partial frame stays
    /// behind as a torn tail — exactly what scan-and-truncate recovery on
    /// the next open handles.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        let offset = self.len;
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        let result = (|| {
            self.file.write_all(&frame)?;
            self.file.flush()?;
            if self.sync {
                self.file.sync_data()?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek_to(self.len);
            return Err(e);
        }
        self.len += frame.len() as u64;
        Ok(offset)
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no record has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len <= SEGMENT_MAGIC.len() as u64
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultIo, FaultKind, FaultPlan, RealIo};

    /// One frame read through a fresh window.
    fn read_at(io: &dyn StoreIo, path: &Path, offset: u64) -> std::io::Result<Option<Vec<u8>>> {
        let mut window = FrameWindow::new(path.to_path_buf());
        Ok(window.payload_at(io, offset, || 0)?.map(<[u8]>::to_vec))
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "profstore-seg-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = tmpdir("rt");
        let path = dir.join("seg-000001.log");
        let io = RealIo;
        let mut w = SegmentWriter::create(&io, &path, false).expect("create");
        let a = w.append(b"first record").expect("append");
        let b = w.append(b"second, longer record payload").expect("append");
        assert!(b > a);
        let scan = SegmentReader::scan(&io, &path).expect("scan");
        assert_eq!(scan.tail_defect, None);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].payload, b"first record");
        assert_eq!(scan.records[1].payload, b"second, longer record payload");
        assert_eq!(scan.valid_len, w.len());
        assert_eq!(
            read_at(&io, &path, b).expect("read_at"),
            Some(b"second, longer record payload".to_vec())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("seg-000001.log");
        let io = RealIo;
        let mut w = SegmentWriter::create(&io, &path, false).expect("create");
        w.append(b"kept").expect("append");
        let good_len = w.len();
        w.append(b"lost to the crash").expect("append");
        drop(w);
        // Simulate a crash mid-append: cut the file inside the last frame.
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..full.len() - 5]).expect("write");
        let scan = SegmentReader::scan(&io, &path).expect("scan");
        assert_eq!(scan.tail_defect, Some(TailDefect::TornFrame));
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, good_len);
        // Recovery truncates and appends continue cleanly.
        let mut w = SegmentWriter::recover(&io, &path, scan.valid_len, false).expect("recover");
        w.append(b"after recovery").expect("append");
        let scan = SegmentReader::scan(&io, &path).expect("scan");
        assert_eq!(scan.tail_defect, None);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].payload, b"after recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_at_zero_rewrites_the_magic_header() {
        let dir = tmpdir("zero");
        let path = dir.join("seg-000001.log");
        let io = RealIo;
        // A crash between create_new and the magic write leaves an empty
        // (or partial-header) file; its scan reports valid_len == 0.
        std::fs::write(&path, b"pro").expect("write partial header");
        let scan = SegmentReader::scan(&io, &path).expect("scan");
        assert_eq!(scan.valid_len, 0);
        let mut w = SegmentWriter::recover(&io, &path, scan.valid_len, false).expect("recover");
        let off = w.append(b"post-recovery record").expect("append");
        drop(w);
        // The segment is well-formed again: the magic is back and the
        // appended record survives the next scan instead of being
        // discarded behind a bad header.
        let scan = SegmentReader::scan(&io, &path).expect("rescan");
        assert_eq!(scan.tail_defect, None);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].payload, b"post-recovery record");
        assert_eq!(
            read_at(&io, &path, off).expect("read_at"),
            Some(b"post-recovery record".to_vec())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        let dir = tmpdir("crc");
        let path = dir.join("seg-000001.log");
        let io = RealIo;
        let mut w = SegmentWriter::create(&io, &path, false).expect("create");
        let off = w.append(b"pristine payload bytes").expect("append");
        drop(w);
        let mut data = std::fs::read(&path).expect("read");
        let idx = off as usize + 4 + 3; // a byte inside the payload
        data[idx] ^= 0x40;
        std::fs::write(&path, &data).expect("write");
        let scan = SegmentReader::scan(&io, &path).expect("scan");
        assert_eq!(scan.tail_defect, Some(TailDefect::CrcMismatch));
        assert!(scan.records.is_empty());
        assert_eq!(read_at(&io, &path, off).expect("read_at"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_repairs_the_tail_and_the_next_append_succeeds() {
        let dir = tmpdir("repair");
        let path = dir.join("seg-000001.log");
        // Ops: 0 create_new, 1 magic write, 2 good append, 3 torn append.
        let (io, _handle) = FaultIo::with_plan(FaultPlan::fail_at(11, 3, FaultKind::Enospc));
        let mut w = SegmentWriter::create(&*io, &path, false).expect("create");
        let a = w.append(b"survives").expect("append");
        let err = w.append(b"hits the full disk").expect_err("injected enospc");
        assert!(crate::io::is_enospc(&err), "{err}");
        // The repair truncated the torn prefix: the file is well-formed
        // and the next append lands cleanly at the same offset.
        let b = w.append(b"after the disk recovered").expect("append");
        assert_eq!(w.len(), b + 24 + RECORD_HEADER_BYTES);
        drop(w);
        let scan = SegmentReader::scan(&RealIo, &path).expect("scan");
        assert_eq!(scan.tail_defect, None, "repair left no torn tail");
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].payload, b"survives");
        assert_eq!(scan.records[0].offset, a);
        assert_eq!(scan.records[1].payload, b"after the disk recovered");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
