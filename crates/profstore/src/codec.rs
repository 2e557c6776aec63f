//! Compact binary encoding of one repository record.
//!
//! A record is `RunMeta` + `Profile`, serialized with LEB128 varints and
//! length-prefixed UTF-8 strings, prefixed by a single version byte. The
//! segment layer (not this module) frames the payload with a length word
//! and a CRC-32. Region and parameter names are stored by name (+kind)
//! and re-interned on decode, exactly like the text store, so records
//! written by one process are readable by any other. Encode borrows every
//! name under one registry read; a [`RecordDecoder`] reads names as
//! borrowed `&str` and resolves each distinct (kind, name) once per
//! decode stream, so a stream of records allocates nothing per node to
//! name it.
//!
//! The `Stats` no-samples minimum keeps the text-format convention: the
//! in-memory `u64::MAX` sentinel is encoded as 0 and restored on decode
//! (which also keeps the varint short).

use crate::crc::crc32;
use pomp::{registry, ParamId, RegionId, RegionKind, RegistryView};
use std::collections::HashMap;
use taskprof::{NodeKind, Profile, SnapNode, Stats, ThreadSnapshot};

/// Current payload format version (the first payload byte).
pub const CODEC_VERSION: u8 = 1;

/// Hard ceiling on a single record payload; lengths beyond this are
/// treated as corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: usize = 256 << 20;

/// Identity and provenance of one stored run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Store-assigned, strictly increasing run identifier.
    pub run_id: u64,
    /// Benchmark / workload name (e.g. the session name or BOTS code).
    pub benchmark: String,
    /// Team thread count the run was measured with.
    pub threads: u32,
    /// Caller-supplied wall-clock timestamp, nanoseconds. Orders the
    /// streaming merge; deterministic sweeps may pin it for stable logs.
    pub timestamp_ns: u64,
}

/// A record could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the structure was complete.
    Truncated,
    /// The leading version byte is not one this build understands.
    BadVersion(u8),
    /// A structural element was out of range or malformed.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record payload truncated"),
            CodecError::BadVersion(v) => write!(f, "unsupported record version {v}"),
            CodecError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// Append a LEB128-encoded unsigned varint.
///
/// Public so sibling layers (the wire protocol in `profserve`) can share
/// one integer encoding with the record codec instead of inventing a
/// second one.
pub fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a length-prefixed UTF-8 string (varint length, then bytes).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uv(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append a ZigZag-encoded signed varint.
pub fn put_iv(out: &mut Vec<u8>, v: i64) {
    // ZigZag so small negative parameter values stay short.
    put_uv(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Bounds-checked cursor over an encoded payload. Every read returns a
/// typed [`CodecError`] instead of panicking, so arbitrary bytes are safe
/// to feed in. Shared with the `profserve` wire protocol.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Read one raw byte.
    pub fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a LEB128 unsigned varint (see [`put_uv`]).
    pub fn uv(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::Malformed("varint overflow"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::Malformed("varint too long"));
            }
        }
    }

    /// Read a ZigZag signed varint (see [`put_iv`]).
    pub fn iv(&mut self) -> Result<i64, CodecError> {
        let z = self.uv()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read a length-prefixed UTF-8 string (see [`put_str`]).
    pub fn str(&mut self) -> Result<String, CodecError> {
        self.str_ref().map(str::to_string)
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the payload.
    pub fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let len = self.uv()? as usize;
        let bytes = self.bytes(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Malformed("non-utf8 string"))
    }

    /// True when every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read exactly `len` raw bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if len > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }
}

fn kind_to_u8(kind: RegionKind) -> u8 {
    match kind {
        RegionKind::Function => 0,
        RegionKind::Parallel => 1,
        RegionKind::Task => 2,
        RegionKind::TaskCreate => 3,
        RegionKind::Taskwait => 4,
        RegionKind::ImplicitBarrier => 5,
        RegionKind::ExplicitBarrier => 6,
        RegionKind::Single => 7,
        RegionKind::Workshare => 8,
        RegionKind::Critical => 9,
        RegionKind::User => 10,
    }
}

fn kind_from_u8(tag: u8) -> Option<RegionKind> {
    Some(match tag {
        0 => RegionKind::Function,
        1 => RegionKind::Parallel,
        2 => RegionKind::Task,
        3 => RegionKind::TaskCreate,
        4 => RegionKind::Taskwait,
        5 => RegionKind::ImplicitBarrier,
        6 => RegionKind::ExplicitBarrier,
        7 => RegionKind::Single,
        8 => RegionKind::Workshare,
        9 => RegionKind::Critical,
        10 => RegionKind::User,
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Tree encode / decode
// ---------------------------------------------------------------------

const TAG_REGION: u8 = 0;
const TAG_STUB: u8 = 1;
const TAG_PARAM: u8 = 2;
const TAG_TRUNCATED: u8 = 3;

fn put_stats(out: &mut Vec<u8>, s: &Stats) {
    put_uv(out, s.visits);
    put_uv(out, s.sum_ns);
    put_uv(out, s.min().unwrap_or(0));
    put_uv(out, s.max_ns);
    put_uv(out, s.samples);
    put_uv(out, s.aborted);
}

fn read_stats(r: &mut Reader<'_>) -> Result<Stats, CodecError> {
    let mut s = Stats::new();
    s.visits = r.uv()?;
    s.sum_ns = r.uv()?;
    s.min_ns = r.uv()?;
    s.max_ns = r.uv()?;
    s.samples = r.uv()?;
    s.aborted = r.uv()?;
    if s.samples == 0 {
        s.min_ns = u64::MAX;
    }
    Ok(s)
}

fn put_node(out: &mut Vec<u8>, reg: &RegistryView<'_>, node: &SnapNode) {
    match node.kind {
        NodeKind::Region(id) => {
            out.push(TAG_REGION);
            let info = reg.info(id);
            out.push(kind_to_u8(info.kind));
            put_str(out, &info.name);
        }
        NodeKind::Stub(id) => {
            out.push(TAG_STUB);
            put_str(out, reg.name(id));
        }
        NodeKind::Param(p, v) => {
            out.push(TAG_PARAM);
            put_str(out, reg.param_name(p));
            put_iv(out, v);
        }
        NodeKind::Truncated => out.push(TAG_TRUNCATED),
    }
    put_stats(out, &node.stats);
    put_uv(out, node.children.len() as u64);
    for c in &node.children {
        put_node(out, reg, c);
    }
}

/// Ids one stored name resolved to, per use: a region of each kind (a
/// stub interns as a [`RegionKind::Task`] region) and a parameter.
#[derive(Default)]
struct NameIds {
    regions: [Option<RegionId>; 11],
    param: Option<ParamId>,
}

/// Decodes a stream of record payloads, resolving each distinct stored
/// (kind, name) against the global registry once for the whole stream.
/// Names are read as `&str` borrowed from the payload; only a name not
/// seen before in this stream is copied (into the decoder's table).
#[derive(Default)]
pub struct RecordDecoder {
    names: HashMap<String, NameIds>,
}

impl RecordDecoder {
    /// A decoder with an empty name table.
    pub fn new() -> Self {
        Self::default()
    }

    fn region(&mut self, name: &str, kind: RegionKind) -> RegionId {
        let k = usize::from(kind_to_u8(kind));
        if let Some(id) = self.names.get(name).and_then(|ids| ids.regions[k]) {
            return id;
        }
        let id = registry().register(name, kind, "loaded", 0);
        self.names.entry(name.to_owned()).or_default().regions[k] = Some(id);
        id
    }

    fn param(&mut self, name: &str) -> ParamId {
        if let Some(id) = self.names.get(name).and_then(|ids| ids.param) {
            return id;
        }
        let id = registry().register_param(name);
        self.names.entry(name.to_owned()).or_default().param = Some(id);
        id
    }

    fn node(&mut self, r: &mut Reader<'_>, depth: usize) -> Result<SnapNode, CodecError> {
        if depth > 4096 {
            return Err(CodecError::Malformed("tree deeper than 4096"));
        }
        let kind = match r.byte()? {
            TAG_REGION => {
                let k = kind_from_u8(r.byte()?).ok_or(CodecError::Malformed("bad region kind"))?;
                NodeKind::Region(self.region(r.str_ref()?, k))
            }
            TAG_STUB => NodeKind::Stub(self.region(r.str_ref()?, RegionKind::Task)),
            TAG_PARAM => {
                let id = self.param(r.str_ref()?);
                NodeKind::Param(id, r.iv()?)
            }
            TAG_TRUNCATED => NodeKind::Truncated,
            _ => return Err(CodecError::Malformed("unknown node tag")),
        };
        let stats = read_stats(r)?;
        let nchildren = r.uv()? as usize;
        if nchildren > r.remaining() {
            // Each child costs at least one byte; anything larger is garbage.
            return Err(CodecError::Truncated);
        }
        let mut children = Vec::with_capacity(nchildren);
        for _ in 0..nchildren {
            children.push(self.node(r, depth + 1)?);
        }
        Ok(SnapNode {
            kind,
            stats,
            children,
        })
    }

    /// Decode one record payload produced by [`encode_record`].
    pub fn decode(&mut self, payload: &[u8]) -> Result<(RunMeta, Profile), CodecError> {
        let mut r = Reader::new(payload);
        let meta = read_meta(&mut r)?;
        let nthreads = r.uv()? as usize;
        if nthreads > payload.len() {
            return Err(CodecError::Truncated);
        }
        let mut threads = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            let tid = r.uv()? as usize;
            let max_live_trees = r.uv()? as usize;
            let arena_capacity = r.uv()? as usize;
            let shed_instances = r.uv()?;
            let ndiag = r.uv()? as usize;
            if ndiag > payload.len() {
                return Err(CodecError::Truncated);
            }
            let mut diagnostics = Vec::with_capacity(ndiag);
            for _ in 0..ndiag {
                diagnostics.push(r.str()?);
            }
            let main = self.node(&mut r, 0)?;
            let ntrees = r.uv()? as usize;
            if ntrees > payload.len() {
                return Err(CodecError::Truncated);
            }
            let mut task_trees = Vec::with_capacity(ntrees);
            for _ in 0..ntrees {
                task_trees.push(self.node(&mut r, 0)?);
            }
            let parallel_region = match main.kind {
                NodeKind::Region(id) => id,
                _ => pomp::RegionId(0),
            };
            threads.push(ThreadSnapshot {
                tid,
                parallel_region,
                main,
                task_trees,
                max_live_trees,
                arena_capacity,
                shed_instances,
                diagnostics,
            });
        }
        if !r.done() {
            return Err(CodecError::Malformed("trailing bytes after profile"));
        }
        Ok((meta, Profile { threads }))
    }
}

// ---------------------------------------------------------------------
// Record encode / decode
// ---------------------------------------------------------------------

/// Encode one `(meta, profile)` record payload (version byte included,
/// framing excluded). The CRC-32 of the returned bytes is what the
/// segment layer stores alongside.
pub fn encode_record(meta: &RunMeta, profile: &Profile) -> Vec<u8> {
    let reg = registry().view();
    let mut out = Vec::with_capacity(256);
    out.push(CODEC_VERSION);
    put_uv(&mut out, meta.run_id);
    put_str(&mut out, &meta.benchmark);
    put_uv(&mut out, u64::from(meta.threads));
    put_uv(&mut out, meta.timestamp_ns);
    put_uv(&mut out, profile.threads.len() as u64);
    for t in &profile.threads {
        put_uv(&mut out, t.tid as u64);
        put_uv(&mut out, t.max_live_trees as u64);
        put_uv(&mut out, t.arena_capacity as u64);
        put_uv(&mut out, t.shed_instances);
        put_uv(&mut out, t.diagnostics.len() as u64);
        for d in &t.diagnostics {
            put_str(&mut out, d);
        }
        put_node(&mut out, &reg, &t.main);
        put_uv(&mut out, t.task_trees.len() as u64);
        for tree in &t.task_trees {
            put_node(&mut out, &reg, tree);
        }
    }
    out
}

fn read_meta(r: &mut Reader<'_>) -> Result<RunMeta, CodecError> {
    match r.byte()? {
        CODEC_VERSION => {}
        v => return Err(CodecError::BadVersion(v)),
    }
    Ok(RunMeta {
        run_id: r.uv()?,
        benchmark: r.str()?,
        threads: u32::try_from(r.uv()?).map_err(|_| CodecError::Malformed("threads overflow"))?,
        timestamp_ns: r.uv()?,
    })
}

/// Decode only the [`RunMeta`] header of a record payload — what index
/// rebuilding needs, without materializing the profile.
pub fn decode_meta(payload: &[u8]) -> Result<RunMeta, CodecError> {
    read_meta(&mut Reader::new(payload))
}

/// Decode one record payload produced by [`encode_record`]. A stream of
/// records decodes cheaper through one [`RecordDecoder`].
pub fn decode_record(payload: &[u8]) -> Result<(RunMeta, Profile), CodecError> {
    RecordDecoder::new().decode(payload)
}

/// CRC-32 of a payload, re-exported here so callers frame records without
/// reaching into the `crc` module.
pub fn payload_crc(payload: &[u8]) -> u32 {
    crc32(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pomp::{RegionKind, TaskIdAllocator};
    use taskprof::{AssignPolicy, Event, TeamReplayer};

    fn sample_profile(tag: &str) -> Profile {
        let reg = registry();
        let par = reg.register(&format!("{tag}-par"), RegionKind::Parallel, "t", 0);
        let task = reg.register(&format!("{tag}-task"), RegionKind::Task, "t", 0);
        let depth = reg.register_param(&format!("{tag}-depth"));
        let ids = TaskIdAllocator::new();
        let mut team = TeamReplayer::new(2, par, AssignPolicy::Executing);
        for k in 0..3 {
            let id = ids.alloc();
            team.apply(0, Event::TaskBegin { region: task, id })
                .apply(0, Event::ParamBegin { param: depth, value: k - 1 })
                .advance(10 + k as u64)
                .apply(0, Event::ParamEnd { param: depth })
                .apply(0, Event::TaskEnd { region: task, id });
        }
        team.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let p = sample_profile("codec-rt");
        let meta = RunMeta {
            run_id: 7,
            benchmark: "fib".into(),
            threads: 2,
            timestamp_ns: 123_456_789,
        };
        let payload = encode_record(&meta, &p);
        let (m2, q) = decode_record(&payload).expect("decode");
        assert_eq!(meta, m2);
        assert_eq!(p.threads.len(), q.threads.len());
        for (a, b) in p.threads.iter().zip(&q.threads) {
            assert_eq!(a.tid, b.tid);
            assert_eq!(a.main, b.main);
            assert_eq!(a.task_trees, b.task_trees);
            assert_eq!(a.max_live_trees, b.max_live_trees);
            assert_eq!(a.arena_capacity, b.arena_capacity);
            assert_eq!(a.shed_instances, b.shed_instances);
            assert_eq!(a.diagnostics, b.diagnostics);
        }
        // Deterministic: same input, same bytes.
        assert_eq!(payload, encode_record(&meta, &q));
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let p = sample_profile("codec-size");
        let meta = RunMeta {
            run_id: 1,
            benchmark: "fib".into(),
            threads: 2,
            timestamp_ns: 0,
        };
        let bin = encode_record(&meta, &p).len();
        let text = cube::write_profile(&p).len();
        assert!(bin < text, "binary {bin} >= text {text}");
    }

    #[test]
    fn no_samples_sentinel_round_trips() {
        let mut p = sample_profile("codec-min");
        let mut stats = Stats::new();
        stats.add_visit();
        p.threads[0].main.children.push(SnapNode {
            kind: NodeKind::Truncated,
            stats,
            children: vec![],
        });
        let meta = RunMeta {
            run_id: 1,
            benchmark: "b".into(),
            threads: 2,
            timestamp_ns: 0,
        };
        let payload = encode_record(&meta, &p);
        let (_, q) = decode_record(&payload).expect("decode");
        let s = &q.threads[0].main.children.last().unwrap().stats;
        assert_eq!(s.min(), None);
        assert_eq!(s.min_ns, u64::MAX);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let p = sample_profile("codec-trunc");
        let meta = RunMeta {
            run_id: 3,
            benchmark: "nqueens".into(),
            threads: 2,
            timestamp_ns: 42,
        };
        let payload = encode_record(&meta, &p);
        for cut in 0..payload.len() {
            assert!(
                decode_record(&payload[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn bad_version_and_garbage_are_rejected() {
        let p = sample_profile("codec-bad");
        let meta = RunMeta {
            run_id: 3,
            benchmark: "x".into(),
            threads: 1,
            timestamp_ns: 0,
        };
        let mut payload = encode_record(&meta, &p);
        payload[0] = 99;
        assert!(matches!(
            decode_record(&payload),
            Err(CodecError::BadVersion(99))
        ));
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[CODEC_VERSION, 0xFF]).is_err());
    }
}
