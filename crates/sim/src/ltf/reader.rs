//! Zero-copy LTF decoding.
//!
//! [`read_workload`] is the replay entry point: it loads the file once
//! into a [`SharedBuf`], decodes
//! and validates header, region table and every op of every stream in a
//! single pass over that buffer, then hands back a [`Workload`] whose
//! per-core traces are [`LtfTrace`]s — cheap cursors that all share the
//! one buffer and decode in place, one op (or one batch, via
//! [`next_ops`](crate::TraceSource::next_ops)) per call. Nothing is ever
//! copied out of the buffer and no per-core file handles exist.
//!
//! Both format versions decode here: the header's version field selects
//! the per-stream decoder (plain v1 records or the delta-compressed
//! [`super::v2`] encoding).

use std::io::Read;
use std::path::Path;

use lacc_core::rnuca::RegionClass;
use lacc_model::{Addr, CoreId, LineAddr, TraceError};

use crate::trace::{RegionDecl, TraceOp, TraceSource, Workload};

use super::buf::SharedBuf;
use super::v2::V2Decoder;
use super::{
    varint, CLASS_INSTRUCTION, CLASS_PRIVATE, CLASS_SHARED, MAGIC, MAX_CORES, MAX_NAME_LEN,
    MAX_REGIONS, OP_ACQUIRE, OP_BARRIER, OP_COMPUTE, OP_END, OP_LOAD, OP_RELEASE, OP_STORE,
    VERSION, VERSION_V2,
};

/// Everything an LTF header declares about its workload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LtfHeader {
    /// Format version of the op streams (1 or 2).
    pub version: u64,
    /// Workload name.
    pub name: String,
    /// Number of per-core op streams.
    pub num_cores: usize,
    /// Instruction footprint per core, in cache lines.
    pub instr_lines: u64,
    /// First line of the text segment.
    pub instr_base: LineAddr,
    /// R-NUCA oracle declarations.
    pub regions: Vec<RegionDecl>,
}

fn read_exact<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { what }
        } else {
            TraceError::from(e)
        }
    })
}

fn read_u8<R: Read + ?Sized>(r: &mut R, what: &'static str) -> Result<u8, TraceError> {
    let mut byte = [0u8; 1];
    read_exact(r, &mut byte, what)?;
    Ok(byte[0])
}

/// Decodes the header (magic through region table) from `r`, leaving the
/// cursor at the start of the core offset table. Accepts both format
/// versions — the container is identical; [`LtfHeader::version`] records
/// which stream encoding follows.
///
/// # Errors
///
/// Any [`TraceError`] variant a malformed header can produce: wrong magic,
/// unsupported version, truncation, over-long varints, undefined region
/// class tags, out-of-range counts.
pub fn read_header<R: Read + ?Sized>(r: &mut R) -> Result<LtfHeader, TraceError> {
    let mut magic = [0u8; 8];
    read_exact(r, &mut magic, "magic")?;
    if magic != MAGIC {
        return Err(TraceError::BadMagic { found: magic.to_vec() });
    }
    let version = varint::read_from(r, "version")?;
    if version != VERSION && version != VERSION_V2 {
        return Err(TraceError::UnsupportedVersion { found: version });
    }
    let flags = varint::read_from(r, "flags")?;
    if flags != 0 {
        return Err(TraceError::Corrupt { what: "reserved flags must be zero" });
    }

    let name_len = varint::read_from(r, "name length")?;
    if name_len > MAX_NAME_LEN {
        return Err(TraceError::Corrupt { what: "name length exceeds limit" });
    }
    let mut name_bytes = vec![0u8; name_len as usize];
    read_exact(r, &mut name_bytes, "name")?;
    let name = String::from_utf8(name_bytes).map_err(|_| TraceError::BadUtf8 { what: "name" })?;

    let num_cores = varint::read_from(r, "core count")?;
    if num_cores > MAX_CORES {
        return Err(TraceError::Corrupt { what: "core count exceeds architecture limit" });
    }
    let instr_lines = varint::read_from(r, "instruction footprint")?;
    let instr_base = LineAddr::new(varint::read_from(r, "instruction base")?);

    let num_regions = varint::read_from(r, "region count")?;
    if num_regions > MAX_REGIONS {
        return Err(TraceError::Corrupt { what: "region count exceeds limit" });
    }
    let mut regions = Vec::with_capacity(num_regions as usize);
    for _ in 0..num_regions {
        let first_line = LineAddr::new(varint::read_from(r, "region first line")?);
        let lines = varint::read_from(r, "region length")?;
        let class = match read_u8(r, "region class")? {
            CLASS_SHARED => RegionClass::Shared,
            CLASS_INSTRUCTION => RegionClass::Instruction,
            CLASS_PRIVATE => {
                let core = varint::read_from(r, "region owner core")?;
                if core >= MAX_CORES {
                    return Err(TraceError::Corrupt { what: "region owner core out of range" });
                }
                RegionClass::PrivateTo(CoreId::new(core as usize))
            }
            tag => return Err(TraceError::BadRegionClass { tag }),
        };
        regions.push(RegionDecl { first_line, lines, class });
    }

    Ok(LtfHeader { version, name, num_cores: num_cores as usize, instr_lines, instr_base, regions })
}

/// Reads the fixed-width core offset table that follows the header.
///
/// # Errors
///
/// [`TraceError::Truncated`] when the table is cut short.
pub fn read_offsets<R: Read + ?Sized>(r: &mut R, num_cores: usize) -> Result<Vec<u64>, TraceError> {
    let mut offsets = Vec::with_capacity(num_cores);
    for _ in 0..num_cores {
        let mut bytes = [0u8; 8];
        read_exact(r, &mut bytes, "core offset table")?;
        offsets.push(u64::from_le_bytes(bytes));
    }
    Ok(offsets)
}

/// Decodes one version-1 op record from an `io::Read`; `Ok(None)` is the
/// end-of-stream marker. Retained for incremental consumers of v1 files
/// (and as the pre-v2 per-op decode path the `ltf` benches baseline
/// against); the replay path itself decodes from shared buffers via
/// [`LtfTrace`].
///
/// # Errors
///
/// [`TraceError::Truncated`] mid-record, [`TraceError::BadOpCode`] on an
/// undefined opcode, [`TraceError::Corrupt`] when a 32-bit operand
/// overflows.
pub fn decode_op<R: Read + ?Sized>(r: &mut R) -> Result<Option<TraceOp>, TraceError> {
    let read_u32 = |r: &mut R, what| -> Result<u32, TraceError> {
        u32::try_from(varint::read_from(r, what)?)
            .map_err(|_| TraceError::Corrupt { what: "32-bit operand overflows" })
    };
    let op = match read_u8(r, "opcode")? {
        OP_END => return Ok(None),
        OP_COMPUTE => TraceOp::Compute(read_u32(r, "compute count")?),
        OP_LOAD => TraceOp::Load { addr: Addr::new(varint::read_from(r, "load address")?) },
        OP_STORE => TraceOp::Store {
            addr: Addr::new(varint::read_from(r, "store address")?),
            value: varint::read_from(r, "store value")?,
        },
        OP_BARRIER => TraceOp::Barrier { id: read_u32(r, "barrier id")? },
        OP_ACQUIRE => TraceOp::Acquire { id: read_u32(r, "lock id")? },
        OP_RELEASE => TraceOp::Release { id: read_u32(r, "lock id")? },
        code => return Err(TraceError::BadOpCode { code }),
    };
    Ok(Some(op))
}

/// Decodes one version-1 op record from `bytes` at `*pos`, advancing the
/// cursor — the slice twin of [`decode_op`].
#[inline]
fn decode_op_at(bytes: &[u8], pos: &mut usize) -> Result<Option<TraceOp>, TraceError> {
    let take_u32 = |pos: &mut usize, what| -> Result<u32, TraceError> {
        u32::try_from(varint::take(bytes, pos, what)?)
            .map_err(|_| TraceError::Corrupt { what: "32-bit operand overflows" })
    };
    let opcode = match bytes.get(*pos) {
        Some(&b) => {
            *pos += 1;
            b
        }
        None => return Err(TraceError::Truncated { what: "opcode" }),
    };
    let op = match opcode {
        OP_END => return Ok(None),
        OP_COMPUTE => TraceOp::Compute(take_u32(pos, "compute count")?),
        OP_LOAD => TraceOp::Load { addr: Addr::new(varint::take(bytes, pos, "load address")?) },
        OP_STORE => TraceOp::Store {
            addr: Addr::new(varint::take(bytes, pos, "store address")?),
            value: varint::take(bytes, pos, "store value")?,
        },
        OP_BARRIER => TraceOp::Barrier { id: take_u32(pos, "barrier id")? },
        OP_ACQUIRE => TraceOp::Acquire { id: take_u32(pos, "lock id")? },
        OP_RELEASE => TraceOp::Release { id: take_u32(pos, "lock id")? },
        code => return Err(TraceError::BadOpCode { code }),
    };
    Ok(Some(op))
}

fn check_offsets(offsets: &[u64], streams_start: u64, len: u64) -> Result<(), TraceError> {
    for &offset in offsets {
        // Every stream holds at least its end marker, so a valid offset
        // points strictly inside the file, at or after the offset table.
        if offset < streams_start || offset >= len {
            return Err(TraceError::Corrupt { what: "core offset outside stream area" });
        }
    }
    Ok(())
}

/// The per-stream op decoder for whichever format version the header
/// negotiated. v1 records are stateless; v2 carries the delta/run state.
#[derive(Debug)]
enum StreamDecoder {
    V1,
    V2(V2Decoder),
}

impl StreamDecoder {
    fn for_header(header: &LtfHeader) -> StreamDecoder {
        match header.version {
            VERSION => StreamDecoder::V1,
            _ => StreamDecoder::V2(V2Decoder::new(super::v2::base_line(&header.regions))),
        }
    }

    #[inline]
    fn next(&mut self, bytes: &[u8], pos: &mut usize) -> Result<Option<TraceOp>, TraceError> {
        match self {
            StreamDecoder::V1 => decode_op_at(bytes, pos),
            StreamDecoder::V2(dec) => dec.next(bytes, pos),
        }
    }
}

/// A lazily decoded per-core trace, produced by [`read_workload`] (or
/// [`LtfTrace::open`] for a single stream).
///
/// Implements [`TraceSource`] by decoding in place from a [`SharedBuf`]
/// all cursors of a workload share; [`next_ops`](TraceSource::next_ops)
/// amortizes the decode across a whole batch. The backing stream was
/// fully validated when the cursor was opened, so decoding cannot fail
/// for any input that existed at open time — malformed files are rejected
/// with a typed error at open, never here.
#[derive(Debug)]
pub struct LtfTrace {
    buf: SharedBuf,
    start: usize,
    base_line: u64,
    pos: usize,
    dec: StreamDecoder,
    finished: bool,
}

impl LtfTrace {
    /// Opens one validated cursor over the stream starting at byte
    /// `start` of `buf`, described by `header`: the stream is decoded to
    /// its end marker once (catching every malformation), then the
    /// cursor rewinds to the start.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] the stream's records can produce.
    pub fn open(buf: SharedBuf, start: usize, header: &LtfHeader) -> Result<LtfTrace, TraceError> {
        let mut trace = LtfTrace {
            buf,
            start,
            base_line: super::v2::base_line(&header.regions),
            pos: start,
            dec: StreamDecoder::for_header(header),
            finished: false,
        };
        while trace.try_next()?.is_some() {}
        trace.reset();
        Ok(trace)
    }

    /// Rewinds the cursor to the start of its stream (decoder state
    /// included), so the same validated stream can be replayed again.
    pub fn reset(&mut self) {
        self.pos = self.start;
        self.finished = false;
        self.dec = match self.dec {
            StreamDecoder::V1 => StreamDecoder::V1,
            StreamDecoder::V2(_) => StreamDecoder::V2(V2Decoder::new(self.base_line)),
        };
    }

    #[inline]
    fn try_next(&mut self) -> Result<Option<TraceOp>, TraceError> {
        if self.finished {
            return Ok(None);
        }
        match self.dec.next(&self.buf, &mut self.pos)? {
            Some(op) => Ok(Some(op)),
            None => {
                self.finished = true;
                Ok(None)
            }
        }
    }
}

impl TraceSource for LtfTrace {
    /// # Panics
    ///
    /// Panics if the backing buffer fails to decode. [`LtfTrace::open`]
    /// validated the stream and the buffer is immutable, so this marks a
    /// decoder bug; ending the stream quietly instead would let the run
    /// complete with silently wrong statistics.
    #[inline]
    fn next_op(&mut self) -> Option<TraceOp> {
        self.try_next()
            .unwrap_or_else(|e| panic!("LTF stream failed to decode after validation at open: {e}"))
    }

    /// Batched decode straight off the shared buffer; same panic
    /// contract as [`next_op`](Self::next_op). Everything a per-op
    /// cursor pays on every call — the buffer deref (an `Arc` chase
    /// plus a backing-enum match), the version dispatch, and the cursor
    /// field write-back — is hoisted out of the loop, so the loop body
    /// is just the record decode against registers.
    #[inline]
    fn next_ops(&mut self, out: &mut Vec<TraceOp>, max: usize) -> usize {
        if self.finished {
            return 0;
        }
        let bytes: &[u8] = &self.buf;
        let mut pos = self.pos;
        let drained = match &mut self.dec {
            StreamDecoder::V1 => drain_v1(bytes, &mut pos, out, max),
            StreamDecoder::V2(dec) => dec.next_batch(bytes, &mut pos, out, max),
        };
        self.pos = pos;
        match drained {
            Ok((appended, end)) => {
                self.finished = end;
                appended
            }
            Err(e) => panic!("LTF stream failed to decode after validation at open: {e}"),
        }
    }
}

/// The v1 batch loop of [`TraceSource::next_ops`]; the v2 twin lives on
/// [`V2Decoder::next_batch`] next to its delta state. Returns the number
/// of ops appended and whether the stream's end marker was reached.
fn drain_v1(
    bytes: &[u8],
    pos: &mut usize,
    out: &mut Vec<TraceOp>,
    max: usize,
) -> Result<(usize, bool), TraceError> {
    let mut p = *pos;
    let mut appended = 0;
    let mut end = false;
    while appended < max {
        match decode_op_at(bytes, &mut p)? {
            Some(op) => {
                out.push(op);
                appended += 1;
            }
            None => {
                end = true;
                break;
            }
        }
    }
    *pos = p;
    Ok((appended, end))
}

/// Opens a `.ltf` file (either format version) as a replayable
/// [`Workload`] with zero-copy per-core traces.
///
/// The file is read once into a [`SharedBuf`] and validated in a single pass
/// over that buffer: header, offset table, then every op of every stream
/// exactly once ([`LtfTrace::open`] doubles as the validator), so any
/// corruption surfaces here as a typed error rather than during
/// simulation. Every core's cursor shares the one buffer.
///
/// # Errors
///
/// Any [`TraceError`]: I/O failures, bad magic, unsupported version,
/// truncation anywhere, over-long varints, undefined opcodes or region
/// classes, offsets outside the file.
pub fn read_workload<P: AsRef<Path>>(path: P) -> Result<Workload, TraceError> {
    workload_from_shared(SharedBuf::open(path)?)
}

/// [`read_workload`] for an already-loaded buffer (in-memory encoders,
/// benches, servers holding trace images).
///
/// # Errors
///
/// Same failure modes as [`read_workload`], minus the I/O.
pub fn workload_from_shared(buf: SharedBuf) -> Result<Workload, TraceError> {
    let (header, offsets) = read_header_bytes(&buf)?;
    let mut traces: Vec<Box<dyn TraceSource>> = Vec::with_capacity(header.num_cores);
    for &offset in &offsets {
        traces.push(Box::new(LtfTrace::open(buf.clone(), offset as usize, &header)?));
    }
    Ok(Workload {
        name: header.name,
        traces,
        regions: header.regions,
        instr_lines: header.instr_lines,
        instr_base: header.instr_base,
    })
}

/// Decodes the header and core offset table from an in-memory LTF image.
///
/// # Errors
///
/// Same failure modes as [`read_header`] and [`read_offsets`].
pub fn read_header_bytes(bytes: &[u8]) -> Result<(LtfHeader, Vec<u64>), TraceError> {
    let mut cursor = std::io::Cursor::new(bytes);
    let header = read_header(&mut cursor)?;
    let offsets = read_offsets(&mut cursor, header.num_cores)?;
    check_offsets(&offsets, cursor.position(), bytes.len() as u64)?;
    Ok((header, offsets))
}

/// Eagerly decodes a complete in-memory LTF image of either version: the
/// header plus every core's ops. The workhorse of round-trip and
/// robustness tests.
///
/// # Errors
///
/// Any [`TraceError`] a malformed image can produce.
pub fn read_workload_bytes(bytes: &[u8]) -> Result<(LtfHeader, Vec<Vec<TraceOp>>), TraceError> {
    let (header, offsets) = read_header_bytes(bytes)?;
    let mut cores = Vec::with_capacity(header.num_cores);
    for &offset in &offsets {
        let mut dec = StreamDecoder::for_header(&header);
        let mut pos = offset as usize;
        let mut ops = Vec::new();
        while let Some(op) = dec.next(bytes, &mut pos)? {
            ops.push(op);
        }
        cores.push(ops);
    }
    Ok((header, cores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ltf::{workload_to_ltf_bytes, workload_to_ltf_bytes_v2};
    use crate::trace::{default_instr_base, VecTrace};

    fn sample() -> Workload {
        Workload {
            name: "sample".into(),
            traces: vec![
                Box::new(VecTrace::new(vec![
                    TraceOp::Compute(7),
                    TraceOp::Store { addr: Addr::new(0x1040), value: u64::MAX },
                    TraceOp::Load { addr: Addr::new(0x1040) },
                ])),
                Box::new(VecTrace::new(vec![
                    TraceOp::Acquire { id: 1 },
                    TraceOp::Release { id: 1 },
                    TraceOp::Barrier { id: 0 },
                ])),
            ],
            regions: vec![
                RegionDecl {
                    first_line: LineAddr::new(0x41),
                    lines: 16,
                    class: RegionClass::Shared,
                },
                RegionDecl {
                    first_line: LineAddr::new(0x100),
                    lines: 4,
                    class: RegionClass::PrivateTo(CoreId::new(1)),
                },
                RegionDecl {
                    first_line: LineAddr::new(0x200),
                    lines: 2,
                    class: RegionClass::Instruction,
                },
            ],
            instr_lines: 12,
            instr_base: default_instr_base(),
        }
    }

    #[test]
    fn bytes_round_trip_exactly() {
        type Encode = fn(Workload) -> Result<Vec<u8>, TraceError>;
        for (encode, version) in [
            (workload_to_ltf_bytes as Encode, VERSION),
            (workload_to_ltf_bytes_v2 as Encode, VERSION_V2),
        ] {
            let bytes = encode(sample()).unwrap();
            let (header, ops) = read_workload_bytes(&bytes).unwrap();
            assert_eq!(header.version, version);
            assert_eq!(header.name, "sample");
            assert_eq!(header.num_cores, 2);
            assert_eq!(header.instr_lines, 12);
            assert_eq!(header.instr_base, default_instr_base());
            assert_eq!(header.regions, sample().regions);
            assert_eq!(ops[0][1], TraceOp::Store { addr: Addr::new(0x1040), value: u64::MAX });
            assert_eq!(ops[0].len(), 3);
            assert_eq!(ops[1].len(), 3);
        }
    }

    #[test]
    fn file_round_trip_streams() {
        for v2 in [false, true] {
            let path = std::env::temp_dir().join(format!("lacc_ltf_reader_unit_{v2}.ltf"));
            if v2 {
                sample().dump_ltf_v2(&path).unwrap();
            } else {
                sample().dump_ltf(&path).unwrap();
            }
            let replayed = read_workload(&path).unwrap();
            assert_eq!(replayed.name, "sample");
            assert_eq!(replayed.active_cores(), 2);
            let mut core0 = replayed.traces.into_iter().next().unwrap();
            assert_eq!(core0.next_op(), Some(TraceOp::Compute(7)));
            assert_eq!(
                core0.next_op(),
                Some(TraceOp::Store { addr: Addr::new(0x1040), value: u64::MAX })
            );
            assert_eq!(core0.next_op(), Some(TraceOp::Load { addr: Addr::new(0x1040) }));
            assert_eq!(core0.next_op(), None);
            assert_eq!(core0.next_op(), None, "exhausted streams stay exhausted");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn cursors_share_one_buffer_and_batch_decode() {
        let bytes = workload_to_ltf_bytes_v2(sample()).unwrap();
        let buf = SharedBuf::from_vec(bytes);
        let w = workload_from_shared(buf).unwrap();
        let mut ops = Vec::new();
        let mut traces = w.traces;
        assert_eq!(traces[0].next_ops(&mut ops, 100), 3, "short batch means end of stream");
        assert_eq!(ops.len(), 3);
        assert_eq!(traces[0].next_ops(&mut ops, 100), 0);
        // A bounded batch leaves the rest for the next call.
        assert_eq!(traces[1].next_ops(&mut ops, 2), 2);
        assert_eq!(traces[1].next_ops(&mut ops, 2), 1);
    }

    #[test]
    fn reset_replays_the_same_stream() {
        let bytes = workload_to_ltf_bytes_v2(sample()).unwrap();
        let (header, offsets) = read_header_bytes(&bytes).unwrap();
        let buf = SharedBuf::from_vec(bytes);
        let mut t = LtfTrace::open(buf, offsets[0] as usize, &header).unwrap();
        let first: Vec<_> = std::iter::from_fn(|| t.next_op()).collect();
        t.reset();
        let second: Vec<_> = std::iter::from_fn(|| t.next_op()).collect();
        assert_eq!(first, second);
        assert_eq!(first.len(), 3);
    }

    #[test]
    fn zero_core_workload_round_trips() {
        let w = Workload {
            name: "none".into(),
            traces: vec![],
            regions: vec![],
            instr_lines: 0,
            instr_base: default_instr_base(),
        };
        let bytes = workload_to_ltf_bytes(w).unwrap();
        let (header, ops) = read_workload_bytes(&bytes).unwrap();
        assert_eq!(header.num_cores, 0);
        assert!(ops.is_empty());
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = read_workload("/nonexistent/definitely/not/here.ltf").unwrap_err();
        assert!(matches!(e, TraceError::Io { .. }));
    }
}
