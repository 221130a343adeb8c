//! LACC Trace Format (LTF): durable, replayable trace files.
//!
//! The simulator normally consumes in-memory [`crate::VecTrace`]s from the
//! synthetic generators. LTF makes the same per-core instruction/memory
//! streams durable: any [`Workload`](crate::Workload) can be serialized to
//! a `.ltf` file and later replayed through a streaming
//! [`TraceSource`](crate::TraceSource) that decodes lazily with bounded
//! memory — the reproducible input artifact that trace-driven evaluation
//! (the paper's Graphite methodology) and protocol-verification workflows
//! both rely on. The full specification also lives in `docs/LTF.md`.
//!
//! Two format versions share one container. **Version 1** stores absolute
//! addresses, one self-contained record per op. **Version 2** (module
//! [`v2`]) delta-compresses the streams — signed-zigzag line deltas,
//! region-relative bases, run-length compute — to less than half the
//! bytes; the header's version field negotiates which stream encoding
//! follows, so v1 files keep decoding forever. Readers are zero-copy:
//! every per-core cursor decodes in place from one shared immutable
//! buffer (module [`buf`]), instead of 64 seek-positioned file handles.
//!
//! # Format specification (container + version-1 ops)
//!
//! All multi-byte integers are **varints** (LEB128: 7 value bits per byte,
//! high bit = continuation, little-endian groups, at most 10 bytes) except
//! the core offset table, whose entries are fixed-width `u64`
//! little-endian so the writer can backpatch them after streaming.
//!
//! ```text
//! file      := magic version flags name header regions offsets stream*
//! magic     := "LACCLTF1"                      ; 8 bytes
//! version   := varint                          ; 1 or 2 (stream encoding)
//! flags     := varint                          ; reserved, must be 0
//! name      := varint(len) byte{len}           ; UTF-8 workload name
//! header    := varint(num_cores)
//!              varint(instr_lines)             ; instruction footprint
//!              varint(instr_base)              ; text-segment line number
//! regions   := varint(count) region{count}
//! region    := varint(first_line) varint(lines) class
//! class     := 0x00                            ; Shared
//!            | 0x01                            ; Instruction
//!            | 0x02 varint(core)               ; PrivateTo(core)
//! offsets   := u64le{num_cores}                ; absolute stream offsets
//! stream    := op* 0x00                        ; one per core, 0x00 = end
//! op        := 0x01 varint(n)                  ; Compute(n)
//!            | 0x02 varint(addr)               ; Load
//!            | 0x03 varint(addr) varint(value) ; Store
//!            | 0x04 varint(id)                 ; Barrier
//!            | 0x05 varint(id)                 ; Acquire
//!            | 0x06 varint(id)                 ; Release
//! ```
//!
//! When `version` is 2 the `stream` production is replaced by the
//! delta-compressed encoding specified in [`v2`]; everything before the
//! streams is byte-identical.
//!
//! Decoding is total: every malformed input — wrong magic, unknown
//! version, truncation anywhere (including mid-op), over-long varints,
//! undefined opcodes or class tags, offsets outside the file — returns a
//! typed [`TraceError`](lacc_model::TraceError) instead of panicking.
//! [`read_workload`] validates the entire file in one streaming pass
//! before handing out per-core sources, so replay itself cannot trip over
//! corruption.
//!
//! # Examples
//!
//! ```
//! use lacc_sim::ltf;
//! use lacc_sim::trace::{default_instr_base, TraceOp, VecTrace, Workload};
//! use lacc_model::Addr;
//!
//! let w = Workload {
//!     name: "doc".into(),
//!     traces: vec![Box::new(VecTrace::new(vec![
//!         TraceOp::Store { addr: Addr::new(0x40), value: 7 },
//!         TraceOp::Compute(3),
//!     ]))],
//!     regions: vec![],
//!     instr_lines: 4,
//!     instr_base: default_instr_base(),
//! };
//! let bytes = ltf::workload_to_ltf_bytes(w)?;
//! let (header, ops) = ltf::read_workload_bytes(&bytes)?;
//! assert_eq!(header.name, "doc");
//! assert_eq!(ops[0].len(), 2);
//! # Ok::<(), lacc_model::TraceError>(())
//! ```

pub mod buf;
pub mod reader;
pub mod v2;
pub mod varint;
pub mod writer;

pub use buf::SharedBuf;
pub use reader::{
    read_header_bytes, read_workload, read_workload_bytes, workload_from_shared, LtfHeader,
    LtfTrace,
};
pub use writer::{
    workload_to_ltf_bytes, workload_to_ltf_bytes_v2, write_workload, write_workload_v2, LtfSummary,
};

/// The 8-byte file magic ("LACCLTF" + format generation).
pub const MAGIC: [u8; 8] = *b"LACCLTF1";

/// The original format version: absolute addresses, one record per op.
pub const VERSION: u64 = 1;

/// The delta-compressed format version (see [`v2`]).
pub const VERSION_V2: u64 = 2;

/// End-of-stream marker terminating each per-core op stream.
pub const OP_END: u8 = 0x00;
/// Opcode for [`TraceOp::Compute`](crate::TraceOp::Compute).
pub const OP_COMPUTE: u8 = 0x01;
/// Opcode for [`TraceOp::Load`](crate::TraceOp::Load).
pub const OP_LOAD: u8 = 0x02;
/// Opcode for [`TraceOp::Store`](crate::TraceOp::Store).
pub const OP_STORE: u8 = 0x03;
/// Opcode for [`TraceOp::Barrier`](crate::TraceOp::Barrier).
pub const OP_BARRIER: u8 = 0x04;
/// Opcode for [`TraceOp::Acquire`](crate::TraceOp::Acquire).
pub const OP_ACQUIRE: u8 = 0x05;
/// Opcode for [`TraceOp::Release`](crate::TraceOp::Release).
pub const OP_RELEASE: u8 = 0x06;

/// Region-class tag for `RegionClass::Shared`.
pub const CLASS_SHARED: u8 = 0x00;
/// Region-class tag for `RegionClass::Instruction`.
pub const CLASS_INSTRUCTION: u8 = 0x01;
/// Region-class tag for `RegionClass::PrivateTo(core)`.
pub const CLASS_PRIVATE: u8 = 0x02;

/// Decoder limit: cores are 16-bit ids, so a header claiming more is
/// corrupt rather than merely large.
pub const MAX_CORES: u64 = 1 << 16;
/// Decoder limit on the workload-name length in bytes.
pub const MAX_NAME_LEN: u64 = 4096;
/// Decoder limit on the region-declaration count.
pub const MAX_REGIONS: u64 = 1 << 20;
