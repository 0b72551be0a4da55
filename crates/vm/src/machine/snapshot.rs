//! Durable, versioned snapshots of suspended runs (`cm-snapshot`).
//!
//! A snapshot serializes a [`SuspendedRun`] plus everything it can reach —
//! the frozen segment chain, winders, meta frames, every heap object
//! (all nine handle kinds), interned symbols (via a symbol table), and the
//! machine's global bindings in slot order — into a self-contained byte
//! buffer that can be restored later, on another machine, or on another
//! thread with a completely fresh heap. Handles are dense per-kind ids in
//! the wire format and are relocated to freshly allocated slots on load.
//!
//! Wire format (all integers little-endian):
//!
//! ```text
//! header   := magic "CMSN" | version u32 | payload_len u64 | fnv1a64 u64
//! payload  := config | winder_counter u64 | output str
//!           | symtab | codes | strs | pairs | vecs | boxes | tables
//!           | records | closures | segments | underflows | conts
//!           | globals | run
//! ```
//!
//! Sharing is preserved: each `Rc<Underflow>`, `Rc<Segment>`, and
//! `Rc<Code>` is emitted once and referenced by id, so `eq?` identity of
//! captured continuations and the one-shot fusion eligibility (which keys
//! off `Rc` strong counts) survive a snapshot/restore cycle. Native
//! procedure values are serialized *by name* and re-resolved on load, so a
//! snapshot never embeds function pointers. A `PrimCall` operand is a
//! primitive-table index, so the version changes whenever the table's
//! order does.
//!
//! Decoding is panic-free by construction: every read is bounds-checked,
//! every id validated, and every structural violation surfaces as a typed
//! [`SnapshotError`]. Corruption of the payload is caught by the checksum
//! before decoding begins.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::mem;
use std::rc::Rc;
use std::time::Duration;

use cm_sexpr::Sym;

use crate::code::{Code, Instr};
use crate::config::{FaultPlan, MachineConfig, MarkModel};
use crate::heap::{self, Closure, HBox, HClosure, HCont, HPair, HRecord, HStr, HTable, HVec};
use crate::machine::control::{
    CompChainRec, CompData, ContData, ContKind, MetaFrame, Segment, Underflow, Winder,
};
use crate::prims::{self, NativeId};
use crate::trace::TraceKind;
use crate::values::Value;

use super::{
    check_frames_well_formed, push_chain_roots, push_meta_roots, push_winder_roots, Frame, Globals,
    Machine, MarkEntry, SuspendedRun,
};

const MAGIC: &[u8; 4] = b"CMSN";

/// Current snapshot wire-format version.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a snapshot could not be produced or restored. Every decode failure
/// is one of these — corrupted input never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the `CMSN` magic.
    BadMagic,
    /// The buffer's format version is not one this build understands.
    UnsupportedVersion(u32),
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the payload actually present.
        actual: u64,
    },
    /// The buffer ended in the middle of the named field.
    Truncated {
        /// The field being read when the bytes ran out.
        at: &'static str,
    },
    /// The bytes parsed but violate the format (bad tag, id out of
    /// range, non-UTF-8 string, trailing garbage, ...).
    Malformed {
        /// Human-readable description of the violation.
        what: String,
    },
    /// A `PrimCall` names a table index that is not an inlinable
    /// primitive of this build.
    UnknownPrimitive(u16),
    /// The snapshot parsed cleanly but cannot be rebuilt in this process
    /// (unknown native, global table mismatch, ill-formed frames).
    Rejected {
        /// Human-readable description of the rejection.
        what: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a cm-snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot checksum mismatch (header {expected:#x}, payload {actual:#x})"
                )
            }
            SnapshotError::Truncated { at } => write!(f, "snapshot truncated while reading {at}"),
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
            SnapshotError::UnknownPrimitive(id) => write!(f, "unknown inline primitive {id}"),
            SnapshotError::Rejected { what } => write!(f, "snapshot rejected: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn malformed(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed { what: what.into() }
}

fn rejected(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Rejected { what: what.into() }
}

/// A machine and suspended run rebuilt from snapshot bytes by
/// [`Machine::restore_snapshot`].
pub struct RestoredRun {
    /// A fresh machine carrying the snapshot's config, globals, output,
    /// and winder counter. Resume the run on *this* machine.
    pub machine: Machine,
    /// The rebuilt suspended run, rooted against GC.
    pub run: SuspendedRun,
    /// Every code object decoded from the snapshot, so callers (the
    /// engines layer) can re-verify the bytecode before resuming.
    pub codes: Vec<Rc<Code>>,
    /// Parallel to `codes`: the smallest capture count the snapshot
    /// instantiates each code with — `Some(n)` when a closure or frame
    /// references it, `None` when it is reachable only as a child of
    /// another code (whose `MakeClosure` sites then bound it). A verifier
    /// needs this context because a closure's code can outlive the parent
    /// code that created it.
    pub code_captures: Vec<Option<u32>>,
}

// ---------------------------------------------------------------------------
// Byte-level writers and reader.
// ---------------------------------------------------------------------------

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn w_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn w_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn w_str(out: &mut Vec<u8>, s: &str) {
    w_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn w_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(x) => {
            w_u8(out, 1);
            w_u64(out, x);
        }
        None => w_u8(out, 0),
    }
}

/// Bounds-checked little-endian reader over the payload.
struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize, at: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { at });
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, at: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, at)?[0])
    }

    fn bool_(&mut self, at: &'static str) -> Result<bool, SnapshotError> {
        match self.u8(at)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("{at}: invalid bool byte {b}"))),
        }
    }

    fn u16(&mut self, at: &'static str) -> Result<u16, SnapshotError> {
        let s = self.take(2, at)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self, at: &'static str) -> Result<u32, SnapshotError> {
        let s = self.take(4, at)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self, at: &'static str) -> Result<u64, SnapshotError> {
        let s = self.take(8, at)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn i64(&mut self, at: &'static str) -> Result<i64, SnapshotError> {
        Ok(self.u64(at)? as i64)
    }

    fn usize_(&mut self, at: &'static str) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64(at)?).map_err(|_| malformed(format!("{at}: value exceeds usize")))
    }

    /// Reads an element count, refusing counts that could not possibly fit
    /// in the remaining bytes (each element consumes at least one byte),
    /// so corrupted counts cannot drive huge allocations.
    fn count(&mut self, at: &'static str) -> Result<usize, SnapshotError> {
        let n = self.u32(at)? as usize;
        if n > self.remaining() {
            return Err(malformed(format!(
                "{at}: count {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn str_(&mut self, at: &'static str) -> Result<String, SnapshotError> {
        let n = self.u32(at)? as usize;
        let bytes = self.take(n, at)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed(format!("{at}: invalid UTF-8")))
    }

    fn opt_u32(&mut self, at: &'static str) -> Result<Option<u32>, SnapshotError> {
        if self.bool_(at)? {
            Ok(Some(self.u32(at)?))
        } else {
            Ok(None)
        }
    }

    fn opt_u64(&mut self, at: &'static str) -> Result<Option<u64>, SnapshotError> {
        if self.bool_(at)? {
            Ok(Some(self.u64(at)?))
        } else {
            Ok(None)
        }
    }
}

// ---------------------------------------------------------------------------
// Value and instruction codecs.
// ---------------------------------------------------------------------------

const T_NIL: u8 = 0;
const T_VOID: u8 = 1;
const T_EOF: u8 = 2;
const T_FALSE: u8 = 3;
const T_TRUE: u8 = 4;
const T_FIXNUM: u8 = 5;
const T_FLONUM: u8 = 6;
const T_CHAR: u8 = 7;
const T_SYM: u8 = 8;
const T_STR: u8 = 9;
const T_PAIR: u8 = 10;
const T_VECTOR: u8 = 11;
const T_BOX: u8 = 12;
const T_TABLE: u8 = 13;
const T_RECORD: u8 = 14;
const T_CLOSURE: u8 = 15;
const T_NATIVE: u8 = 16;
const T_CONT: u8 = 17;

/// A parsed-but-unresolved value: immediates carried verbatim, heap
/// references as dense wire ids resolved against the decode tables.
#[derive(Debug, Clone, Copy)]
enum V {
    Nil,
    Void,
    Eof,
    Bool(bool),
    Fix(i64),
    Flo(u64),
    Char(char),
    Sym(u32),
    Str(u32),
    Pair(u32),
    Vector(u32),
    Box(u32),
    Table(u32),
    Record(u32),
    Closure(u32),
    Native(u32),
    Cont(u32),
}

fn r_v(rd: &mut Rd) -> Result<V, SnapshotError> {
    let t = rd.u8("value tag")?;
    Ok(match t {
        T_NIL => V::Nil,
        T_VOID => V::Void,
        T_EOF => V::Eof,
        T_FALSE => V::Bool(false),
        T_TRUE => V::Bool(true),
        T_FIXNUM => V::Fix(rd.i64("fixnum")?),
        T_FLONUM => V::Flo(rd.u64("flonum bits")?),
        T_CHAR => {
            let c = rd.u32("character")?;
            V::Char(char::from_u32(c).ok_or_else(|| malformed(format!("invalid scalar {c:#x}")))?)
        }
        T_SYM => V::Sym(rd.u32("symbol id")?),
        T_STR => V::Str(rd.u32("string id")?),
        T_PAIR => V::Pair(rd.u32("pair id")?),
        T_VECTOR => V::Vector(rd.u32("vector id")?),
        T_BOX => V::Box(rd.u32("box id")?),
        T_TABLE => V::Table(rd.u32("table id")?),
        T_RECORD => V::Record(rd.u32("record id")?),
        T_CLOSURE => V::Closure(rd.u32("closure id")?),
        T_NATIVE => V::Native(rd.u32("native name id")?),
        T_CONT => V::Cont(rd.u32("continuation id")?),
        other => return Err(malformed(format!("unknown value tag {other}"))),
    })
}

fn r_vs(rd: &mut Rd, at: &'static str) -> Result<Vec<V>, SnapshotError> {
    let n = rd.count(at)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r_v(rd)?);
    }
    Ok(out)
}

fn w_instr(out: &mut Vec<u8>, i: &Instr) {
    match *i {
        Instr::Const(x) => {
            w_u8(out, 0);
            w_u16(out, x);
        }
        Instr::LocalRef(x) => {
            w_u8(out, 1);
            w_u16(out, x);
        }
        Instr::LocalSet(x) => {
            w_u8(out, 2);
            w_u16(out, x);
        }
        Instr::CaptureRef(x) => {
            w_u8(out, 3);
            w_u16(out, x);
        }
        Instr::GlobalRef(x) => {
            w_u8(out, 4);
            w_u32(out, x);
        }
        Instr::GlobalSet(x) => {
            w_u8(out, 5);
            w_u32(out, x);
        }
        Instr::MakeClosure { code, captures } => {
            w_u8(out, 6);
            w_u16(out, code);
            w_u16(out, captures);
        }
        Instr::Jump(x) => {
            w_u8(out, 7);
            w_u32(out, x);
        }
        Instr::JumpIfFalse(x) => {
            w_u8(out, 8);
            w_u32(out, x);
        }
        Instr::Leave(x) => {
            w_u8(out, 9);
            w_u16(out, x);
        }
        Instr::Pop => w_u8(out, 10),
        Instr::Call(x) => {
            w_u8(out, 11);
            w_u16(out, x);
        }
        Instr::TailCall(x) => {
            w_u8(out, 12);
            w_u16(out, x);
        }
        Instr::CallWithAttachment(x) => {
            w_u8(out, 13);
            w_u16(out, x);
        }
        Instr::Return => w_u8(out, 14),
        Instr::PrimCall(id, argc) => {
            w_u8(out, 15);
            w_u16(out, id.0);
            w_u8(out, argc);
        }
        Instr::PushAttach => w_u8(out, 16),
        Instr::PopAttach => w_u8(out, 17),
        Instr::SetAttach => w_u8(out, 18),
        Instr::ReifySetAttach { check_replace } => {
            w_u8(out, 19);
            w_bool(out, check_replace);
        }
        Instr::GetAttachDyn => w_u8(out, 20),
        Instr::ConsumeAttachDyn => w_u8(out, 21),
        Instr::GetAttachPresent => w_u8(out, 22),
        Instr::ConsumeAttachPresent => w_u8(out, 23),
        Instr::CurrentAttachments => w_u8(out, 24),
        Instr::EagerPushFrame => w_u8(out, 25),
        Instr::EagerPopFrame => w_u8(out, 26),
        Instr::EagerMarkSet => w_u8(out, 27),
        Instr::EagerCallShared(x) => {
            w_u8(out, 28);
            w_u16(out, x);
        }
    }
}

fn r_instr(rd: &mut Rd) -> Result<Instr, SnapshotError> {
    let op = rd.u8("instruction opcode")?;
    Ok(match op {
        0 => Instr::Const(rd.u16("const index")?),
        1 => Instr::LocalRef(rd.u16("local index")?),
        2 => Instr::LocalSet(rd.u16("local index")?),
        3 => Instr::CaptureRef(rd.u16("capture index")?),
        4 => Instr::GlobalRef(rd.u32("global id")?),
        5 => Instr::GlobalSet(rd.u32("global id")?),
        6 => Instr::MakeClosure {
            code: rd.u16("closure code index")?,
            captures: rd.u16("closure capture count")?,
        },
        7 => Instr::Jump(rd.u32("jump target")?),
        8 => Instr::JumpIfFalse(rd.u32("jump target")?),
        9 => Instr::Leave(rd.u16("leave count")?),
        10 => Instr::Pop,
        11 => Instr::Call(rd.u16("call argc")?),
        12 => Instr::TailCall(rd.u16("tail-call argc")?),
        13 => Instr::CallWithAttachment(rd.u16("call argc")?),
        14 => Instr::Return,
        15 => {
            let p = rd.u16("primitive id")?;
            let id = NativeId::from_index(p)
                .filter(|id| id.def().inlinable())
                .ok_or(SnapshotError::UnknownPrimitive(p))?;
            Instr::PrimCall(id, rd.u8("primitive argc")?)
        }
        16 => Instr::PushAttach,
        17 => Instr::PopAttach,
        18 => Instr::SetAttach,
        19 => Instr::ReifySetAttach {
            check_replace: rd.bool_("reify flag")?,
        },
        20 => Instr::GetAttachDyn,
        21 => Instr::ConsumeAttachDyn,
        22 => Instr::GetAttachPresent,
        23 => Instr::ConsumeAttachPresent,
        24 => Instr::CurrentAttachments,
        25 => Instr::EagerPushFrame,
        26 => Instr::EagerPopFrame,
        27 => Instr::EagerMarkSet,
        28 => Instr::EagerCallShared(rd.u16("eager call argc")?),
        other => return Err(malformed(format!("unknown opcode {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Config codec.
// ---------------------------------------------------------------------------

fn w_config(out: &mut Vec<u8>, c: &MachineConfig) {
    w_u8(
        out,
        match c.mark_model {
            MarkModel::Attachments => 0,
            MarkModel::EagerMarkStack => 1,
        },
    );
    w_bool(out, c.one_shot_fusion);
    w_u64(out, c.segment_frame_limit as u64);
    w_opt_u64(out, c.fuel);
    w_opt_u64(
        out,
        c.deadline
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
    );
    w_bool(out, c.wrapped_control);
    w_bool(out, c.check_invariants);
    w_opt_u64(out, c.fault_plan.fail_prim_at);
    w_bool(out, c.fault_plan.force_clone);
    w_bool(out, c.mark_flow_opt);
    w_bool(out, c.trace);
    w_u64(out, c.trace_capacity as u64);
    w_bool(out, c.gc_stress);
    w_opt_u64(out, c.max_heap_bytes);
}

fn r_config(rd: &mut Rd) -> Result<MachineConfig, SnapshotError> {
    let mark_model = match rd.u8("mark model")? {
        0 => MarkModel::Attachments,
        1 => MarkModel::EagerMarkStack,
        b => return Err(malformed(format!("unknown mark model {b}"))),
    };
    let one_shot_fusion = rd.bool_("one-shot fusion flag")?;
    let segment_frame_limit = rd.usize_("segment frame limit")?;
    let fuel = rd.opt_u64("fuel")?;
    let deadline = rd.opt_u64("deadline")?.map(Duration::from_nanos);
    let wrapped_control = rd.bool_("wrapped-control flag")?;
    let check_invariants = rd.bool_("invariant-check flag")?;
    let fail_prim_at = rd.opt_u64("fault plan prim counter")?;
    let force_clone = rd.bool_("fault plan force-clone flag")?;
    let mark_flow_opt = rd.bool_("mark-flow flag")?;
    let trace = rd.bool_("trace flag")?;
    let trace_capacity = rd.usize_("trace capacity")?;
    let gc_stress = rd.bool_("gc-stress flag")?;
    let max_heap_bytes = rd.opt_u64("heap limit")?;
    Ok(MachineConfig {
        mark_model,
        one_shot_fusion,
        segment_frame_limit,
        fuel,
        deadline,
        wrapped_control,
        check_invariants,
        fault_plan: FaultPlan {
            fail_prim_at,
            force_clone,
        },
        mark_flow_opt,
        trace,
        trace_capacity,
        gc_stress,
        max_heap_bytes,
    })
}

// ---------------------------------------------------------------------------
// Encoder.
// ---------------------------------------------------------------------------

/// FIFO-worklist encoder. Ids are assigned the first time an object is
/// referenced (which also enqueues it); records are emitted when the
/// queues drain, so per-kind record order always equals id order.
#[derive(Default)]
struct Enc {
    syms: Vec<Sym>,
    sym_ids: HashMap<Sym, u32>,

    code_q: Vec<Rc<Code>>,
    code_ids: HashMap<*const Code, u32>,
    code_cur: usize,
    code_buf: Vec<u8>,

    str_q: Vec<HStr>,
    str_ids: HashMap<u32, u32>,
    str_cur: usize,
    str_buf: Vec<u8>,

    pair_q: Vec<HPair>,
    pair_ids: HashMap<u32, u32>,
    pair_cur: usize,
    pair_buf: Vec<u8>,

    vec_q: Vec<HVec>,
    vec_ids: HashMap<u32, u32>,
    vec_cur: usize,
    vec_buf: Vec<u8>,

    box_q: Vec<HBox>,
    box_ids: HashMap<u32, u32>,
    box_cur: usize,
    box_buf: Vec<u8>,

    table_q: Vec<HTable>,
    table_ids: HashMap<u32, u32>,
    table_cur: usize,
    table_buf: Vec<u8>,

    rec_q: Vec<HRecord>,
    rec_ids: HashMap<u32, u32>,
    rec_cur: usize,
    rec_buf: Vec<u8>,

    clo_q: Vec<HClosure>,
    clo_ids: HashMap<u32, u32>,
    clo_cur: usize,
    clo_buf: Vec<u8>,

    cont_q: Vec<HCont>,
    cont_ids: HashMap<u32, u32>,
    cont_cur: usize,
    cont_buf: Vec<u8>,

    seg_q: Vec<Rc<Segment>>,
    seg_ids: HashMap<*const Segment, u32>,
    seg_cur: usize,
    seg_buf: Vec<u8>,

    under_q: Vec<Rc<Underflow>>,
    under_ids: HashMap<*const Underflow, u32>,
    under_cur: usize,
    under_buf: Vec<u8>,
}

/// The id of the object keyed `key` in its kind's queue `q`, enqueueing
/// it on first sight: ids are dense and in discovery order.
fn queue_id<K: Eq + std::hash::Hash, T>(
    ids: &mut HashMap<K, u32>,
    q: &mut Vec<T>,
    key: K,
    item: impl FnOnce() -> T,
) -> u32 {
    *ids.entry(key).or_insert_with(|| {
        q.push(item());
        (q.len() - 1) as u32
    })
}

impl Enc {
    fn sym_id(&mut self, s: Sym) -> u32 {
        queue_id(&mut self.sym_ids, &mut self.syms, s, || s)
    }

    fn code_id(&mut self, c: &Rc<Code>) -> u32 {
        queue_id(&mut self.code_ids, &mut self.code_q, Rc::as_ptr(c), || {
            c.clone()
        })
    }

    fn seg_id(&mut self, s: &Rc<Segment>) -> u32 {
        queue_id(&mut self.seg_ids, &mut self.seg_q, Rc::as_ptr(s), || {
            s.clone()
        })
    }

    /// One dedup table for every underflow record, keyed by `Rc`
    /// identity: records shared between the run's own chain and captured
    /// continuations are emitted once, so restore rebuilds the same
    /// sharing (preserving `eq?` on continuations and the strong counts
    /// that one-shot fusion keys off).
    fn under_id(&mut self, u: &Rc<Underflow>) -> u32 {
        queue_id(
            &mut self.under_ids,
            &mut self.under_q,
            Rc::as_ptr(u),
            || u.clone(),
        )
    }

    fn str_id(&mut self, h: HStr) -> u32 {
        queue_id(&mut self.str_ids, &mut self.str_q, h.0, || h)
    }

    fn pair_id(&mut self, h: HPair) -> u32 {
        queue_id(&mut self.pair_ids, &mut self.pair_q, h.0, || h)
    }

    fn vec_id(&mut self, h: HVec) -> u32 {
        queue_id(&mut self.vec_ids, &mut self.vec_q, h.0, || h)
    }

    fn box_id(&mut self, h: HBox) -> u32 {
        queue_id(&mut self.box_ids, &mut self.box_q, h.0, || h)
    }

    fn table_id(&mut self, h: HTable) -> u32 {
        queue_id(&mut self.table_ids, &mut self.table_q, h.0, || h)
    }

    fn rec_id(&mut self, h: HRecord) -> u32 {
        queue_id(&mut self.rec_ids, &mut self.rec_q, h.0, || h)
    }

    fn clo_id(&mut self, h: HClosure) -> u32 {
        queue_id(&mut self.clo_ids, &mut self.clo_q, h.0, || h)
    }

    fn cont_id(&mut self, h: HCont) -> u32 {
        queue_id(&mut self.cont_ids, &mut self.cont_q, h.0, || h)
    }

    fn val(&mut self, v: Value, out: &mut Vec<u8>) {
        match v {
            Value::Nil => w_u8(out, T_NIL),
            Value::Void => w_u8(out, T_VOID),
            Value::Eof => w_u8(out, T_EOF),
            Value::Bool(false) => w_u8(out, T_FALSE),
            Value::Bool(true) => w_u8(out, T_TRUE),
            Value::Fixnum(n) => {
                w_u8(out, T_FIXNUM);
                w_i64(out, n);
            }
            Value::Flonum(f) => {
                w_u8(out, T_FLONUM);
                w_u64(out, f.to_bits());
            }
            Value::Char(c) => {
                w_u8(out, T_CHAR);
                w_u32(out, c as u32);
            }
            Value::Sym(s) => {
                w_u8(out, T_SYM);
                let id = self.sym_id(s);
                w_u32(out, id);
            }
            Value::Str(h) => {
                w_u8(out, T_STR);
                let id = self.str_id(h);
                w_u32(out, id);
            }
            Value::Pair(h) => {
                w_u8(out, T_PAIR);
                let id = self.pair_id(h);
                w_u32(out, id);
            }
            Value::Vector(h) => {
                w_u8(out, T_VECTOR);
                let id = self.vec_id(h);
                w_u32(out, id);
            }
            Value::Box(h) => {
                w_u8(out, T_BOX);
                let id = self.box_id(h);
                w_u32(out, id);
            }
            Value::Table(h) => {
                w_u8(out, T_TABLE);
                let id = self.table_id(h);
                w_u32(out, id);
            }
            Value::Record(h) => {
                w_u8(out, T_RECORD);
                let id = self.rec_id(h);
                w_u32(out, id);
            }
            Value::Closure(h) => {
                w_u8(out, T_CLOSURE);
                let id = self.clo_id(h);
                w_u32(out, id);
            }
            Value::Native(id) => {
                w_u8(out, T_NATIVE);
                let name = cm_sexpr::sym(id.name());
                let sid = self.sym_id(name);
                w_u32(out, sid);
            }
            Value::Cont(h) => {
                w_u8(out, T_CONT);
                let id = self.cont_id(h);
                w_u32(out, id);
            }
        }
    }

    fn vals(&mut self, vs: &[Value], out: &mut Vec<u8>) {
        w_u32(out, vs.len() as u32);
        for v in vs {
            self.val(*v, out);
        }
    }

    fn frame(&mut self, f: &Frame, out: &mut Vec<u8>) {
        let code = self.code_id(&f.code);
        w_u32(out, code);
        match f.closure {
            Some(h) => {
                w_u8(out, 1);
                let id = self.clo_id(h);
                w_u32(out, id);
            }
            None => w_u8(out, 0),
        }
        w_u32(out, f.pc);
        w_u32(out, f.base);
    }

    fn frames(&mut self, fs: &[Frame], out: &mut Vec<u8>) {
        w_u32(out, fs.len() as u32);
        for f in fs {
            self.frame(f, out);
        }
    }

    fn entries(&mut self, es: &[MarkEntry], out: &mut Vec<u8>) {
        w_u32(out, es.len() as u32);
        for e in es {
            w_u32(out, e.len() as u32);
            for (k, v) in e {
                self.val(*k, out);
                self.val(*v, out);
            }
        }
    }

    fn winders(&mut self, ws: &[Winder], out: &mut Vec<u8>) {
        w_u32(out, ws.len() as u32);
        for w in ws {
            w_u64(out, w.id);
            self.val(w.pre, out);
            self.val(w.post, out);
            self.val(w.marks, out);
        }
    }

    fn seg(&mut self, s: &Segment, out: &mut Vec<u8>) {
        self.vals(&s.stack, out);
        self.frames(&s.frames, out);
        self.entries(&s.mark_entries, out);
    }

    fn meta(&mut self, mf: &MetaFrame, out: &mut Vec<u8>) {
        self.val(mf.tag, out);
        self.val(mf.handler, out);
        self.vals(&mf.stack, out);
        self.frames(&mf.frames, out);
        match &mf.next {
            Some(u) => {
                w_u8(out, 1);
                let id = self.under_id(u);
                w_u32(out, id);
            }
            None => w_u8(out, 0),
        }
        self.val(mf.marks, out);
        self.val(mf.base_marks, out);
        self.winders(&mf.winders, out);
        self.entries(&mf.mark_stack, out);
    }

    /// Processes every queue to exhaustion. Emitting one record can
    /// discover objects of any kind, so the outer loop repeats until a
    /// full pass makes no progress.
    fn drain(&mut self) {
        loop {
            let mut progress = false;

            while self.code_cur < self.code_q.len() {
                progress = true;
                let c = self.code_q[self.code_cur].clone();
                self.code_cur += 1;
                let mut buf = mem::take(&mut self.code_buf);
                w_str(&mut buf, &c.name);
                w_u16(&mut buf, c.arity_required);
                w_bool(&mut buf, c.rest);
                w_u32(&mut buf, c.instrs.len() as u32);
                for i in &c.instrs {
                    w_instr(&mut buf, i);
                }
                self.vals(&c.consts, &mut buf);
                w_u32(&mut buf, c.codes.len() as u32);
                for child in &c.codes {
                    let id = self.code_id(child);
                    w_u32(&mut buf, id);
                }
                self.code_buf = buf;
            }

            while self.str_cur < self.str_q.len() {
                progress = true;
                let h = self.str_q[self.str_cur];
                self.str_cur += 1;
                let s = h.get();
                let mut buf = mem::take(&mut self.str_buf);
                w_str(&mut buf, &s);
                self.str_buf = buf;
            }

            while self.pair_cur < self.pair_q.len() {
                progress = true;
                let h = self.pair_q[self.pair_cur];
                self.pair_cur += 1;
                let (car, cdr) = h.car_cdr();
                let mut buf = mem::take(&mut self.pair_buf);
                self.val(car, &mut buf);
                self.val(cdr, &mut buf);
                self.pair_buf = buf;
            }

            while self.vec_cur < self.vec_q.len() {
                progress = true;
                let h = self.vec_q[self.vec_cur];
                self.vec_cur += 1;
                let items = h.to_vec();
                let mut buf = mem::take(&mut self.vec_buf);
                self.vals(&items, &mut buf);
                self.vec_buf = buf;
            }

            while self.box_cur < self.box_q.len() {
                progress = true;
                let h = self.box_q[self.box_cur];
                self.box_cur += 1;
                let v = h.get();
                let mut buf = mem::take(&mut self.box_buf);
                self.val(v, &mut buf);
                self.box_buf = buf;
            }

            while self.table_cur < self.table_q.len() {
                progress = true;
                let h = self.table_q[self.table_cur];
                self.table_cur += 1;
                let entries = h.entries();
                let mut buf = mem::take(&mut self.table_buf);
                w_u32(&mut buf, entries.len() as u32);
                for (k, v) in entries {
                    self.val(k, &mut buf);
                    self.val(v, &mut buf);
                }
                self.table_buf = buf;
            }

            while self.rec_cur < self.rec_q.len() {
                progress = true;
                let h = self.rec_q[self.rec_cur];
                self.rec_cur += 1;
                let tag = h.tag();
                let fields = h.fields();
                let mut buf = mem::take(&mut self.rec_buf);
                let tid = self.sym_id(tag);
                w_u32(&mut buf, tid);
                self.vals(&fields, &mut buf);
                self.rec_buf = buf;
            }

            while self.clo_cur < self.clo_q.len() {
                progress = true;
                let h = self.clo_q[self.clo_cur];
                self.clo_cur += 1;
                let code = h.code();
                let captures = h.captures();
                let mut buf = mem::take(&mut self.clo_buf);
                let cid = self.code_id(&code);
                w_u32(&mut buf, cid);
                self.vals(&captures, &mut buf);
                self.clo_buf = buf;
            }

            while self.seg_cur < self.seg_q.len() {
                progress = true;
                let s = self.seg_q[self.seg_cur].clone();
                self.seg_cur += 1;
                let mut buf = mem::take(&mut self.seg_buf);
                self.seg(&s, &mut buf);
                self.seg_buf = buf;
            }

            while self.under_cur < self.under_q.len() {
                progress = true;
                let u = self.under_q[self.under_cur].clone();
                self.under_cur += 1;
                let seg = u.seg.borrow().clone();
                let mut buf = mem::take(&mut self.under_buf);
                match &seg {
                    Some(s) => {
                        w_u8(&mut buf, 1);
                        self.seg(s, &mut buf);
                    }
                    None => w_u8(&mut buf, 0),
                }
                self.val(u.marks, &mut buf);
                match &u.next {
                    Some(nx) => {
                        w_u8(&mut buf, 1);
                        let id = self.under_id(nx);
                        w_u32(&mut buf, id);
                    }
                    None => w_u8(&mut buf, 0),
                }
                self.under_buf = buf;
            }

            while self.cont_cur < self.cont_q.len() {
                progress = true;
                let h = self.cont_q[self.cont_cur];
                self.cont_cur += 1;
                let data = h.data();
                let mut buf = mem::take(&mut self.cont_buf);
                match &data.kind {
                    ContKind::Full { head } => {
                        w_u8(&mut buf, 0);
                        match head {
                            Some(u) => {
                                w_u8(&mut buf, 1);
                                let id = self.under_id(u);
                                w_u32(&mut buf, id);
                            }
                            None => w_u8(&mut buf, 0),
                        }
                    }
                    ContKind::Composable(comp) => {
                        w_u8(&mut buf, 1);
                        let id = self.seg_id(&comp.top_seg);
                        w_u32(&mut buf, id);
                        w_u32(&mut buf, comp.chain.len() as u32);
                        for rec in &comp.chain {
                            let sid = self.seg_id(&rec.seg);
                            w_u32(&mut buf, sid);
                            self.vals(&rec.marks_prefix, &mut buf);
                        }
                        self.vals(&comp.top_marks_prefix, &mut buf);
                    }
                }
                self.val(data.marks, &mut buf);
                self.val(data.base_marks, &mut buf);
                self.winders(&data.winders, &mut buf);
                w_u64(&mut buf, data.meta_depth as u64);
                match &data.one_shot_used {
                    Some(_) => {
                        w_u8(&mut buf, 1);
                        w_bool(&mut buf, h.one_shot_used());
                    }
                    None => w_u8(&mut buf, 0),
                }
                self.cont_buf = buf;
            }

            if !progress {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parsed (unresolved) payload.
// ---------------------------------------------------------------------------

struct RawCode {
    name: String,
    arity_required: u16,
    rest: bool,
    instrs: Vec<Instr>,
    consts: Vec<V>,
    children: Vec<u32>,
}

struct RawFrame {
    code: u32,
    closure: Option<u32>,
    pc: u32,
    base: u32,
}

struct RawSeg {
    stack: Vec<V>,
    frames: Vec<RawFrame>,
    mark_entries: Vec<Vec<(V, V)>>,
}

struct RawWinder {
    id: u64,
    pre: V,
    post: V,
    marks: V,
}

struct RawUnder {
    seg: Option<RawSeg>,
    marks: V,
    next: Option<u32>,
}

struct RawMeta {
    tag: V,
    handler: V,
    stack: Vec<V>,
    frames: Vec<RawFrame>,
    next: Option<u32>,
    marks: V,
    base_marks: V,
    winders: Vec<RawWinder>,
    mark_stack: Vec<Vec<(V, V)>>,
}

enum RawKind {
    Full {
        head: Option<u32>,
    },
    Comp {
        top_seg: u32,
        chain: Vec<(u32, Vec<V>)>,
        top_marks_prefix: Vec<V>,
    },
}

struct RawCont {
    kind: RawKind,
    marks: V,
    base_marks: V,
    winders: Vec<RawWinder>,
    meta_depth: u64,
    one_shot: Option<bool>,
}

struct RawRun {
    head: u32,
    base_marks: V,
    winders: Vec<RawWinder>,
    meta: Vec<RawMeta>,
}

struct Parsed {
    config: MachineConfig,
    winder_counter: u64,
    output: String,
    syms: Vec<String>,
    codes: Vec<RawCode>,
    strs: Vec<String>,
    pairs: Vec<(V, V)>,
    vecs: Vec<Vec<V>>,
    boxes: Vec<V>,
    tables: Vec<Vec<(V, V)>>,
    records: Vec<(u32, Vec<V>)>,
    closures: Vec<(u32, Vec<V>)>,
    segs: Vec<RawSeg>,
    unders: Vec<RawUnder>,
    conts: Vec<RawCont>,
    globals: Vec<(u32, Option<V>)>,
    run: RawRun,
}

fn r_code(rd: &mut Rd) -> Result<RawCode, SnapshotError> {
    let name = rd.str_("code name")?;
    let arity_required = rd.u16("code arity")?;
    let rest = rd.bool_("code rest flag")?;
    let n = rd.count("instruction list")?;
    let mut instrs = Vec::with_capacity(n);
    for _ in 0..n {
        instrs.push(r_instr(rd)?);
    }
    let consts = r_vs(rd, "constant list")?;
    let n = rd.count("child code list")?;
    let mut children = Vec::with_capacity(n);
    for _ in 0..n {
        children.push(rd.u32("child code id")?);
    }
    Ok(RawCode {
        name,
        arity_required,
        rest,
        instrs,
        consts,
        children,
    })
}

fn r_frame(rd: &mut Rd) -> Result<RawFrame, SnapshotError> {
    Ok(RawFrame {
        code: rd.u32("frame code id")?,
        closure: rd.opt_u32("frame closure")?,
        pc: rd.u32("frame pc")?,
        base: rd.u32("frame base")?,
    })
}

fn r_frames(rd: &mut Rd) -> Result<Vec<RawFrame>, SnapshotError> {
    let n = rd.count("frame list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r_frame(rd)?);
    }
    Ok(out)
}

fn r_entries(rd: &mut Rd) -> Result<Vec<Vec<(V, V)>>, SnapshotError> {
    let n = rd.count("mark entry list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let m = rd.count("mark entry")?;
        let mut entry = Vec::with_capacity(m);
        for _ in 0..m {
            let k = r_v(rd)?;
            let v = r_v(rd)?;
            entry.push((k, v));
        }
        out.push(entry);
    }
    Ok(out)
}

fn r_winders(rd: &mut Rd) -> Result<Vec<RawWinder>, SnapshotError> {
    let n = rd.count("winder list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(RawWinder {
            id: rd.u64("winder id")?,
            pre: r_v(rd)?,
            post: r_v(rd)?,
            marks: r_v(rd)?,
        });
    }
    Ok(out)
}

fn r_seg(rd: &mut Rd) -> Result<RawSeg, SnapshotError> {
    Ok(RawSeg {
        stack: r_vs(rd, "segment stack")?,
        frames: r_frames(rd)?,
        mark_entries: r_entries(rd)?,
    })
}

fn r_meta(rd: &mut Rd) -> Result<RawMeta, SnapshotError> {
    Ok(RawMeta {
        tag: r_v(rd)?,
        handler: r_v(rd)?,
        stack: r_vs(rd, "meta stack")?,
        frames: r_frames(rd)?,
        next: rd.opt_u32("meta chain")?,
        marks: r_v(rd)?,
        base_marks: r_v(rd)?,
        winders: r_winders(rd)?,
        mark_stack: r_entries(rd)?,
    })
}

fn r_under(rd: &mut Rd) -> Result<RawUnder, SnapshotError> {
    let seg = if rd.bool_("underflow segment flag")? {
        Some(r_seg(rd)?)
    } else {
        None
    };
    Ok(RawUnder {
        seg,
        marks: r_v(rd)?,
        next: rd.opt_u32("underflow chain")?,
    })
}

fn r_cont(rd: &mut Rd) -> Result<RawCont, SnapshotError> {
    let kind = match rd.u8("continuation kind")? {
        0 => RawKind::Full {
            head: rd.opt_u32("full continuation head")?,
        },
        1 => {
            let top_seg = rd.u32("composable top segment")?;
            let n = rd.count("composable chain")?;
            let mut chain = Vec::with_capacity(n);
            for _ in 0..n {
                let seg = rd.u32("chain segment id")?;
                let prefix = r_vs(rd, "chain marks prefix")?;
                chain.push((seg, prefix));
            }
            let top_marks_prefix = r_vs(rd, "top marks prefix")?;
            RawKind::Comp {
                top_seg,
                chain,
                top_marks_prefix,
            }
        }
        b => return Err(malformed(format!("unknown continuation kind {b}"))),
    };
    Ok(RawCont {
        kind,
        marks: r_v(rd)?,
        base_marks: r_v(rd)?,
        winders: r_winders(rd)?,
        meta_depth: rd.u64("meta depth")?,
        one_shot: if rd.bool_("one-shot flag")? {
            Some(rd.bool_("one-shot used")?)
        } else {
            None
        },
    })
}

fn parse(rd: &mut Rd) -> Result<Parsed, SnapshotError> {
    let config = r_config(rd)?;
    let winder_counter = rd.u64("winder counter")?;
    let output = rd.str_("output")?;

    let n = rd.count("symbol table")?;
    let mut syms = Vec::with_capacity(n);
    for _ in 0..n {
        syms.push(rd.str_("symbol name")?);
    }

    let n = rd.count("code table")?;
    let mut codes = Vec::with_capacity(n);
    for _ in 0..n {
        codes.push(r_code(rd)?);
    }

    let n = rd.count("string table")?;
    let mut strs = Vec::with_capacity(n);
    for _ in 0..n {
        strs.push(rd.str_("string contents")?);
    }

    let n = rd.count("pair table")?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let car = r_v(rd)?;
        let cdr = r_v(rd)?;
        pairs.push((car, cdr));
    }

    let n = rd.count("vector table")?;
    let mut vecs = Vec::with_capacity(n);
    for _ in 0..n {
        vecs.push(r_vs(rd, "vector items")?);
    }

    let n = rd.count("box table")?;
    let mut boxes = Vec::with_capacity(n);
    for _ in 0..n {
        boxes.push(r_v(rd)?);
    }

    let n = rd.count("hash table table")?;
    let mut tables = Vec::with_capacity(n);
    for _ in 0..n {
        let m = rd.count("hash table entries")?;
        let mut entries = Vec::with_capacity(m);
        for _ in 0..m {
            let k = r_v(rd)?;
            let v = r_v(rd)?;
            entries.push((k, v));
        }
        tables.push(entries);
    }

    let n = rd.count("record table")?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = rd.u32("record tag")?;
        let fields = r_vs(rd, "record fields")?;
        records.push((tag, fields));
    }

    let n = rd.count("closure table")?;
    let mut closures = Vec::with_capacity(n);
    for _ in 0..n {
        let code = rd.u32("closure code id")?;
        let captures = r_vs(rd, "closure captures")?;
        closures.push((code, captures));
    }

    let n = rd.count("shared segment table")?;
    let mut segs = Vec::with_capacity(n);
    for _ in 0..n {
        segs.push(r_seg(rd)?);
    }

    let n = rd.count("underflow table")?;
    let mut unders = Vec::with_capacity(n);
    for _ in 0..n {
        unders.push(r_under(rd)?);
    }

    let n = rd.count("continuation table")?;
    let mut conts = Vec::with_capacity(n);
    for _ in 0..n {
        conts.push(r_cont(rd)?);
    }

    let n = rd.count("global table")?;
    let mut globals = Vec::with_capacity(n);
    for _ in 0..n {
        let name = rd.u32("global name")?;
        let value = if rd.bool_("global bound flag")? {
            Some(r_v(rd)?)
        } else {
            None
        };
        globals.push((name, value));
    }

    let run = RawRun {
        head: rd.u32("run head")?,
        base_marks: r_v(rd)?,
        winders: r_winders(rd)?,
        meta: {
            let n = rd.count("meta frame list")?;
            let mut meta = Vec::with_capacity(n);
            for _ in 0..n {
                meta.push(r_meta(rd)?);
            }
            meta
        },
    };

    Ok(Parsed {
        config,
        winder_counter,
        output,
        syms,
        codes,
        strs,
        pairs,
        vecs,
        boxes,
        tables,
        records,
        closures,
        segs,
        unders,
        conts,
        globals,
        run,
    })
}

// ---------------------------------------------------------------------------
// Materializer: parsed payload -> live heap objects.
// ---------------------------------------------------------------------------

/// Decode tables mapping wire ids to freshly allocated heap objects.
/// Filled in phases: placeholders first (so cyclic graphs can be wired),
/// then codes, then contents.
struct Mat {
    syms: Vec<Sym>,
    strs: Vec<HStr>,
    pairs: Vec<HPair>,
    vecs: Vec<HVec>,
    boxes: Vec<HBox>,
    tables: Vec<HTable>,
    records: Vec<HRecord>,
    closures: Vec<HClosure>,
    conts: Vec<HCont>,
    codes: Vec<Rc<Code>>,
    segs: Vec<Rc<Segment>>,
    unders: Vec<Rc<Underflow>>,
}

impl Mat {
    fn sym(&self, i: u32) -> Result<Sym, SnapshotError> {
        self.syms
            .get(i as usize)
            .copied()
            .ok_or_else(|| malformed(format!("symbol id {i} out of range")))
    }

    fn code(&self, i: u32) -> Result<Rc<Code>, SnapshotError> {
        self.codes
            .get(i as usize)
            .cloned()
            .ok_or_else(|| malformed(format!("code id {i} out of range")))
    }

    fn seg(&self, i: u32) -> Result<Rc<Segment>, SnapshotError> {
        self.segs
            .get(i as usize)
            .cloned()
            .ok_or_else(|| malformed(format!("segment id {i} out of range")))
    }

    fn under(&self, i: u32) -> Result<Rc<Underflow>, SnapshotError> {
        self.unders
            .get(i as usize)
            .cloned()
            .ok_or_else(|| malformed(format!("underflow id {i} out of range")))
    }

    fn value(&self, v: V) -> Result<Value, SnapshotError> {
        Ok(match v {
            V::Nil => Value::Nil,
            V::Void => Value::Void,
            V::Eof => Value::Eof,
            V::Bool(b) => Value::Bool(b),
            V::Fix(n) => Value::Fixnum(n),
            V::Flo(bits) => Value::Flonum(f64::from_bits(bits)),
            V::Char(c) => Value::Char(c),
            V::Sym(i) => Value::Sym(self.sym(i)?),
            V::Str(i) => Value::Str(
                *self
                    .strs
                    .get(i as usize)
                    .ok_or_else(|| malformed(format!("string id {i} out of range")))?,
            ),
            V::Pair(i) => Value::Pair(
                *self
                    .pairs
                    .get(i as usize)
                    .ok_or_else(|| malformed(format!("pair id {i} out of range")))?,
            ),
            V::Vector(i) => Value::Vector(
                *self
                    .vecs
                    .get(i as usize)
                    .ok_or_else(|| malformed(format!("vector id {i} out of range")))?,
            ),
            V::Box(i) => Value::Box(
                *self
                    .boxes
                    .get(i as usize)
                    .ok_or_else(|| malformed(format!("box id {i} out of range")))?,
            ),
            V::Table(i) => Value::Table(
                *self
                    .tables
                    .get(i as usize)
                    .ok_or_else(|| malformed(format!("table id {i} out of range")))?,
            ),
            V::Record(i) => Value::Record(
                *self
                    .records
                    .get(i as usize)
                    .ok_or_else(|| malformed(format!("record id {i} out of range")))?,
            ),
            V::Closure(i) => Value::Closure(
                *self
                    .closures
                    .get(i as usize)
                    .ok_or_else(|| malformed(format!("closure id {i} out of range")))?,
            ),
            V::Native(i) => {
                let name = self.sym(i)?;
                match prims::lookup(name) {
                    Some(id) => Value::Native(id),
                    None => return Err(rejected(format!("unknown native `{}`", name.name()))),
                }
            }
            V::Cont(i) => Value::Cont(
                *self
                    .conts
                    .get(i as usize)
                    .ok_or_else(|| malformed(format!("continuation id {i} out of range")))?,
            ),
        })
    }

    fn values(&self, vs: &[V]) -> Result<Vec<Value>, SnapshotError> {
        vs.iter().map(|v| self.value(*v)).collect()
    }

    fn build_frame(&self, rf: &RawFrame) -> Result<Frame, SnapshotError> {
        Ok(Frame {
            code: self.code(rf.code)?,
            closure: match rf.closure {
                Some(i) => Some(
                    *self
                        .closures
                        .get(i as usize)
                        .ok_or_else(|| malformed(format!("closure id {i} out of range")))?,
                ),
                None => None,
            },
            pc: rf.pc,
            base: rf.base,
        })
    }

    fn build_entries(&self, es: &[Vec<(V, V)>]) -> Result<Vec<MarkEntry>, SnapshotError> {
        es.iter()
            .map(|e| {
                e.iter()
                    .map(|(k, v)| Ok((self.value(*k)?, self.value(*v)?)))
                    .collect()
            })
            .collect()
    }

    fn build_winders(&self, ws: &[RawWinder]) -> Result<Vec<Winder>, SnapshotError> {
        ws.iter()
            .map(|w| {
                Ok(Winder {
                    id: w.id,
                    pre: self.value(w.pre)?,
                    post: self.value(w.post)?,
                    marks: self.value(w.marks)?,
                })
            })
            .collect()
    }

    fn build_seg(&self, rs: &RawSeg, what: &str) -> Result<Segment, SnapshotError> {
        let stack = self.values(&rs.stack)?;
        let mut frames = Vec::with_capacity(rs.frames.len());
        for rf in &rs.frames {
            frames.push(self.build_frame(rf)?);
        }
        check_frames_well_formed(&frames, stack.len(), what)
            .map_err(|e| SnapshotError::Rejected { what: e })?;
        let mark_entries = self.build_entries(&rs.mark_entries)?;
        Ok(Segment {
            stack,
            frames,
            mark_entries,
        })
    }

    fn build_meta(&self, rm: &RawMeta) -> Result<MetaFrame, SnapshotError> {
        let stack = self.values(&rm.stack)?;
        let mut frames = Vec::with_capacity(rm.frames.len());
        for rf in &rm.frames {
            frames.push(self.build_frame(rf)?);
        }
        check_frames_well_formed(&frames, stack.len(), "restored meta frame")
            .map_err(|e| SnapshotError::Rejected { what: e })?;
        Ok(MetaFrame {
            tag: self.value(rm.tag)?,
            handler: self.value(rm.handler)?,
            stack,
            frames,
            next: match rm.next {
                Some(i) => Some(self.under(i)?),
                None => None,
            },
            marks: self.value(rm.marks)?,
            base_marks: self.value(rm.base_marks)?,
            winders: self.build_winders(&rm.winders)?,
            mark_stack: self.build_entries(&rm.mark_stack)?,
        })
    }
}

fn validate_instrs(
    instrs: &[Instr],
    n_consts: usize,
    n_children: usize,
) -> Result<(), SnapshotError> {
    for ins in instrs {
        let ok = match ins {
            Instr::Const(i) => (*i as usize) < n_consts,
            Instr::MakeClosure { code, .. } => (*code as usize) < n_children,
            Instr::Jump(t) | Instr::JumpIfFalse(t) => (*t as usize) < instrs.len(),
            _ => true,
        };
        if !ok {
            return Err(malformed("instruction operand out of range"));
        }
    }
    Ok(())
}

/// Rebuilds the full object graph from a parsed payload. Placeholders are
/// allocated first so arbitrary (even cyclic) reference graphs can be
/// wired; codes are built child-first; underflow chains bottom-up.
fn materialize(p: &Parsed) -> Result<Mat, SnapshotError> {
    fn handle<T>(v: Value, pick: impl FnOnce(Value) -> Option<T>) -> Result<T, SnapshotError> {
        // The constructors just below always return their own variant;
        // erroring (rather than panicking) keeps restore panic-free.
        pick(v).ok_or_else(|| malformed("allocation returned a foreign variant"))
    }

    let mut mat = Mat {
        syms: p.syms.iter().map(|s| cm_sexpr::sym(s)).collect(),
        strs: p
            .strs
            .iter()
            .map(|s| {
                handle(Value::string(s.clone()), |v| match v {
                    Value::Str(h) => Some(h),
                    _ => None,
                })
            })
            .collect::<Result<_, _>>()?,
        pairs: (0..p.pairs.len())
            .map(|_| {
                handle(Value::cons(Value::Nil, Value::Nil), |v| match v {
                    Value::Pair(h) => Some(h),
                    _ => None,
                })
            })
            .collect::<Result<_, _>>()?,
        vecs: p
            .vecs
            .iter()
            .map(|items| {
                handle(Value::vector(vec![Value::Nil; items.len()]), |v| match v {
                    Value::Vector(h) => Some(h),
                    _ => None,
                })
            })
            .collect::<Result<_, _>>()?,
        boxes: (0..p.boxes.len())
            .map(|_| {
                handle(Value::boxed(Value::Nil), |v| match v {
                    Value::Box(h) => Some(h),
                    _ => None,
                })
            })
            .collect::<Result<_, _>>()?,
        tables: (0..p.tables.len())
            .map(|_| {
                handle(Value::table(), |v| match v {
                    Value::Table(h) => Some(h),
                    _ => None,
                })
            })
            .collect::<Result<_, _>>()?,
        records: Vec::new(),
        closures: (0..p.closures.len())
            .map(|_| {
                handle(Value::closure(Closure::default()), |v| match v {
                    Value::Closure(h) => Some(h),
                    _ => None,
                })
            })
            .collect::<Result<_, _>>()?,
        conts: (0..p.conts.len())
            .map(|_| {
                handle(Value::cont(ContData::default()), |v| match v {
                    Value::Cont(h) => Some(h),
                    _ => None,
                })
            })
            .collect::<Result<_, _>>()?,
        codes: Vec::new(),
        segs: Vec::new(),
        unders: Vec::new(),
    };

    // Record placeholders need their (resolved) tag up front.
    let mut records = Vec::with_capacity(p.records.len());
    for (tag, fields) in &p.records {
        let tag = mat.sym(*tag)?;
        records.push(handle(
            Value::record(tag, vec![Value::Nil; fields.len()]),
            |v| match v {
                Value::Record(h) => Some(h),
                _ => None,
            },
        )?);
    }
    mat.records = records;

    // Codes: child-first (iterative DFS with cycle detection). Building
    // a code registers its constants with the collector, exactly as a
    // compiler-built code's are, so they live as long as the code.
    let n = p.codes.len();
    for rc in &p.codes {
        for &c in &rc.children {
            if c as usize >= n {
                return Err(malformed(format!("child code id {c} out of range")));
            }
        }
    }
    let mut built: Vec<Option<Rc<Code>>> = vec![None; n];
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = expanding, 2 = done
    for root in 0..n {
        if state[root] == 2 {
            continue;
        }
        let mut stack = vec![root];
        while let Some(&i) = stack.last() {
            match state[i] {
                2 => {
                    stack.pop();
                }
                1 => {
                    if p.codes[i].children.iter().any(|&c| state[c as usize] != 2) {
                        return Err(malformed("code graph contains a cycle"));
                    }
                    let raw = &p.codes[i];
                    let consts = mat.values(&raw.consts)?;
                    validate_instrs(&raw.instrs, consts.len(), raw.children.len())?;
                    let children: Vec<Rc<Code>> = raw
                        .children
                        .iter()
                        .map(|&c| {
                            built[c as usize]
                                .clone()
                                .ok_or_else(|| malformed("code child not built"))
                        })
                        .collect::<Result<_, _>>()?;
                    built[i] = Some(Code::build(
                        raw.name.clone(),
                        raw.arity_required,
                        raw.rest,
                        raw.instrs.clone(),
                        consts,
                        children,
                    ));
                    state[i] = 2;
                    stack.pop();
                }
                _ => {
                    state[i] = 1;
                    for &c in &p.codes[i].children {
                        let c = c as usize;
                        match state[c] {
                            0 => stack.push(c),
                            1 => return Err(malformed("code graph contains a cycle")),
                            _ => {}
                        }
                    }
                }
            }
        }
    }
    mat.codes = built
        .into_iter()
        .map(|c| c.ok_or_else(|| malformed("unbuilt code record")))
        .collect::<Result<_, _>>()?;

    // Fill the simple kinds now that every handle and code exists.
    for (i, (car, cdr)) in p.pairs.iter().enumerate() {
        let h = mat.pairs[i];
        h.set_car(mat.value(*car)?);
        h.set_cdr(mat.value(*cdr)?);
    }
    for (i, items) in p.vecs.iter().enumerate() {
        let h = mat.vecs[i];
        for (j, v) in items.iter().enumerate() {
            h.set(j, mat.value(*v)?);
        }
    }
    for (i, v) in p.boxes.iter().enumerate() {
        mat.boxes[i].set(mat.value(*v)?);
    }
    for (i, entries) in p.tables.iter().enumerate() {
        let h = mat.tables[i];
        for (k, v) in entries {
            // `insert` recomputes the eq-key from the rebuilt key value.
            h.insert(mat.value(*k)?, mat.value(*v)?);
        }
    }
    for (i, (_, fields)) in p.records.iter().enumerate() {
        let h = mat.records[i];
        for (j, v) in fields.iter().enumerate() {
            h.set_field(j, mat.value(*v)?);
        }
    }
    for (i, (code, captures)) in p.closures.iter().enumerate() {
        let code = mat.code(*code)?;
        let captures = mat.values(captures)?;
        heap::set_closure(mat.closures[i], Closure { code, captures });
    }

    // Shared segments (referenced by composable continuations).
    let mut segs = Vec::with_capacity(p.segs.len());
    for rs in &p.segs {
        segs.push(Rc::new(mat.build_seg(rs, "restored shared segment")?));
    }
    mat.segs = segs;

    // Underflow records: each chain is built bottom-up so `next` links
    // are `Rc` clones of already-built records (restoring the sharing the
    // encoder deduplicated on).
    let n = p.unders.len();
    for ru in &p.unders {
        if let Some(nx) = ru.next {
            if nx as usize >= n {
                return Err(malformed(format!("underflow id {nx} out of range")));
            }
        }
    }
    let mut unders: Vec<Option<Rc<Underflow>>> = vec![None; n];
    for start in 0..n {
        let mut path: Vec<usize> = Vec::new();
        let mut cur = Some(start);
        while let Some(i) = cur {
            if unders[i].is_some() {
                break;
            }
            if path.contains(&i) {
                return Err(malformed("underflow chain contains a cycle"));
            }
            path.push(i);
            cur = p.unders[i].next.map(|nx| nx as usize);
        }
        for &i in path.iter().rev() {
            let raw = &p.unders[i];
            let next = match raw.next {
                Some(nx) => Some(
                    unders[nx as usize]
                        .clone()
                        .ok_or_else(|| malformed("underflow chain not built"))?,
                ),
                None => None,
            };
            let seg = match &raw.seg {
                Some(rs) => Some(Rc::new(mat.build_seg(rs, "restored segment")?)),
                None => None,
            };
            unders[i] = Some(Rc::new(Underflow {
                seg: RefCell::new(seg),
                marks: mat.value(raw.marks)?,
                next,
            }));
        }
    }
    mat.unders = unders
        .into_iter()
        .map(|u| u.ok_or_else(|| malformed("unbuilt underflow record")))
        .collect::<Result<_, _>>()?;

    // Continuation payloads, now that chains and segments exist.
    for (i, rc) in p.conts.iter().enumerate() {
        let kind = match &rc.kind {
            RawKind::Full { head } => ContKind::Full {
                head: match head {
                    Some(i) => Some(mat.under(*i)?),
                    None => None,
                },
            },
            RawKind::Comp {
                top_seg,
                chain,
                top_marks_prefix,
            } => ContKind::Composable(CompData {
                top_seg: mat.seg(*top_seg)?,
                chain: chain
                    .iter()
                    .map(|(s, pfx)| {
                        Ok(CompChainRec {
                            seg: mat.seg(*s)?,
                            marks_prefix: mat.values(pfx)?,
                        })
                    })
                    .collect::<Result<Vec<_>, SnapshotError>>()?,
                top_marks_prefix: mat.values(top_marks_prefix)?,
            }),
        };
        let meta_depth =
            usize::try_from(rc.meta_depth).map_err(|_| malformed("meta depth exceeds usize"))?;
        heap::set_cont_data(
            mat.conts[i],
            ContData {
                kind,
                marks: mat.value(rc.marks)?,
                base_marks: mat.value(rc.base_marks)?,
                winders: mat.build_winders(&rc.winders)?,
                meta_depth,
                one_shot_used: rc.one_shot.map(Cell::new),
            },
        );
    }

    Ok(mat)
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

fn check_header(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 4 {
        return Err(SnapshotError::Truncated { at: "magic" });
    }
    if &bytes[..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut rd = Rd { b: bytes, pos: 4 };
    let version = rd.u32("version")?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let payload_len = rd.u64("payload length")?;
    let expected = rd.u64("checksum")?;
    let payload = &bytes[rd.pos..];
    if (payload.len() as u64) < payload_len {
        return Err(SnapshotError::Truncated { at: "payload" });
    }
    if (payload.len() as u64) > payload_len {
        return Err(malformed("trailing bytes after payload"));
    }
    let actual = fnv1a64(payload);
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

impl Machine {
    /// Serializes a suspended run — plus this machine's config, globals,
    /// accumulated output, and winder counter — into a self-contained,
    /// versioned, checksummed byte buffer. The run is left untouched and
    /// can still be resumed normally; the bytes can be handed to
    /// [`Machine::restore_snapshot`] at any later point, on any thread.
    pub fn snapshot_suspended(&mut self, run: &SuspendedRun) -> Result<Vec<u8>, SnapshotError> {
        self.trace(TraceKind::Snapshot);
        let mut enc = Enc::default();

        // Encode the two root sections first; id assignment enqueues
        // every reachable object for `drain`.
        let slots: Vec<(Sym, Option<Value>)> = self.globals.borrow().bindings().to_vec();
        let mut g_buf = Vec::new();
        w_u32(&mut g_buf, slots.len() as u32);
        for (name, val) in slots {
            let sid = enc.sym_id(name);
            w_u32(&mut g_buf, sid);
            match val {
                Some(v) => {
                    w_u8(&mut g_buf, 1);
                    enc.val(v, &mut g_buf);
                }
                None => w_u8(&mut g_buf, 0),
            }
        }

        let mut r_buf = Vec::new();
        let head = enc.under_id(&run.head);
        w_u32(&mut r_buf, head);
        enc.val(run.base_marks, &mut r_buf);
        enc.winders(&run.winders, &mut r_buf);
        w_u32(&mut r_buf, run.meta.len() as u32);
        for mf in &run.meta {
            enc.meta(mf, &mut r_buf);
        }

        enc.drain();

        let mut p = Vec::new();
        w_config(&mut p, &self.config);
        w_u64(&mut p, self.winder_counter);
        w_str(&mut p, &self.output);
        w_u32(&mut p, enc.syms.len() as u32);
        for s in &enc.syms {
            w_str(&mut p, s.name());
        }
        w_u32(&mut p, enc.code_q.len() as u32);
        p.extend_from_slice(&enc.code_buf);
        w_u32(&mut p, enc.str_q.len() as u32);
        p.extend_from_slice(&enc.str_buf);
        w_u32(&mut p, enc.pair_q.len() as u32);
        p.extend_from_slice(&enc.pair_buf);
        w_u32(&mut p, enc.vec_q.len() as u32);
        p.extend_from_slice(&enc.vec_buf);
        w_u32(&mut p, enc.box_q.len() as u32);
        p.extend_from_slice(&enc.box_buf);
        w_u32(&mut p, enc.table_q.len() as u32);
        p.extend_from_slice(&enc.table_buf);
        w_u32(&mut p, enc.rec_q.len() as u32);
        p.extend_from_slice(&enc.rec_buf);
        w_u32(&mut p, enc.clo_q.len() as u32);
        p.extend_from_slice(&enc.clo_buf);
        w_u32(&mut p, enc.seg_q.len() as u32);
        p.extend_from_slice(&enc.seg_buf);
        w_u32(&mut p, enc.under_q.len() as u32);
        p.extend_from_slice(&enc.under_buf);
        w_u32(&mut p, enc.cont_q.len() as u32);
        p.extend_from_slice(&enc.cont_buf);
        p.extend_from_slice(&g_buf);
        p.extend_from_slice(&r_buf);

        let mut out = Vec::with_capacity(p.len() + 24);
        out.extend_from_slice(MAGIC);
        w_u32(&mut out, SNAPSHOT_VERSION);
        w_u64(&mut out, p.len() as u64);
        w_u64(&mut out, fnv1a64(&p));
        out.extend_from_slice(&p);
        Ok(out)
    }

    /// Rebuilds a machine and suspended run from snapshot bytes. Every
    /// handle is relocated into freshly allocated heap slots (the target
    /// thread's heap — restoring on a different thread than the snapshot
    /// is fully supported), natives are re-resolved by name, and globals
    /// are re-interned in slot order so the restored bytecode's global
    /// ids stay valid. Corrupted or truncated input yields a typed error;
    /// this function does not panic on any byte sequence.
    pub fn restore_snapshot(bytes: &[u8]) -> Result<RestoredRun, SnapshotError> {
        let payload = check_header(bytes)?;
        let mut rd = Rd { b: payload, pos: 0 };
        let parsed = parse(&mut rd)?;
        if rd.remaining() != 0 {
            return Err(malformed("trailing bytes after run section"));
        }

        // Decode allocations are ordinary objects: what the globals, the
        // codes and the run's root guard below do not reach is garbage.
        let mat = materialize(&parsed)?;

        // Rebuild globals: `with_globals` installs the natives (interning
        // their names first, in install order — the same prefix the
        // snapshot's slot order starts with, because the source machine
        // was built the same way), then snapshot slots are re-interned in
        // order. A slot landing on a different id would silently retarget
        // every GlobalRef/GlobalSet in the restored bytecode, so any
        // mismatch is a hard rejection.
        let globals = Rc::new(RefCell::new(Globals::new()));
        let mut machine = Machine::with_globals(parsed.config.clone(), globals);
        {
            let mut g = machine.globals.borrow_mut();
            for (i, (sidx, val)) in parsed.globals.iter().enumerate() {
                let name = mat.sym(*sidx)?;
                let id = g.intern(name);
                if id as usize != i {
                    return Err(rejected(format!(
                        "global slot order mismatch at {i} (`{}`)",
                        name.name()
                    )));
                }
                if let Some(v) = val {
                    let v = mat.value(*v)?;
                    g.set(id, v);
                }
            }
        }
        machine.winder_counter = parsed.winder_counter;
        machine.output = parsed.output.clone();
        machine.trace(TraceKind::Restore);

        let head = mat.under(parsed.run.head)?;
        if head
            .seg
            .borrow()
            .as_ref()
            .is_none_or(|s| s.frames.is_empty())
        {
            return Err(rejected("suspended head has no live frames"));
        }
        let base_marks = mat.value(parsed.run.base_marks)?;
        let winders = mat.build_winders(&parsed.run.winders)?;
        let meta: Vec<MetaFrame> = parsed
            .run
            .meta
            .iter()
            .map(|rm| mat.build_meta(rm))
            .collect::<Result<_, _>>()?;

        // Root the rebuilt run exactly as `finish_slice` roots a live
        // suspension, so it survives collections until resumed.
        let mut roots = Vec::new();
        push_chain_roots(&Some(head.clone()), &mut roots);
        roots.push(base_marks);
        push_winder_roots(&winders, &mut roots);
        for mf in &meta {
            push_meta_roots(mf, &mut roots);
        }
        // A restored run starts a fresh primitive count and deadline, as
        // a run on a new machine does.
        machine.arm_limits();
        let run = SuspendedRun {
            head,
            base_marks,
            winders,
            meta,
            prim_count: machine.prim_count,
            deadline_at: machine.deadline_at,
            _roots: heap::add_extra_roots(roots),
        };

        Ok(RestoredRun {
            machine,
            run,
            codes: mat.codes.clone(),
            code_captures: capture_bounds(&parsed),
        })
    }
}

/// Computes [`RestoredRun::code_captures`] from the parsed payload: the
/// minimum capture count across every closure and frame instantiating
/// each code. A frame running without a closure instantiates its code
/// with zero addressable captures.
fn capture_bounds(p: &Parsed) -> Vec<Option<u32>> {
    fn tighten(bounds: &mut [Option<u32>], code: u32, n: usize) {
        if let Some(slot) = bounds.get_mut(code as usize) {
            let n = u32::try_from(n).unwrap_or(u32::MAX);
            *slot = Some(slot.map_or(n, |prev| prev.min(n)));
        }
    }
    let mut bounds = vec![None; p.codes.len()];
    for (code, captures) in &p.closures {
        tighten(&mut bounds, *code, captures.len());
    }
    let frame = |bounds: &mut [Option<u32>], f: &RawFrame| {
        let n = f
            .closure
            .and_then(|cid| p.closures.get(cid as usize))
            .map_or(0, |(_, caps)| caps.len());
        tighten(bounds, f.code, n);
    };
    for seg in &p.segs {
        for f in &seg.frames {
            frame(&mut bounds, f);
        }
    }
    for under in &p.unders {
        if let Some(seg) = &under.seg {
            for f in &seg.frames {
                frame(&mut bounds, f);
            }
        }
    }
    for meta in &p.run.meta {
        for f in &meta.frames {
            frame(&mut bounds, f);
        }
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::super::RunStatus;
    use super::*;
    use crate::heap::Rooted;

    /// A program exercising globals, attachments, and a heap constant:
    /// sets a global to 40, then computes (+ (+ 2 40) (cdr '(3 . 8)))
    /// under a pushed attachment. Result: 50.
    fn sample_program(m: &mut Machine) -> (Rc<Code>, u32) {
        let gid = m.globals.borrow_mut().intern(cm_sexpr::sym("snapshot-acc"));
        let instrs = vec![
            Instr::Const(0),
            Instr::GlobalSet(gid),
            Instr::Const(3),
            Instr::PushAttach,
            Instr::Const(1),
            Instr::GlobalRef(gid),
            Instr::PrimCall(NativeId::named("+"), 2),
            Instr::Const(2),
            Instr::PrimCall(NativeId::named("cdr"), 1),
            Instr::PrimCall(NativeId::named("+"), 2),
            Instr::PopAttach,
            Instr::Return,
        ];
        let consts = vec![
            Value::fixnum(40),
            Value::fixnum(2),
            Value::cons(Value::fixnum(3), Value::fixnum(8)),
            Value::symbol("m"),
        ];
        let code = Code::build("snap-prog", 0, false, instrs, consts, vec![]);
        (code, gid)
    }

    fn suspend_after(m: &mut Machine, code: Rc<Code>, steps: usize) -> SuspendedRun {
        let mut status = m.run_code_sliced(code, 1).expect("first slice");
        for _ in 1..steps {
            match status {
                RunStatus::Suspended(run) => status = m.resume(run, 1).expect("resume slice"),
                RunStatus::Done(_) => panic!("program finished before target suspension"),
            }
        }
        match status {
            RunStatus::Suspended(run) => run,
            RunStatus::Done(_) => panic!("program finished before target suspension"),
        }
    }

    fn finish(m: &mut Machine, run: SuspendedRun) -> Rooted {
        match m.resume(run, u64::MAX).expect("resume to completion") {
            RunStatus::Done(v) => v,
            RunStatus::Suspended(_) => panic!("did not finish"),
        }
    }

    #[test]
    fn round_trip_resumes_to_same_result() {
        let mut m = Machine::new(MachineConfig::default());
        let (code, gid) = sample_program(&mut m);
        let run = suspend_after(&mut m, code, 4);
        let bytes = m.snapshot_suspended(&run).expect("snapshot");
        assert_eq!(m.stats.snapshots, 1);
        drop(run); // the "crash": the live machine state is gone

        let restored = Machine::restore_snapshot(&bytes).expect("restore");
        let RestoredRun {
            mut machine, run, ..
        } = restored;
        assert_eq!(machine.stats.restores, 1);
        // The mid-run global write survived in the restored global table.
        let g = machine
            .globals
            .borrow()
            .get(gid)
            .copied()
            .expect("global bound");
        assert!(g.eq_value(&Value::fixnum(40)));
        drop(m);
        let v = finish(&mut machine, run);
        assert!(v.eq_value(&Value::fixnum(50)), "got {v:?}");
    }

    #[test]
    fn snapshot_at_every_suspension_point_restores_identically() {
        // Baseline: uninterrupted run.
        let mut base = Machine::new(MachineConfig::default());
        let (code, _) = sample_program(&mut base);
        let expect = match base.run_code_sliced(code, u64::MAX).expect("straight run") {
            RunStatus::Done(v) => v,
            RunStatus::Suspended(_) => panic!("straight run suspended"),
        };

        for cut in 1..=11 {
            let mut m = Machine::new(MachineConfig::default());
            let (code, _) = sample_program(&mut m);
            let run = suspend_after(&mut m, code, cut);
            let bytes = m.snapshot_suspended(&run).expect("snapshot");
            drop(run);
            drop(m);
            let RestoredRun {
                mut machine, run, ..
            } = Machine::restore_snapshot(&bytes).expect("restore");
            let v = finish(&mut machine, run);
            assert!(v.eq_value(&expect), "cut {cut}: {v:?} != {expect:?}");
        }
    }

    #[test]
    fn restore_on_a_fresh_thread_relocates_handles() {
        let mut m = Machine::new(MachineConfig::default());
        let (code, _) = sample_program(&mut m);
        let run = suspend_after(&mut m, code, 6);
        let bytes = m.snapshot_suspended(&run).expect("snapshot");
        drop(run);
        // A spawned thread has a completely fresh heap: every wire id
        // must relocate, and nothing may lean on the source thread's
        // slots.
        let ok = std::thread::spawn(move || {
            let RestoredRun {
                mut machine, run, ..
            } = Machine::restore_snapshot(&bytes).expect("restore on fresh thread");
            let v = finish(&mut machine, run);
            v.eq_value(&Value::fixnum(50))
        })
        .join()
        .expect("restore thread");
        assert!(ok);
    }

    #[test]
    fn snapshot_leaves_run_resumable() {
        let mut m = Machine::new(MachineConfig::default());
        let (code, _) = sample_program(&mut m);
        let run = suspend_after(&mut m, code, 5);
        let _bytes = m.snapshot_suspended(&run).expect("snapshot");
        // Snapshotting is a pure read: the original run still resumes.
        let v = finish(&mut m, run);
        assert!(v.eq_value(&Value::fixnum(50)));
    }

    fn snapshot_bytes() -> Vec<u8> {
        let mut m = Machine::new(MachineConfig::default());
        let (code, _) = sample_program(&mut m);
        let run = suspend_after(&mut m, code, 4);
        m.snapshot_suspended(&run).expect("snapshot")
    }

    #[test]
    fn version_two_snapshots_are_refused() {
        // Version 2 carried a nested-execution limit in the config and a
        // nested depth in every continuation.
        let mut bytes = snapshot_bytes();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            Machine::restore_snapshot(&bytes),
            Err(SnapshotError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn corrupted_header_yields_typed_errors() {
        let bytes = snapshot_bytes();

        assert!(matches!(
            Machine::restore_snapshot(&[]),
            Err(SnapshotError::Truncated { at: "magic" })
        ));

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Machine::restore_snapshot(&bad),
            Err(SnapshotError::BadMagic)
        ));

        let mut bad = bytes.clone();
        bad[4] = 0xEE;
        assert!(matches!(
            Machine::restore_snapshot(&bad),
            Err(SnapshotError::UnsupportedVersion(_))
        ));

        assert!(matches!(
            Machine::restore_snapshot(&bytes[..bytes.len() - 5]),
            Err(SnapshotError::Truncated { .. })
        ));

        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            Machine::restore_snapshot(&bad),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        let mut bad = bytes;
        bad.push(0);
        assert!(matches!(
            Machine::restore_snapshot(&bad),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn snapshot_naming_a_primitive_past_the_table_is_refused() {
        let mut bytes = snapshot_bytes();
        let add = NativeId::named("+").0.to_le_bytes();
        let at = bytes
            .windows(4)
            .position(|w| w == [15, add[0], add[1], 2])
            .expect("an encoded (prim + argc=2)");
        bytes[at + 1..at + 3].copy_from_slice(&u16::MAX.to_le_bytes());
        // Re-seal the payload so that only the id check can refuse it.
        let sum = fnv1a64(&bytes[24..]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Machine::restore_snapshot(&bytes).err(),
            Some(SnapshotError::UnknownPrimitive(u16::MAX))
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = snapshot_bytes();
        for n in 0..bytes.len() {
            match Machine::restore_snapshot(&bytes[..n]) {
                Err(_) => {}
                Ok(_) => panic!("truncation to {n} bytes restored successfully"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let bytes = snapshot_bytes();
        // Header flips hit magic/version/length/checksum checks; payload
        // flips hit the checksum. Step through offsets to keep this fast.
        for off in (0..bytes.len()).step_by(3) {
            for bit in [0u8, 3, 7] {
                let mut bad = bytes.clone();
                bad[off] ^= 1 << bit;
                if bad == bytes {
                    continue;
                }
                match Machine::restore_snapshot(&bad) {
                    Err(_) => {}
                    Ok(_) => panic!("bit flip at {off}:{bit} restored successfully"),
                }
            }
        }
    }

    #[test]
    fn snapshot_error_displays_are_stable() {
        assert_eq!(
            SnapshotError::BadMagic.to_string(),
            "not a cm-snapshot (bad magic)"
        );
        assert_eq!(
            SnapshotError::Truncated { at: "payload" }.to_string(),
            "snapshot truncated while reading payload"
        );
        assert!(SnapshotError::UnsupportedVersion(9)
            .to_string()
            .contains("version 9"));
    }
}
