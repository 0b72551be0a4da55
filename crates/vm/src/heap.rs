//! The handle-based value heap: typed handles into per-kind object
//! slabs, collected by a gray-stack mark-sweep tracer.
//!
//! Every heap-allocated [`Value`] variant (strings, pairs, vectors,
//! boxes, tables, records, closures, continuations) is a `Copy`-able
//! 32-bit handle into a slab owned by the thread's [`Heap`]. Allocation
//! is a free-list pop or a `Vec` push — no per-object reference counting,
//! no `Rc` traffic on the mark/attachment hot paths — and `eq?` is
//! handle identity.
//!
//! # Collection policy
//!
//! The collector only runs at *safe points*: instruction boundaries in
//! the interpreter loop, where the machine can enumerate every live edge. Mid-instruction Rust locals
//! never face a collection; the allocator merely raises a thread-local
//! `should_collect` flag when the since-last-collection byte volume
//! crosses the threshold, and the machine collects at its next boundary.
//! [`MachineConfig::gc_stress`](crate::MachineConfig) forces a collection
//! at *every* safe point, so any missing root surfaces deterministically
//! (freed slots are poisoned: a stale handle is caught by the slab's
//! liveness check instead of silently aliasing a reused slot).
//!
//! # Rooting rule
//!
//! A heap object lives while one of these reaches it, and no longer:
//!
//! * a machine: its operand stack, frame closures, the marks/attachment
//!   registers, winders, meta frames, the underflow chain, and the eager
//!   mark stack (`Machine::gather_roots`). A continuation jump that
//!   crosses winders keeps its continuation and value in the frames of
//!   the prelude's `$wind-to`, so nothing it holds needs pinning;
//! * a registered [`Globals`] table (weakly registered per machine, so
//!   idle engines sharing the thread keep their global bindings);
//! * a [`RootGuard`]: every live `SuspendedRun` holds one over its frozen
//!   state, and every [`Rooted`] result a run hands its embedder holds
//!   one over the value;
//! * a live [`Code`]: its constant pool. [`Code::build`] registers each
//!   code that has heap constants in a weak registry (nested codes on
//!   their own, because a closure outlives the code that built it), so a
//!   constant lives exactly as long as some `Rc` holds its code. Dead
//!   entries are pruned at each collection.
//!
//! Nothing else is a root. Values an embedder builds outside a run,
//! compile-time constants and interned string literals are ordinary
//! collectable objects.
//!
//! Shared `Rc` spines (underflow records, composable-continuation
//! segments) are walked with per-collection visited sets; the values they
//! carry are marked through the ordinary gray stack.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::rc::{Rc, Weak};

use cm_sexpr::Sym;

use crate::code::Code;
use crate::machine::control::{ContData, ContKind, Segment, Underflow, Winder};
use crate::machine::{Frame, Globals, MarkEntry};
use crate::values::{EqKey, Value};

/// A record payload: a type tag plus mutable fields.
#[derive(Debug, Clone)]
pub struct RecordData {
    /// The record's type tag (compared with `eq?`).
    pub tag: Sym,
    /// The record's fields.
    pub fields: Vec<Value>,
}

impl Default for RecordData {
    fn default() -> RecordData {
        RecordData {
            tag: cm_sexpr::sym("$freed"),
            fields: Vec::new(),
        }
    }
}

/// A compiled closure payload: code plus captured free-variable values.
#[derive(Clone)]
pub struct Closure {
    /// The compiled body.
    pub code: Rc<Code>,
    /// Captured free variables (boxes when mutated).
    pub captures: Vec<Value>,
}

/// The poison closure handed out by a freed slot in release builds: an
/// empty `$freed` code object whose execution fails cleanly instead of
/// aliasing a reused slot. (Built while the heap is being created: a code
/// without heap constants never touches the code registry.)
impl Default for Closure {
    fn default() -> Closure {
        Closure {
            code: Code::build("$freed", 0, false, Vec::new(), Vec::new(), Vec::new()),
            captures: Vec::new(),
        }
    }
}

impl std::fmt::Debug for Closure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#<procedure {}>", self.code.name)
    }
}

/// A pair payload.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PairData {
    pub car: Value,
    pub cdr: Value,
}

/// An `eq?` table payload: key identity → (key value, stored value). The
/// key *value* is retained so the collector keeps table keys alive
/// (identity-keyed entries would otherwise dangle when a key's slot is
/// reused).
///
/// Entries iterate in insertion order (an update keeps its original
/// position). `EqKey`s embed heap slot indices, which relocate across a
/// snapshot/restore, so a hash-ordered walk would serialize the same
/// table differently on every machine; insertion order survives the
/// round trip and keeps snapshot bytes canonical.
#[derive(Default)]
pub(crate) struct TableData {
    index: HashMap<EqKey, u32>,
    entries: Vec<(EqKey, Value, Value)>,
}

impl TableData {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn get(&self, key: &EqKey) -> Option<Value> {
        self.index.get(key).map(|&i| self.entries[i as usize].2)
    }

    pub(crate) fn insert(&mut self, key: EqKey, kv: (Value, Value)) {
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(slot) => {
                let i = *slot.get() as usize;
                self.entries[i] = (key, kv.0, kv.1);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.entries.len() as u32);
                self.entries.push((key, kv.0, kv.1));
            }
        }
    }

    pub(crate) fn remove(&mut self, key: &EqKey) -> bool {
        let Some(i) = self.index.remove(key) else {
            return false;
        };
        self.entries.remove(i as usize);
        for idx in self.index.values_mut() {
            if *idx > i {
                *idx -= 1;
            }
        }
        true
    }

    pub(crate) fn contains_key(&self, key: &EqKey) -> bool {
        self.index.contains_key(key)
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = (Value, Value)> + '_ {
        self.entries.iter().map(|&(_, k, v)| (k, v))
    }
}

// ---------------------------------------------------------------------------
// Slabs
// ---------------------------------------------------------------------------

/// One heap slot: the payload plus its mark bit. A freed slot holds
/// `None`, so any use-after-free through a stale handle is caught by the
/// accessor's liveness check rather than aliasing a reused slot.
struct Slot<T> {
    val: Option<T>,
    mark: bool,
}

/// A per-kind object slab with a free list.
struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    /// Live (occupied) slot count.
    live: u32,
    /// The value handed out on a freed-slot access in release builds
    /// (debug builds assert first). Accessing a freed slot is always a
    /// collector/rooting bug; degrading to a poison value keeps the VM's
    /// panic-free guarantee while the differential harnesses surface the
    /// wrong answer.
    poison: T,
}

impl<T: Default> Default for Slab<T> {
    fn default() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            poison: T::default(),
        }
    }
}

impl<T> Slab<T> {
    #[inline]
    fn alloc(&mut self, val: T) -> u32 {
        self.live += 1;
        if let Some(i) = self.free.pop() {
            let s = &mut self.slots[i as usize];
            debug_assert!(s.val.is_none(), "free-list slot still occupied");
            s.val = Some(val);
            s.mark = false;
            i
        } else {
            debug_assert!(self.slots.len() < u32::MAX as usize, "slab exhausted");
            self.slots.push(Slot {
                val: Some(val),
                mark: false,
            });
            (self.slots.len() - 1) as u32
        }
    }

    #[track_caller]
    #[inline]
    fn get(&self, i: u32) -> &T {
        match self.slots.get(i as usize).and_then(|s| s.val.as_ref()) {
            Some(v) => v,
            None => {
                debug_assert!(false, "heap handle used after collection freed its slot");
                &self.poison
            }
        }
    }

    #[track_caller]
    #[inline]
    fn get_mut(&mut self, i: u32) -> &mut T {
        // Split borrow dance: decide liveness first, then hand out either
        // the slot or the (scratch) poison value.
        let live = self.slots.get(i as usize).is_some_and(|s| s.val.is_some());
        if live {
            if let Some(v) = self.slots[i as usize].val.as_mut() {
                return v;
            }
        }
        debug_assert!(false, "heap handle used after collection freed its slot");
        &mut self.poison
    }

    #[inline]
    fn is_live(&self, i: u32) -> bool {
        self.slots.get(i as usize).is_some_and(|s| s.val.is_some())
    }

    /// Marks slot `i`; returns `true` the first time (caller then traces
    /// children).
    #[inline]
    fn mark(&mut self, i: u32) -> bool {
        let s = &mut self.slots[i as usize];
        debug_assert!(s.val.is_some(), "marking a freed slot");
        if s.mark {
            return false;
        }
        s.mark = true;
        true
    }

    /// Sweeps unmarked slots; clears marks; returns
    /// (freed count, live bytes) where each live slot contributes
    /// `base + size(val)` bytes.
    ///
    /// The slab is then trimmed to its live high-water mark: handles are
    /// stable indices so occupied slots can never move, but the dead
    /// *tail* can be dropped outright. Without this, one allocation
    /// spike (a big build-then-discard) would leave every later sweep
    /// scanning — and every later allocation marching cold through —
    /// slot capacity proportional to the all-time peak rather than the
    /// current live set.
    fn sweep(&mut self, base: u64, size: impl Fn(&T) -> u64) -> (u64, u64) {
        let mut freed = 0u64;
        let mut bytes = 0u64;
        for s in self.slots.iter_mut() {
            let Some(v) = s.val.as_ref() else { continue };
            if s.mark {
                s.mark = false;
                bytes += base + size(v);
            } else {
                s.val = None;
                self.live -= 1;
                freed += 1;
            }
        }
        let high = self
            .slots
            .iter()
            .rposition(|s| s.val.is_some())
            .map_or(0, |i| i + 1);
        self.slots.truncate(high);
        // Rebuild the free list to match the trimmed slab. Indices are
        // pushed in descending order so pops hand them out ascending:
        // consecutive allocations then walk forward through the slab,
        // which the prefetcher likes.
        self.free.clear();
        for i in (0..high).rev() {
            if self.slots[i].val.is_none() {
                self.free.push(i as u32);
            }
        }
        (freed, bytes)
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

macro_rules! handles {
    ($($(#[$doc:meta])* $name:ident => $kind:expr),* $(,)?) => {
        $(
            $(#[$doc])*
            #[derive(Clone, Copy, PartialEq, Eq, Hash)]
            pub struct $name(pub(crate) u32);

            impl $name {
                /// The slot index (stable for the object's lifetime: the
                /// collector never moves objects).
                pub fn index(self) -> u32 {
                    self.0
                }

                /// The `eq?` identity of this handle. Kind tags sit above
                /// bit 47, so encoded handles can never collide with the
                /// raw pointers used for continuation-chain identity.
                pub(crate) fn eq_key(self) -> EqKey {
                    EqKey::Ptr(($kind as usize) << 48 | self.0 as usize)
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    write!(f, concat!(stringify!($name), "({})"), self.0)
                }
            }
        )*
    };
}

handles! {
    /// A handle to a mutable string.
    HStr => 1,
    /// A handle to a mutable cons pair.
    HPair => 2,
    /// A handle to a mutable vector.
    HVec => 3,
    /// A handle to a mutable box.
    HBox => 4,
    /// A handle to an `eq?`-keyed mutable hash table.
    HTable => 5,
    /// A handle to a record instance.
    HRecord => 6,
    /// A handle to a compiled closure.
    HClosure => 7,
    /// A handle to a first-class continuation.
    HCont => 8,
}

// ---------------------------------------------------------------------------
// The heap
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of heap accounting (for benchmarks, stats
/// surfacing, and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects allocated since thread start.
    pub allocations: u64,
    /// Collections performed since thread start.
    pub collections: u64,
    /// Live objects after the last collection (or allocated since, for a
    /// heap that has never collected).
    pub live_objects: u64,
    /// Estimated live bytes as of the last collection.
    pub bytes_live: u64,
    /// High-water mark of [`HeapStats::bytes_live`].
    pub bytes_live_peak: u64,
}

/// What one collection accomplished.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcReport {
    /// Objects freed.
    pub freed: u64,
    /// Objects still live.
    pub live_objects: u64,
    /// Estimated live bytes.
    pub bytes_live: u64,
}

/// The thread's value heap. One per thread (values are single-threaded,
/// like the `Rc` representation this replaces); reached through
/// [`with_heap`].
pub struct Heap {
    strs: Slab<String>,
    pairs: Slab<PairData>,
    vecs: Slab<Vec<Value>>,
    boxes: Slab<Value>,
    tables: Slab<TableData>,
    records: Slab<RecordData>,
    closures: Slab<Closure>,
    conts: Slab<ContData>,
    /// Interned strings (constants from `quote`d literals): content →
    /// handle. An entry goes when a sweep frees its string.
    interned: HashMap<String, HStr>,
    /// External root sets, registered via [`RootGuard`].
    extra_roots: Vec<Option<Vec<Value>>>,
    extra_free: Vec<u32>,
    /// Weakly registered global tables (one per machine on this thread).
    globals_roots: Vec<Weak<RefCell<Globals>>>,
    /// Weakly registered codes with heap constants (see [`Code::build`]).
    codes: Vec<Weak<Code>>,
    /// Registry length at which registration prunes dead codes, so the
    /// registry stays proportional to the live codes between collections.
    codes_prune_at: usize,
    allocations: u64,
    collections: u64,
    /// Allocations not yet announced as `TraceKind::Alloc` events (the
    /// machine drains this at collections and run boundaries).
    alloc_pending: u64,
    /// Whether the threshold crossing has already been signalled through
    /// `SHOULD_COLLECT` (so the hot allocation path writes the
    /// thread-local flag once per crossing, not once per allocation).
    collect_requested: bool,
    bytes_since_gc: u64,
    bytes_live: u64,
    bytes_live_peak: u64,
    /// Collection trigger: collect once `bytes_since_gc` exceeds this.
    threshold: u64,
}

/// Initial/minimum collection threshold (bytes allocated between
/// collections).
const MIN_THRESHOLD: u64 = 1 << 20;
/// Smallest code-registry length that triggers a prune on registration.
const MIN_CODES_PRUNE: usize = 256;

impl Heap {
    fn new() -> Heap {
        Heap {
            strs: Slab::default(),
            pairs: Slab::default(),
            vecs: Slab::default(),
            boxes: Slab::default(),
            tables: Slab::default(),
            records: Slab::default(),
            closures: Slab::default(),
            conts: Slab::default(),
            interned: HashMap::new(),
            extra_roots: Vec::new(),
            extra_free: Vec::new(),
            globals_roots: Vec::new(),
            codes: Vec::new(),
            codes_prune_at: MIN_CODES_PRUNE,
            allocations: 0,
            collections: 0,
            alloc_pending: 0,
            collect_requested: false,
            bytes_since_gc: 0,
            bytes_live: 0,
            bytes_live_peak: 0,
            threshold: MIN_THRESHOLD,
        }
    }

    #[inline]
    fn note_alloc(&mut self, bytes: u64) {
        self.allocations += 1;
        self.alloc_pending += 1;
        self.bytes_since_gc += bytes;
        if self.bytes_since_gc > self.threshold && !self.collect_requested {
            self.collect_requested = true;
            SHOULD_COLLECT.with(|c| c.set(true));
        }
    }

    /// Credits VM-external bytes (frozen continuation segments, which
    /// live outside the slabs) against the collection budget. Without
    /// this, a capture-heavy program whose continuations pin large
    /// segments looks allocation-quiet to the trigger — the slabs stay
    /// small while real memory balloons until the next incidental
    /// collection finally sweeps the continuation values that own the
    /// segments.
    #[inline]
    fn note_external(&mut self, bytes: u64) {
        self.bytes_since_gc += bytes;
        if self.bytes_since_gc > self.threshold && !self.collect_requested {
            self.collect_requested = true;
            SHOULD_COLLECT.with(|c| c.set(true));
        }
    }

    pub(crate) fn alloc_string(&mut self, s: String) -> HStr {
        self.note_alloc(SIZE_BASE + s.len() as u64);
        HStr(self.strs.alloc(s))
    }

    pub(crate) fn alloc_pair(&mut self, car: Value, cdr: Value) -> HPair {
        self.note_alloc(SIZE_BASE);
        HPair(self.pairs.alloc(PairData { car, cdr }))
    }

    pub(crate) fn alloc_vec(&mut self, items: Vec<Value>) -> HVec {
        self.note_alloc(SIZE_BASE + VALUE_SIZE * items.len() as u64);
        HVec(self.vecs.alloc(items))
    }

    pub(crate) fn alloc_box(&mut self, v: Value) -> HBox {
        self.note_alloc(SIZE_BASE);
        HBox(self.boxes.alloc(v))
    }

    pub(crate) fn alloc_table(&mut self) -> HTable {
        self.note_alloc(SIZE_BASE);
        HTable(self.tables.alloc(TableData::new()))
    }

    pub(crate) fn alloc_record(&mut self, tag: Sym, fields: Vec<Value>) -> HRecord {
        self.note_alloc(SIZE_BASE + VALUE_SIZE * fields.len() as u64);
        HRecord(self.records.alloc(RecordData { tag, fields }))
    }

    pub(crate) fn alloc_closure(&mut self, c: Closure) -> HClosure {
        self.note_alloc(SIZE_BASE + VALUE_SIZE * c.captures.len() as u64);
        HClosure(self.closures.alloc(c))
    }

    pub(crate) fn alloc_cont(&mut self, c: ContData) -> HCont {
        self.note_alloc(CONT_SIZE);
        HCont(self.conts.alloc(c))
    }

    fn intern(&mut self, s: &str) -> HStr {
        if let Some(&h) = self.interned.get(s) {
            return h;
        }
        let h = self.alloc_string(s.to_string());
        self.interned.insert(s.to_string(), h);
        h
    }

    /// Adds `code` to the weak code registry, first pruning dead entries
    /// once the registry has doubled since the last prune.
    fn register_code(&mut self, code: &Rc<Code>) {
        if self.codes.len() >= self.codes_prune_at {
            self.codes.retain(|w| w.strong_count() > 0);
            self.codes_prune_at = MIN_CODES_PRUNE.max(2 * self.codes.len());
        }
        self.codes.push(Rc::downgrade(code));
    }

    fn stats(&self) -> HeapStats {
        HeapStats {
            allocations: self.allocations,
            collections: self.collections,
            live_objects: self.live_objects(),
            bytes_live: self.bytes_live,
            bytes_live_peak: self.bytes_live_peak,
        }
    }

    fn live_objects(&self) -> u64 {
        (self.strs.live
            + self.pairs.live
            + self.vecs.live
            + self.boxes.live
            + self.tables.live
            + self.records.live
            + self.closures.live
            + self.conts.live) as u64
    }

    // -- tracing ------------------------------------------------------------

    /// Marks everything reachable from `roots` (plus the standing roots:
    /// registered globals, extra root sets, live code constants), sweeps
    /// the rest, and retunes the collection threshold.
    fn collect(&mut self, roots: &[Value]) -> GcReport {
        SHOULD_COLLECT.with(|c| c.set(false));
        self.collect_requested = false;
        self.collections += 1;
        let mut freed = 0;
        let mut report = loop {
            let mut tr = TraceState::default();
            tr.gray.extend_from_slice(roots);
            self.seed_standing_roots(&mut tr);
            self.drain_gray(&mut tr);
            let pass = self.sweep();
            freed += pass.freed;
            // A sweep that freed the last closure (or continuation frame)
            // holding a registered code ended that code's life, but this
            // pass marked its constants through the registry: mark again
            // so they die with their code, not one collection later. Each
            // extra pass needs another registered code to die, so this
            // ends.
            if self.codes.iter().all(|w| w.strong_count() > 0) {
                break pass;
            }
        };
        report.freed = freed;
        let strs = &self.strs;
        self.interned.retain(|_, h| strs.is_live(h.0));
        self.bytes_since_gc = 0;
        self.bytes_live = report.bytes_live;
        self.bytes_live_peak = self.bytes_live_peak.max(report.bytes_live);
        self.threshold = MIN_THRESHOLD.max(report.bytes_live * 2);
        report
    }

    /// Seeds the gray stack with the heap's standing roots.
    fn seed_standing_roots(&mut self, tr: &mut TraceState) {
        // Constant pools of live codes (drop the codes that died). The
        // upgraded `Rc` is never the last one, so dropping it here, under
        // the heap borrow, cannot run a `Code`'s destructor.
        self.codes.retain(|w| match w.upgrade() {
            Some(code) => {
                tr.gray.extend_from_slice(&code.consts);
                true
            }
            None => false,
        });
        self.codes_prune_at = MIN_CODES_PRUNE.max(2 * self.codes.len());
        // Registered global tables (drop the ones whose machine died).
        self.globals_roots.retain(|w| match w.upgrade() {
            Some(g) => {
                for v in g.borrow().values() {
                    tr.gray.push(v);
                }
                true
            }
            None => false,
        });
        for set in self.extra_roots.iter().flatten() {
            tr.gray.extend_from_slice(set);
        }
    }

    /// Drains the gray stack, marking handles and pushing their children.
    fn drain_gray(&mut self, tr: &mut TraceState) {
        while let Some(v) = tr.gray.pop() {
            match v {
                Value::Str(h) => {
                    self.strs.mark(h.0);
                }
                Value::Pair(h) if self.pairs.mark(h.0) => {
                    let p = *self.pairs.get(h.0);
                    tr.gray.push(p.car);
                    tr.gray.push(p.cdr);
                }
                Value::Vector(h) if self.vecs.mark(h.0) => {
                    tr.gray.extend_from_slice(self.vecs.get(h.0));
                }
                Value::Box(h) if self.boxes.mark(h.0) => {
                    tr.gray.push(*self.boxes.get(h.0));
                }
                Value::Table(h) if self.tables.mark(h.0) => {
                    for (k, v) in self.tables.get(h.0).values() {
                        tr.gray.push(k);
                        tr.gray.push(v);
                    }
                }
                Value::Record(h) if self.records.mark(h.0) => {
                    tr.gray.extend_from_slice(&self.records.get(h.0).fields);
                }
                Value::Closure(h) if self.closures.mark(h.0) => {
                    tr.gray.extend_from_slice(&self.closures.get(h.0).captures);
                }
                Value::Cont(h) if self.conts.mark(h.0) => {
                    // Clone the (Rc-backed) payload out so the chain
                    // walk does not hold a slab borrow.
                    let c = self.conts.get(h.0).clone();
                    trace_cont_data(&c, tr);
                }
                _ => {}
            }
        }
    }

    /// Frees every unmarked object and reports the survivors.
    fn sweep(&mut self) -> GcReport {
        let mut freed = 0u64;
        let mut bytes = 0u64;
        macro_rules! sweep {
            ($slab:expr, $base:expr, $size:expr) => {{
                let (f, b) = $slab.sweep($base, $size);
                freed += f;
                bytes += b;
            }};
        }
        sweep!(self.strs, SIZE_BASE, |s: &String| s.len() as u64);
        sweep!(self.pairs, SIZE_BASE, |_: &PairData| 0);
        sweep!(self.vecs, SIZE_BASE, |v: &Vec<Value>| VALUE_SIZE
            * v.len() as u64);
        sweep!(self.boxes, SIZE_BASE, |_: &Value| 0);
        sweep!(self.tables, SIZE_BASE, |t: &TableData| 3
            * VALUE_SIZE
            * t.len() as u64);
        sweep!(self.records, SIZE_BASE, |r: &RecordData| VALUE_SIZE
            * r.fields.len() as u64);
        sweep!(self.closures, SIZE_BASE, |c: &Closure| VALUE_SIZE
            * c.captures.len() as u64);
        sweep!(self.conts, CONT_SIZE, |_: &ContData| 0);
        GcReport {
            freed,
            live_objects: self.live_objects(),
            bytes_live: bytes,
        }
    }
}

/// Estimated per-object overhead (slot + payload headers), in bytes.
const SIZE_BASE: u64 = 32;
/// Estimated size of one [`Value`] word.
const VALUE_SIZE: u64 = 16;
/// Flat estimate for a continuation record (its segments are shared and
/// hard to attribute; underestimating only delays a collection).
const CONT_SIZE: u64 = 256;

/// Transient per-collection trace state.
#[derive(Default)]
struct TraceState {
    gray: Vec<Value>,
    /// Visited underflow records (shared `Rc` chains).
    seen_underflows: HashSet<*const Underflow>,
    /// Visited shared segments (composable continuations).
    seen_segments: HashSet<*const Segment>,
}

// -- Rust-side structure walkers (no heap borrow needed) --------------------

fn trace_segment(seg: &Segment, tr: &mut TraceState) {
    tr.gray.extend_from_slice(&seg.stack);
    for f in &seg.frames {
        trace_frame(f, tr);
    }
    for entry in &seg.mark_entries {
        trace_mark_entry(entry, tr);
    }
}

fn trace_frame(f: &Frame, tr: &mut TraceState) {
    if let Some(h) = f.closure {
        tr.gray.push(Value::Closure(h));
    }
}

fn trace_mark_entry(entry: &MarkEntry, tr: &mut TraceState) {
    for (k, v) in entry {
        tr.gray.push(*k);
        tr.gray.push(*v);
    }
}

fn trace_winder(w: &Winder, tr: &mut TraceState) {
    tr.gray.push(w.pre);
    tr.gray.push(w.post);
    tr.gray.push(w.marks);
}

fn trace_underflow_chain(head: &Rc<Underflow>, tr: &mut TraceState) {
    let mut cur = Some(head.clone());
    while let Some(u) = cur {
        if !tr.seen_underflows.insert(Rc::as_ptr(&u)) {
            break;
        }
        tr.gray.push(u.marks);
        if let Some(seg) = u.seg.borrow().as_ref() {
            trace_segment(seg, tr);
        }
        cur = u.next.clone();
    }
}

fn trace_shared_segment(seg: &Rc<Segment>, tr: &mut TraceState) {
    if tr.seen_segments.insert(Rc::as_ptr(seg)) {
        trace_segment(seg, tr);
    }
}

fn trace_cont_data(c: &ContData, tr: &mut TraceState) {
    tr.gray.push(c.marks);
    tr.gray.push(c.base_marks);
    for w in &c.winders {
        trace_winder(w, tr);
    }
    match &c.kind {
        ContKind::Full { head } => {
            if let Some(u) = head {
                trace_underflow_chain(u, tr);
            }
        }
        ContKind::Composable(comp) => {
            trace_shared_segment(&comp.top_seg, tr);
            tr.gray.extend_from_slice(&comp.top_marks_prefix);
            for rec in &comp.chain {
                trace_shared_segment(&rec.seg, tr);
                tr.gray.extend_from_slice(&rec.marks_prefix);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local access
// ---------------------------------------------------------------------------

thread_local! {
    // Const-initialized (`None` until first touch): keeps every access a
    // direct TLS read instead of the lazy-init dance a non-const
    // initializer compiles to — this is the hottest path in the VM.
    static HEAP: RefCell<Option<Heap>> = const { RefCell::new(None) };
    /// Cheap per-instruction flag: the allocator crossed the threshold.
    static SHOULD_COLLECT: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the thread's heap. The closure must not re-enter
/// [`with_heap`] (accessors are written to copy data out and release the
/// borrow before any user code runs).
#[inline]
pub(crate) fn with_heap<R>(f: impl FnOnce(&mut Heap) -> R) -> R {
    HEAP.with(|h| f(h.borrow_mut().get_or_insert_with(Heap::new)))
}

/// Whether the allocator has requested a collection (checked by the
/// machine at every safe point; a single `Cell` read).
#[inline]
pub(crate) fn should_collect() -> bool {
    SHOULD_COLLECT.with(|c| c.get())
}

/// Charges `bytes` of VM-external allocation (continuation segments) to
/// the collection budget; see [`Heap::note_external`].
#[inline]
pub(crate) fn note_external_bytes(bytes: u64) {
    with_heap(|h| h.note_external(bytes));
}

/// Takes the count of allocations not yet announced as
/// [`TraceKind::Alloc`](crate::TraceKind) events.
pub(crate) fn take_alloc_pending() -> u64 {
    with_heap(|h| std::mem::take(&mut h.alloc_pending))
}

/// Collects now, using `roots` (plus the heap's standing roots:
/// registered globals tables, external root sets, and the constants of
/// live codes).
pub(crate) fn collect_with_roots(roots: &[Value]) -> GcReport {
    with_heap(|h| h.collect(roots))
}

/// Registers `code`'s constant pool as a standing root for as long as
/// the code lives (weak: the registration dies with the code, and the
/// code's drop never touches the heap).
pub(crate) fn register_code(code: &Rc<Code>) {
    with_heap(|h| h.register_code(code));
}

/// Registers a machine's globals table as a standing root (weak: the
/// registration dies with the table).
pub(crate) fn register_globals_root(g: &Rc<RefCell<Globals>>) {
    with_heap(|h| {
        let p = Rc::as_ptr(g);
        let already = h
            .globals_roots
            .iter()
            .any(|w| w.upgrade().is_some_and(|e| Rc::as_ptr(&e) == p));
        if !already {
            h.globals_roots.push(Rc::downgrade(g));
        }
    });
}

/// Interns `s`, returning a shared string value. Used for string
/// constants (`quote`d literals): the VM has no string mutators, and both
/// the engine and the reference model build constants through this pool,
/// so sharing is unobservable except through `eq?` — where both sides
/// agree. The string is collected like any other once nothing reaches
/// it; while something does, every literal with its contents gets the
/// same handle.
pub fn intern_string(s: &str) -> Value {
    Value::Str(with_heap(|h| h.intern(s)))
}

/// The heap's accounting snapshot.
pub fn heap_stats() -> HeapStats {
    with_heap(|h| h.stats())
}

/// An RAII registration of external roots: the values stay live across
/// collections until the guard drops. Deliberately not `Clone` — one
/// registration, one owner (`SuspendedRun`s hold one over their frozen
/// state) — and not `Send`: the registration lives in this thread's heap.
#[derive(Debug)]
pub struct RootGuard {
    id: u32,
    _thread_bound: PhantomData<Rc<()>>,
}

/// Registers `roots` as a standing root set; they are traced by every
/// collection until the returned guard is dropped.
pub(crate) fn add_extra_roots(roots: Vec<Value>) -> RootGuard {
    with_heap(|h| {
        let id = if let Some(i) = h.extra_free.pop() {
            h.extra_roots[i as usize] = Some(roots);
            i
        } else {
            h.extra_roots.push(Some(roots));
            (h.extra_roots.len() - 1) as u32
        };
        RootGuard {
            id,
            _thread_bound: PhantomData,
        }
    })
}

impl Drop for RootGuard {
    fn drop(&mut self) {
        let id = self.id;
        // The heap TLS may already be torn down during thread exit.
        let _ = HEAP.try_with(|h| {
            if let Ok(mut h) = h.try_borrow_mut() {
                if let Some(h) = h.as_mut() {
                    h.extra_roots[id as usize] = None;
                    h.extra_free.push(id);
                }
            }
        });
    }
}

/// A run result held outside any machine: it and everything it reaches
/// stay live across collections until the holder drops. The machine's
/// entry points ([`Machine::run_code`](crate::Machine::run_code) and the
/// others) hand results back in one. Derefs to the [`Value`]; a `Value`
/// copied out of the holder is only safe until the next collection after
/// the holder drops.
#[derive(Debug)]
pub struct Rooted {
    value: Value,
    _root: RootGuard,
}

impl Rooted {
    /// Roots `value` until the returned holder drops.
    pub(crate) fn new(value: Value) -> Rooted {
        Rooted {
            value,
            _root: add_extra_roots(vec![value]),
        }
    }
}

impl std::ops::Deref for Rooted {
    type Target = Value;

    fn deref(&self) -> &Value {
        &self.value
    }
}

impl std::fmt::Display for Rooted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.value.fmt(f)
    }
}

// ---------------------------------------------------------------------------
// Handle accessors
// ---------------------------------------------------------------------------
//
// Every accessor is self-contained: it borrows the heap, copies what it
// needs out, and releases the borrow before returning. None of them may
// be called while another heap borrow is held (the VM never does: user
// code only runs between accessor calls).

impl HStr {
    /// The string contents (cloned out).
    pub fn get(self) -> String {
        with_heap(|h| h.strs.get(self.0).clone())
    }

    /// Replaces the string contents.
    pub fn set(self, s: String) {
        with_heap(|h| *h.strs.get_mut(self.0) = s);
    }

    /// Runs `f` over the string without cloning.
    pub fn with<R>(self, f: impl FnOnce(&str) -> R) -> R {
        with_heap(|h| f(h.strs.get(self.0)))
    }

    /// Character count.
    pub fn char_len(self) -> usize {
        with_heap(|h| h.strs.get(self.0).chars().count())
    }
}

impl HPair {
    /// The `car` field.
    #[inline]
    pub fn car(self) -> Value {
        with_heap(|h| h.pairs.get(self.0).car)
    }

    /// The `cdr` field.
    #[inline]
    pub fn cdr(self) -> Value {
        with_heap(|h| h.pairs.get(self.0).cdr)
    }

    /// Both fields in one heap access.
    #[inline]
    pub fn car_cdr(self) -> (Value, Value) {
        with_heap(|h| {
            let p = h.pairs.get(self.0);
            (p.car, p.cdr)
        })
    }

    /// Sets the `car` field.
    #[inline]
    pub fn set_car(self, v: Value) {
        with_heap(|h| h.pairs.get_mut(self.0).car = v);
    }

    /// Sets the `cdr` field.
    #[inline]
    pub fn set_cdr(self, v: Value) {
        with_heap(|h| h.pairs.get_mut(self.0).cdr = v);
    }
}

impl HVec {
    /// Element count.
    #[inline]
    pub fn len(self) -> usize {
        with_heap(|h| h.vecs.get(self.0).len())
    }

    /// Whether the vector is empty.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The element at `i`.
    #[inline]
    pub fn get(self, i: usize) -> Option<Value> {
        with_heap(|h| h.vecs.get(self.0).get(i).copied())
    }

    /// Sets the element at `i`; `false` if out of range.
    #[inline]
    pub fn set(self, i: usize, v: Value) -> bool {
        with_heap(|h| match h.vecs.get_mut(self.0).get_mut(i) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        })
    }

    /// The elements (cloned out).
    pub fn to_vec(self) -> Vec<Value> {
        with_heap(|h| h.vecs.get(self.0).clone())
    }

    /// Appends an element.
    pub fn push(self, v: Value) {
        with_heap(|h| h.vecs.get_mut(self.0).push(v));
    }
}

impl HBox {
    /// The boxed value.
    #[inline]
    pub fn get(self) -> Value {
        with_heap(|h| *h.boxes.get(self.0))
    }

    /// Replaces the boxed value.
    #[inline]
    pub fn set(self, v: Value) {
        with_heap(|h| *h.boxes.get_mut(self.0) = v);
    }
}

impl HTable {
    /// Entry count.
    #[inline]
    pub fn len(self) -> usize {
        with_heap(|h| h.tables.get(self.0).len())
    }

    /// Whether the table is empty.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The value stored under `key`'s identity.
    pub fn get(self, key: &EqKey) -> Option<Value> {
        with_heap(|h| h.tables.get(self.0).get(key))
    }

    /// Stores `val` under `key` (the key value is retained for tracing).
    pub fn insert(self, key: Value, val: Value) {
        with_heap(|h| {
            h.tables.get_mut(self.0).insert(key.eq_key(), (key, val));
        });
    }

    /// Removes `key`'s entry; `true` if it was present.
    pub fn remove(self, key: &EqKey) -> bool {
        with_heap(|h| h.tables.get_mut(self.0).remove(key))
    }

    /// Whether `key` has an entry.
    pub fn contains(self, key: &EqKey) -> bool {
        with_heap(|h| h.tables.get(self.0).contains_key(key))
    }

    /// Every (key, value) pair, cloned out in insertion order (an update
    /// keeps its original position).
    pub fn entries(self) -> Vec<(Value, Value)> {
        with_heap(|h| h.tables.get(self.0).values().collect())
    }
}

impl HRecord {
    /// The record's type tag.
    pub fn tag(self) -> Sym {
        with_heap(|h| h.records.get(self.0).tag)
    }

    /// Field count.
    pub fn field_count(self) -> usize {
        with_heap(|h| h.records.get(self.0).fields.len())
    }

    /// The field at `i`.
    pub fn field(self, i: usize) -> Option<Value> {
        with_heap(|h| h.records.get(self.0).fields.get(i).copied())
    }

    /// Sets the field at `i`; `false` if out of range.
    pub fn set_field(self, i: usize, v: Value) -> bool {
        with_heap(|h| match h.records.get_mut(self.0).fields.get_mut(i) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        })
    }

    /// The fields (cloned out).
    pub fn fields(self) -> Vec<Value> {
        with_heap(|h| h.records.get(self.0).fields.clone())
    }
}

impl HClosure {
    /// The compiled body (an `Rc` clone).
    pub fn code(self) -> Rc<Code> {
        with_heap(|h| h.closures.get(self.0).code.clone())
    }

    /// The captured value at `i`.
    pub fn capture(self, i: usize) -> Option<Value> {
        with_heap(|h| h.closures.get(self.0).captures.get(i).copied())
    }

    /// All captured values (cloned out).
    pub fn captures(self) -> Vec<Value> {
        with_heap(|h| h.closures.get(self.0).captures.clone())
    }

    /// The code object's name (for printing).
    pub fn name(self) -> String {
        with_heap(|h| h.closures.get(self.0).code.name.clone())
    }
}

impl HCont {
    /// The continuation payload (an `Rc`-shallow clone; the shared
    /// one-shot flag is *not* aliased — use [`HCont::one_shot_used`] /
    /// [`HCont::set_one_shot_used`] against the heap's copy).
    pub fn data(self) -> ContData {
        with_heap(|h| h.conts.get(self.0).clone())
    }

    /// Whether this is a spent `call/1cc` continuation.
    pub fn one_shot_used(self) -> bool {
        with_heap(|h| {
            h.conts
                .get(self.0)
                .one_shot_used
                .as_ref()
                .is_some_and(|c| c.get())
        })
    }

    /// Marks a `call/1cc` continuation as used (no-op for multi-shot).
    pub fn set_one_shot_used(self) {
        with_heap(|h| {
            if let Some(c) = &h.conts.get(self.0).one_shot_used {
                c.set(true);
            }
        });
    }

    /// The `eq?` identity: a full continuation with a reified chain is
    /// identified by its chain head (captures reusing an already-reified
    /// chain must stay `eq?` — the paper's figure-3 imitation relies on
    /// it); anything else by handle.
    pub(crate) fn chain_eq_key(self) -> EqKey {
        with_heap(|h| match &h.conts.get(self.0).kind {
            ContKind::Full { head: Some(u) } => EqKey::Ptr(Rc::as_ptr(u) as usize),
            _ => self.eq_key(),
        })
    }
}

// ---------------------------------------------------------------------
// Snapshot-restore support. The decoder allocates placeholder objects
// first (so every handle exists before any cross-reference is filled)
// and then overwrites the closure/continuation slots wholesale — the
// only two kinds whose contents cannot be patched through the public
// accessors above.

/// Replaces the closure at `h` (snapshot decode only).
pub(crate) fn set_closure(h: HClosure, c: Closure) {
    with_heap(|heap| *heap.closures.get_mut(h.0) = c);
}

/// Replaces the continuation payload at `h` (snapshot decode only).
pub(crate) fn set_cont_data(h: HCont, c: ContData) {
    with_heap(|heap| *heap.conts.get_mut(h.0) = c);
}

/// Estimated bytes the thread heap would hold live if a collection ran
/// now: the last collection's survivors plus everything allocated since.
/// An over-approximation (recent allocations may already be garbage),
/// which is the safe direction for the heap-cap check — the machine
/// collects to get the true figure before failing a run.
pub(crate) fn bytes_estimate() -> u64 {
    with_heap(|h| h.bytes_live + h.bytes_since_gc)
}

/// Whether `v`'s handle still names a live heap slot (diagnostics/tests;
/// immediates are always "live").
pub fn is_live(v: Value) -> bool {
    with_heap(|h| match v {
        Value::Str(x) => h.strs.is_live(x.0),
        Value::Pair(x) => h.pairs.is_live(x.0),
        Value::Vector(x) => h.vecs.is_live(x.0),
        Value::Box(x) => h.boxes.is_live(x.0),
        Value::Table(x) => h.tables.is_live(x.0),
        Value::Record(x) => h.records.is_live(x.0),
        Value::Closure(x) => h.closures.is_live(x.0),
        Value::Cont(x) => h.conts.is_live(x.0),
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_frees_unrooted_and_keeps_rooted() {
        let kept = Value::cons(Value::fixnum(1), Value::Nil);
        let dropped = Value::cons(Value::fixnum(2), Value::Nil);
        let before = heap_stats().allocations;
        assert!(before >= 2);
        let report = collect_with_roots(&[kept]);
        assert!(report.freed >= 1, "unrooted pair not freed: {report:?}");
        assert!(is_live(kept));
        assert!(!is_live(dropped));
        assert!(kept.car().unwrap().eq_value(&Value::fixnum(1)));
    }

    #[test]
    fn rooted_holder_protects_its_graph_until_dropped() {
        let v = Rooted::new(Value::list([Value::fixnum(1), Value::string("x")]));
        collect_with_roots(&[]);
        assert_eq!(v.write_string(), "(1 \"x\")");
        let raw = *v;
        drop(v);
        collect_with_roots(&[]);
        assert!(!is_live(raw));
    }

    #[test]
    fn root_guard_pins_and_releases() {
        let v = Value::cons(Value::fixnum(3), Value::Nil);
        let guard = add_extra_roots(vec![v]);
        collect_with_roots(&[]);
        assert!(is_live(v));
        drop(guard);
        collect_with_roots(&[]);
        assert!(!is_live(v));
    }

    #[test]
    fn mutated_rooted_pair_keeps_new_children_alive() {
        // A held pair mutated to point at a fresh pair: the fresh pair
        // must survive a collection with no other roots.
        let held = Rooted::new(Value::cons(Value::fixnum(1), Value::Nil));
        let young = Value::cons(Value::fixnum(2), Value::Nil);
        if let Value::Pair(p) = *held {
            p.set_cdr(young);
        }
        collect_with_roots(&[]);
        assert!(is_live(young));
        assert_eq!(held.write_string(), "(1 2)");
    }

    #[test]
    fn code_constants_live_exactly_as_long_as_their_code() {
        let konst = Value::list([Value::fixnum(1), Value::string("k")]);
        let child = Code::build("child", 0, false, Vec::new(), vec![konst], Vec::new());
        let parent = Code::build("parent", 0, false, Vec::new(), Vec::new(), vec![child]);
        collect_with_roots(&[]);
        assert!(is_live(konst), "constant of a live nested code freed");
        // A closure outlives the code that built it: the nested code's
        // own registration keeps its constants once the parent is gone.
        let child = parent.codes[0].clone();
        drop(parent);
        collect_with_roots(&[]);
        assert_eq!(konst.write_string(), "(1 \"k\")");
        drop(child);
        collect_with_roots(&[]);
        assert!(!is_live(konst), "constant outlived its code");
    }

    #[test]
    fn interned_strings_are_shared_while_held_and_then_collected() {
        let a = Rooted::new(intern_string("hello"));
        let b = intern_string("hello");
        let c = intern_string("other");
        assert!(a.eq_value(&b));
        assert!(!a.eq_value(&c));
        collect_with_roots(&[]);
        assert!(is_live(*a));
        assert!(!is_live(c), "unheld interned string survived");
        assert!(intern_string("hello").eq_value(&a));
        let before = with_heap(|h| h.interned.len());
        let raw = *a;
        drop(a);
        collect_with_roots(&[]);
        assert!(!is_live(raw));
        assert!(
            with_heap(|h| h.interned.len()) < before,
            "map kept a freed entry"
        );
        assert_eq!(intern_string("hello").display_string(), "hello");
    }

    #[test]
    fn stats_track_allocation_and_collection() {
        let s0 = heap_stats();
        let _v = Value::vector(vec![Value::fixnum(1); 64]);
        let s1 = heap_stats();
        assert!(s1.allocations > s0.allocations);
        collect_with_roots(&[]);
        let s2 = heap_stats();
        assert_eq!(s2.collections, s1.collections + 1);
        assert!(s2.bytes_live_peak >= s2.bytes_live);
    }
}
