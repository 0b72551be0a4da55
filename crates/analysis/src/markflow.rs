//! Interprocedural mark-flow analysis: the optimizer half of
//! `cm-analysis` (ROADMAP item 5).
//!
//! The [`verify`](crate::verify) pass answers "is this bytecode's
//! attachment discipline *legal*?"; this module answers two *may*
//! questions over the whole program's [`Code`] tree, following closure
//! references through the constant pool, `make-closure` sites, and the
//! global environment:
//!
//! 1. **Call-site observability** — which call sites invoke code that
//!    can never observe continuation attachments, transitively. A
//!    `call/attach` site (§7.2 case b) whose callee is proven
//!    non-observing is rewritten to a plain `call` followed by
//!    `pop-attach`: the callee runs with an identical `marks` register
//!    either way, so eliding the reification is unobservable — except
//!    to the `TraceJournal`, which is how the win is measured.
//! 2. **Dead mark keys** — constant keys set by
//!    `with-continuation-mark` but unreachable by any observer
//!    (`continuation-mark-set-first`, `continuation-mark-set->list`
//!    with a constant key, or anything generic). Dead-key `wcm` forms
//!    are elided at the expression level by `cm-compiler`.
//!
//! # The lattice and the call-graph approximation
//!
//! Per code object the pass runs the same worklist the verifier runs,
//! but over an *value* abstraction: each stack slot holds
//! `Unknown | Const(v) | Global(id) | Code(c)` (join of unequal values
//! is `Unknown`), alongside the verifier's exact `owned` attachment
//! counter. Call targets resolve through `make-closure` (child code),
//! the constant pool, and globals; a global resolves through this
//! program's `global-set!`s joined with the engine's snapshot binding,
//! so a name assigned by the program *and* bound at compile time only
//! resolves when both agree. Anything else — arguments, captures,
//! continuations, `apply` — is `Unknown`, and an unknown callee is
//! assumed to observe everything.
//!
//! # Soundness boundary
//!
//! The analysis shares the closed-world assumption the cp0 primitive
//! folder already makes: a global resolved at compile time is assumed
//! not to be redefined *to an observer* between compilation and the
//! runs of this code. Observer rows of the primitive table (`call/cc`,
//! `apply`, prompts, winders, mark readers, `%engine-block`) are all
//! treated as observing *and* as potential observers of every key,
//! which keeps the facts conservative under continuation re-entry,
//! winder thunks, and suspended-engine resumes.
//! Rewrites are further restricted to sites where the abstract `owned`
//! counter is positive, so the rewritten code re-verifies under
//! [`verify`](crate::verify) — soundness by construction.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use cm_sexpr::Sym;
use cm_vm::{Code, Globals, Instr, NativeId, Value};

// ----------------------------------------------------------------------
// Inputs
// ----------------------------------------------------------------------

/// Expression-level facts the compiler collects *before* `wcm` lowering.
///
/// The lowering of `with-continuation-mark` itself emits
/// consume/get-attachment instructions, so bytecode-level observer
/// detection would flag every program containing a `wcm`. The compiler
/// therefore reports, from the post-cp0 expression tree: which constant
/// keys the program sets, and whether it uses any *generic* observer
/// (the raw attachment API, `current-continuation-marks`, iterator- or
/// immediate-mark accessors) that can reach arbitrary keys.
#[derive(Debug, Clone, Default)]
pub struct ExprFacts {
    /// Constant keys set by `with-continuation-mark` in this program.
    pub set_keys: Vec<Sym>,
    /// A generic observer appears at the expression level: every key
    /// must be treated as live.
    pub observes_all: bool,
}

/// A prelude observer closure the analysis may *summarize* instead of
/// scanning: calling it observes exactly the constant key passed at
/// `key_arg` (and nothing else the analysis needs to track).
///
/// Trust is by code identity ([`Rc::ptr_eq`]), not by name, so a user
/// shadowing `continuation-mark-set-first` with their own definition
/// gets the conservative treatment.
#[derive(Debug, Clone)]
pub struct TrustedObserver {
    /// Diagnostic name (the global the closure was bound to).
    pub name: String,
    /// The closure's code object.
    pub code: Rc<Code>,
    /// Argument index holding the mark key.
    pub key_arg: usize,
}

/// The set of trusted observer summaries, built by `cm-core` from the
/// freshly loaded prelude.
#[derive(Debug, Clone, Default)]
pub struct TrustedObservers {
    /// The summaries, in registration order.
    pub observers: Vec<TrustedObserver>,
}

impl TrustedObservers {
    /// Finds the summary for a code object, if it is trusted.
    pub fn find(&self, code: &Rc<Code>) -> Option<&TrustedObserver> {
        self.observers.iter().find(|t| Rc::ptr_eq(&t.code, code))
    }
}

// ----------------------------------------------------------------------
// Facts
// ----------------------------------------------------------------------

/// One call site of the compiled program (root tree only), with the
/// analysis verdict.
#[derive(Debug, Clone)]
pub struct CallSiteFact {
    /// Name of the containing code object.
    pub code: String,
    /// Child-index path of the containing code from the root.
    pub path: Vec<u16>,
    /// Instruction offset of the call.
    pub offset: usize,
    /// Instruction kind (`call`, `tail-call`, `call/attach`,
    /// `eager-call-shared`).
    pub kind: &'static str,
    /// Resolved callee description.
    pub callee: String,
    /// Whether the callee may observe attachments, transitively.
    pub observes: bool,
    /// `call/attach` with an owned attachment and a non-observing
    /// callee: eligible for the `call` + `pop-attach` rewrite.
    pub rewritable: bool,
    /// Whether [`apply_rewrites`] rewrote this site.
    pub rewritten: bool,
}

/// The complete result of a mark-flow analysis run.
#[derive(Debug, Clone, Default)]
pub struct MarkFlowFacts {
    /// Call sites of the root code tree, ordered by (path, offset).
    pub call_sites: Vec<CallSiteFact>,
    /// Constant keys this program sets (display strings, sorted).
    pub set_keys: Vec<String>,
    /// Constant keys observed via trusted summaries (sorted); only
    /// meaningful when `observes_all_keys` is false.
    pub observed_keys: Vec<String>,
    /// A generic or unresolvable observer exists: no key is dead.
    pub observes_all_keys: bool,
    /// Set keys proven unobservable (display strings, sorted).
    pub dead_keys: Vec<String>,
    /// The dead keys as interned symbols (for the compiler's elision
    /// pass; not serialized).
    pub dead_key_syms: Vec<Sym>,
    /// Code objects scanned beyond the root tree (prelude and
    /// previously defined closures reached through globals).
    pub external_codes: usize,
    /// Sites rewritten by [`apply_rewrites`].
    pub rewritten_sites: usize,
    /// Dead-key `wcm` forms the compiler elided (filled by
    /// `cm-compiler`).
    pub elided_wcms: usize,
}

impl MarkFlowFacts {
    /// Serializes in the `cm-trace` ordered-JSON style: objects keep
    /// insertion order, two-space indentation, trailing newline —
    /// deterministic for golden-file tests.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"cm-markflow-facts-v1\",\n");
        out.push_str("  \"summary\": {\n");
        let observing = self.call_sites.iter().filter(|s| s.observes).count();
        let rewritable = self.call_sites.iter().filter(|s| s.rewritable).count();
        out.push_str(&format!(
            "    \"call-sites\": {},\n    \"observing-sites\": {},\n    \
             \"rewritable-sites\": {},\n    \"rewritten-sites\": {},\n    \
             \"elided-wcms\": {},\n    \"external-codes\": {}\n  }},\n",
            self.call_sites.len(),
            observing,
            rewritable,
            self.rewritten_sites,
            self.elided_wcms,
            self.external_codes,
        ));
        out.push_str("  \"keys\": {\n");
        out.push_str(&format!(
            "    \"set\": {},\n    \"observed\": {},\n    \
             \"observes-all\": {},\n    \"dead\": {}\n  }},\n",
            json_str_array(&self.set_keys),
            json_str_array(&self.observed_keys),
            self.observes_all_keys,
            json_str_array(&self.dead_keys),
        ));
        out.push_str("  \"call-sites\": [");
        for (i, s) in self.call_sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"code\": {}, \"path\": [{}], \"offset\": {}, \
                 \"kind\": {}, \"callee\": {}, \"observes\": {}, \
                 \"rewritable\": {}, \"rewritten\": {}}}",
                json_escape(&s.code),
                s.path
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                s.offset,
                json_escape(s.kind),
                json_escape(&s.callee),
                s.observes,
                s.rewritable,
                s.rewritten,
            ));
        }
        if !self.call_sites.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| json_escape(s)).collect();
    format!("[{}]", quoted.join(", "))
}

// ----------------------------------------------------------------------
// Abstract values
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AbsVal {
    Unknown,
    Const(Value),
    Global(u32),
    Code(Rc<Code>),
}

impl AbsVal {
    fn same(&self, other: &AbsVal) -> bool {
        match (self, other) {
            (AbsVal::Unknown, AbsVal::Unknown) => true,
            (AbsVal::Const(a), AbsVal::Const(b)) => a.eq_value(b),
            (AbsVal::Global(a), AbsVal::Global(b)) => a == b,
            (AbsVal::Code(a), AbsVal::Code(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    fn join(&self, other: &AbsVal) -> AbsVal {
        if self.same(other) {
            self.clone()
        } else {
            AbsVal::Unknown
        }
    }
}

/// A resolved call target.
enum Resolved {
    Code(Rc<Code>),
    Native(NativeId),
    /// A constant that is not a procedure: the call errors before any
    /// observation can happen.
    NonCallable,
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    Call,
    TailCall,
    CallWithAttachment,
    EagerCallShared,
}

impl SiteKind {
    fn label(self) -> &'static str {
        match self {
            SiteKind::Call => "call",
            SiteKind::TailCall => "tail-call",
            SiteKind::CallWithAttachment => "call/attach",
            SiteKind::EagerCallShared => "eager-call-shared",
        }
    }
}

/// A call site with unresolved abstract operands.
struct RawSite {
    code_idx: usize,
    offset: usize,
    kind: SiteKind,
    callee: AbsVal,
    args: Vec<AbsVal>,
    /// Abstract `owned > 0` at the site — the precondition for the
    /// verifier-legal `call` + `pop-attach` rewrite.
    owned_positive: bool,
}

struct CodeInfo {
    code: Rc<Code>,
    /// Member of the root tree (rewritable, exempt from bytecode-level
    /// dead-key triggers — its attachment instructions come from this
    /// compilation's own `wcm` lowering, which `ExprFacts` covers).
    internal: bool,
    path: Vec<u16>,
    /// This code itself executes an attachment-observing instruction,
    /// a non-transparent primitive, a sensitive native call, or an
    /// unresolvable call.
    own_observing: bool,
    /// An attachment instruction appears in this code (dead-key
    /// trigger for external codes).
    has_attach_instr: bool,
    scanned: bool,
}

// ----------------------------------------------------------------------
// The analysis driver
// ----------------------------------------------------------------------

struct Analyzer<'a> {
    globals: &'a Globals,
    trusted: &'a TrustedObservers,
    codes: Vec<CodeInfo>,
    index: HashMap<*const Code, usize>,
    sites: Vec<RawSite>,
    global_defs: HashMap<u32, AbsVal>,
}

/// Runs the mark-flow analysis over `root` and everything reachable
/// from it. `globals` is the engine's global table at compile time;
/// `trusted` carries the prelude observer summaries; `expr_facts` is
/// the compiler's pre-lowering report for this program.
pub fn analyze(
    root: &Rc<Code>,
    globals: &Globals,
    trusted: &TrustedObservers,
    expr_facts: &ExprFacts,
) -> MarkFlowFacts {
    let mut a = Analyzer {
        globals,
        trusted,
        codes: Vec::new(),
        index: HashMap::new(),
        sites: Vec::new(),
        global_defs: HashMap::new(),
    };
    a.register_tree(root, true, Vec::new());

    // Scan-and-resolve to a fixpoint: scanning collects global
    // assignments and raw call sites; resolving those sites can pull in
    // external codes (prelude closures, earlier definitions), which are
    // then scanned in turn. Resolutions are recomputed from scratch
    // each round, so late-discovered `global-set!`s can only make
    // results more conservative.
    loop {
        let mut scanned_any = false;
        for idx in 0..a.codes.len() {
            if !a.codes[idx].scanned {
                a.scan(idx);
                scanned_any = true;
            }
        }
        let mut discovered = false;
        for i in 0..a.sites.len() {
            let callee = a.sites[i].callee.clone();
            if let Resolved::Code(c) = a.resolve(&callee, 8) {
                if a.trusted.find(&c).is_none() && !a.index.contains_key(&Rc::as_ptr(&c)) {
                    a.register(c, false, Vec::new());
                    discovered = true;
                }
            }
        }
        if !discovered && !scanned_any {
            break;
        }
    }

    // Propagate "observes" over the resolved call graph to a fixpoint.
    let mut observes: Vec<bool> = a.codes.iter().map(|c| c.own_observing).collect();
    let resolved: Vec<(usize, Resolved)> = a
        .sites
        .iter()
        .map(|s| (s.code_idx, a.resolve(&s.callee, 8)))
        .collect();
    loop {
        let mut changed = false;
        for (caller, r) in &resolved {
            let callee_observes = match r {
                Resolved::Code(c) => {
                    a.trusted.find(c).is_some() || observes[a.index[&Rc::as_ptr(c)]]
                }
                Resolved::Native(id) => id.def().observes_marks(),
                Resolved::NonCallable => false,
                Resolved::Unknown => true,
            };
            if callee_observes && !observes[*caller] {
                observes[*caller] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Key liveness: expression-level generic observers, external
    // attachment instructions, sensitive natives, and unknown callees
    // force every key live; trusted summaries contribute per-key facts.
    let mut observes_all_keys = expr_facts.observes_all;
    let mut observed: BTreeSet<String> = BTreeSet::new();
    let mut observed_syms: HashSet<Sym> = HashSet::new();
    for c in &a.codes {
        if !c.internal && c.has_attach_instr {
            observes_all_keys = true;
        }
    }
    for (s, (_, r)) in a.sites.iter().zip(&resolved) {
        match r {
            Resolved::Code(c) => {
                if let Some(t) = a.trusted.find(c) {
                    match s.args.get(t.key_arg) {
                        Some(AbsVal::Const(Value::Sym(k))) => {
                            observed.insert(k.to_string());
                            observed_syms.insert(*k);
                        }
                        _ => observes_all_keys = true,
                    }
                }
            }
            Resolved::Native(id) => observes_all_keys |= id.def().observes_marks(),
            Resolved::NonCallable => {}
            Resolved::Unknown => observes_all_keys = true,
        }
    }

    let mut set_keys: Vec<String> = expr_facts.set_keys.iter().map(|s| s.to_string()).collect();
    set_keys.sort();
    set_keys.dedup();
    let mut dead_key_syms: Vec<Sym> = Vec::new();
    let mut dead_keys: Vec<String> = Vec::new();
    if !observes_all_keys {
        let mut seen = HashSet::new();
        for k in &expr_facts.set_keys {
            if !observed_syms.contains(k) && seen.insert(*k) {
                dead_key_syms.push(*k);
                dead_keys.push(k.to_string());
            }
        }
        dead_keys.sort();
    }

    // Per-site facts for the root tree, in (path, offset) order.
    let mut call_sites: Vec<CallSiteFact> = Vec::new();
    for (s, (_, r)) in a.sites.iter().zip(&resolved) {
        let info = &a.codes[s.code_idx];
        if !info.internal {
            continue;
        }
        let (callee_desc, site_observes) = match r {
            Resolved::Code(c) => match a.trusted.find(c) {
                Some(t) => (format!("trusted:{}", t.name), true),
                None => (
                    format!("closure:{}", c.name),
                    observes[a.index[&Rc::as_ptr(c)]],
                ),
            },
            Resolved::Native(id) => (format!("native:{}", id.name()), id.def().observes_marks()),
            Resolved::NonCallable => ("non-callable".to_owned(), false),
            Resolved::Unknown => ("unknown".to_owned(), true),
        };
        call_sites.push(CallSiteFact {
            code: info.code.name.clone(),
            path: info.path.clone(),
            offset: s.offset,
            kind: s.kind.label(),
            callee: callee_desc,
            observes: site_observes,
            rewritable: s.kind == SiteKind::CallWithAttachment
                && s.owned_positive
                && !site_observes,
            rewritten: false,
        });
    }
    call_sites.sort_by(|x, y| x.path.cmp(&y.path).then(x.offset.cmp(&y.offset)));

    let external_codes = a.codes.iter().filter(|c| !c.internal).count();
    let mut observed_keys: Vec<String> = observed.into_iter().collect();
    if observes_all_keys {
        observed_keys.clear();
    }
    MarkFlowFacts {
        call_sites,
        set_keys,
        observed_keys,
        observes_all_keys,
        dead_keys,
        dead_key_syms,
        external_codes,
        rewritten_sites: 0,
        elided_wcms: 0,
    }
}

impl<'a> Analyzer<'a> {
    fn register(&mut self, code: Rc<Code>, internal: bool, path: Vec<u16>) -> usize {
        let ptr = Rc::as_ptr(&code);
        if let Some(&i) = self.index.get(&ptr) {
            return i;
        }
        let idx = self.codes.len();
        self.index.insert(ptr, idx);
        self.codes.push(CodeInfo {
            code,
            internal,
            path,
            own_observing: false,
            has_attach_instr: false,
            scanned: false,
        });
        idx
    }

    fn register_tree(&mut self, code: &Rc<Code>, internal: bool, path: Vec<u16>) {
        self.register(code.clone(), internal, path.clone());
        for (i, child) in code.codes.iter().enumerate() {
            let mut p = path.clone();
            p.push(i as u16);
            self.register_tree(child, internal, p);
        }
    }

    fn resolve(&self, v: &AbsVal, depth: usize) -> Resolved {
        if depth == 0 {
            return Resolved::Unknown;
        }
        match v {
            AbsVal::Unknown => Resolved::Unknown,
            AbsVal::Code(c) => Resolved::Code(c.clone()),
            AbsVal::Const(value) => resolve_value(value),
            AbsVal::Global(id) => {
                let prog = self.global_defs.get(id);
                let snap = self.globals.get(*id);
                match (prog, snap) {
                    (None, None) => Resolved::Unknown,
                    (None, Some(value)) => resolve_value(value),
                    (Some(d), None) => self.resolve(d, depth - 1),
                    (Some(d), Some(value)) => {
                        // Assigned by the program *and* already bound:
                        // only a resolution both agree on survives
                        // (covers call-before-redefinition).
                        match (self.resolve(d, depth - 1), resolve_value(value)) {
                            (Resolved::Code(x), Resolved::Code(y)) if Rc::ptr_eq(&x, &y) => {
                                Resolved::Code(x)
                            }
                            (Resolved::Native(x), Resolved::Native(y)) if x == y => {
                                Resolved::Native(x)
                            }
                            _ => Resolved::Unknown,
                        }
                    }
                }
            }
        }
    }

    /// Abstractly interprets one code object, mirroring the verifier's
    /// worklist (which has already proven depths and `owned` counters
    /// consistent at joins).
    fn scan(&mut self, idx: usize) {
        self.codes[idx].scanned = true;
        let code = self.codes[idx].code.clone();
        let arity = code.arity_required as usize + usize::from(code.rest);
        let entry = State {
            stack: vec![AbsVal::Unknown; arity],
            owned: 0,
        };
        let mut states: HashMap<usize, State> = HashMap::new();
        states.insert(0, entry);
        let mut work: Vec<usize> = vec![0];
        let mut in_work: HashSet<usize> = HashSet::new();
        in_work.insert(0);
        // Collected effects are idempotent across re-scans of an offset
        // except sites, which are keyed by offset and joined.
        let mut sites_here: HashMap<usize, RawSite> = HashMap::new();
        let mut own_observing = false;
        let mut has_attach_instr = false;

        while let Some(at) = work.pop() {
            in_work.remove(&at);
            let mut st = match states.get(&at) {
                Some(s) => s.clone(),
                None => continue,
            };
            let mut pc = at;
            while let Some(ins) = code.instrs.get(pc) {
                let merge = |target: usize,
                             st: &State,
                             states: &mut HashMap<usize, State>,
                             work: &mut Vec<usize>,
                             in_work: &mut HashSet<usize>| {
                    let changed = match states.get_mut(&target) {
                        Some(old) => old.join_from(st),
                        None => {
                            states.insert(target, st.clone());
                            true
                        }
                    };
                    if changed && in_work.insert(target) {
                        work.push(target);
                    }
                };
                match ins {
                    Instr::Const(i) => st.push(AbsVal::Const(code.consts[*i as usize])),
                    Instr::LocalRef(i) => {
                        let v = st
                            .stack
                            .get(*i as usize)
                            .cloned()
                            .unwrap_or(AbsVal::Unknown);
                        st.push(v);
                    }
                    Instr::LocalSet(i) => {
                        let v = st.pop();
                        if let Some(slot) = st.stack.get_mut(*i as usize) {
                            *slot = v;
                        }
                    }
                    Instr::CaptureRef(_) => st.push(AbsVal::Unknown),
                    Instr::GlobalRef(id) => st.push(AbsVal::Global(*id)),
                    Instr::GlobalSet(id) => {
                        let v = st.pop();
                        self.global_defs
                            .entry(*id)
                            .and_modify(|old| *old = old.join(&v))
                            .or_insert(v);
                    }
                    Instr::MakeClosure { code: ci, captures } => {
                        for _ in 0..*captures {
                            st.pop();
                        }
                        st.push(AbsVal::Code(code.codes[*ci as usize].clone()));
                    }
                    Instr::Jump(t) => {
                        merge(*t as usize, &st, &mut states, &mut work, &mut in_work);
                        break;
                    }
                    Instr::JumpIfFalse(t) => {
                        st.pop();
                        merge(*t as usize, &st, &mut states, &mut work, &mut in_work);
                    }
                    Instr::Leave(n) => {
                        let top = st.pop();
                        for _ in 0..*n {
                            st.pop();
                        }
                        st.push(top);
                    }
                    Instr::Pop => {
                        st.pop();
                    }
                    Instr::Call(argc)
                    | Instr::TailCall(argc)
                    | Instr::CallWithAttachment(argc)
                    | Instr::EagerCallShared(argc) => {
                        let argc = *argc as usize;
                        let kind = match ins {
                            Instr::Call(_) => SiteKind::Call,
                            Instr::TailCall(_) => SiteKind::TailCall,
                            Instr::CallWithAttachment(_) => SiteKind::CallWithAttachment,
                            _ => SiteKind::EagerCallShared,
                        };
                        let len = st.stack.len();
                        let callee = if len > argc {
                            st.stack[len - argc - 1].clone()
                        } else {
                            AbsVal::Unknown
                        };
                        let args = if len >= argc {
                            st.stack[len - argc..].to_vec()
                        } else {
                            vec![AbsVal::Unknown; argc]
                        };
                        let mut owned_positive = false;
                        if kind == SiteKind::CallWithAttachment && st.owned > 0 {
                            st.owned -= 1;
                            owned_positive = true;
                        }
                        if kind == SiteKind::EagerCallShared {
                            own_observing = true;
                        }
                        record_site(
                            &mut sites_here,
                            RawSite {
                                code_idx: idx,
                                offset: pc,
                                kind,
                                callee,
                                args,
                                owned_positive,
                            },
                        );
                        if kind == SiteKind::TailCall {
                            break;
                        }
                        for _ in 0..argc + 1 {
                            st.pop();
                        }
                        st.push(AbsVal::Unknown);
                    }
                    Instr::Return => break,
                    Instr::PrimCall(op, argc) => {
                        own_observing |= op.def().observes_marks();
                        for _ in 0..*argc {
                            st.pop();
                        }
                        st.push(AbsVal::Unknown);
                    }
                    Instr::PushAttach => {
                        has_attach_instr = true;
                        st.pop();
                        st.owned += 1;
                    }
                    Instr::PopAttach => {
                        has_attach_instr = true;
                        st.owned = st.owned.saturating_sub(1);
                    }
                    Instr::SetAttach => {
                        has_attach_instr = true;
                        // Replaces the frame's attachment: only
                        // caller-visible when it is the caller's frame.
                        if st.owned == 0 {
                            own_observing = true;
                        }
                        st.pop();
                    }
                    Instr::ReifySetAttach { .. } => {
                        has_attach_instr = true;
                        // Reifies and merges into the caller's
                        // conceptual frame: always caller-visible.
                        own_observing = true;
                        st.pop();
                    }
                    Instr::GetAttachDyn | Instr::ConsumeAttachDyn => {
                        has_attach_instr = true;
                        // The verifier only admits these at owned == 0:
                        // they read the caller's attachment.
                        own_observing = true;
                        st.pop();
                        st.push(AbsVal::Unknown);
                    }
                    Instr::GetAttachPresent => {
                        has_attach_instr = true;
                        if st.owned == 0 {
                            own_observing = true;
                        }
                        st.push(AbsVal::Unknown);
                    }
                    Instr::ConsumeAttachPresent => {
                        has_attach_instr = true;
                        if st.owned == 0 {
                            own_observing = true;
                        } else {
                            st.owned -= 1;
                        }
                        st.push(AbsVal::Unknown);
                    }
                    Instr::CurrentAttachments => {
                        has_attach_instr = true;
                        own_observing = true;
                        st.push(AbsVal::Unknown);
                    }
                    Instr::EagerPushFrame | Instr::EagerPopFrame => {
                        has_attach_instr = true;
                        own_observing = true;
                    }
                    Instr::EagerMarkSet => {
                        has_attach_instr = true;
                        own_observing = true;
                        st.pop();
                        st.pop();
                    }
                }
                pc += 1;
                // Falling into a join point re-enters via the merge map.
                if states.contains_key(&pc) {
                    merge(pc, &st, &mut states, &mut work, &mut in_work);
                    break;
                }
            }
        }

        self.codes[idx].own_observing |= own_observing;
        self.codes[idx].has_attach_instr |= has_attach_instr;
        self.sites.extend(sites_here.into_values());
    }
}

fn resolve_value(v: &Value) -> Resolved {
    match v {
        Value::Closure(cl) => Resolved::Code(cl.code()),
        Value::Native(id) => Resolved::Native(*id),
        // A stored continuation is callable and re-enters arbitrary
        // code: unknown.
        Value::Cont(_) => Resolved::Unknown,
        _ => Resolved::NonCallable,
    }
}

fn record_site(sites: &mut HashMap<usize, RawSite>, s: RawSite) {
    match sites.get_mut(&s.offset) {
        None => {
            sites.insert(s.offset, s);
        }
        Some(old) => {
            // The same offset reached along several paths: join the
            // operands; the rewrite precondition must hold on all.
            old.callee = old.callee.join(&s.callee);
            for (a, b) in old.args.iter_mut().zip(&s.args) {
                *a = a.join(b);
            }
            old.owned_positive &= s.owned_positive;
        }
    }
}

#[derive(Clone)]
struct State {
    stack: Vec<AbsVal>,
    owned: u32,
}

impl State {
    fn push(&mut self, v: AbsVal) {
        self.stack.push(v);
    }

    fn pop(&mut self) -> AbsVal {
        self.stack.pop().unwrap_or(AbsVal::Unknown)
    }

    /// Joins `other` into `self`; true when anything changed.
    fn join_from(&mut self, other: &State) -> bool {
        let mut changed = false;
        if self.stack.len() == other.stack.len() {
            for (a, b) in self.stack.iter_mut().zip(&other.stack) {
                let j = a.join(b);
                if !j.same(a) {
                    *a = j;
                    changed = true;
                }
            }
        } else {
            // The verifier rules this out for code it accepts; degrade
            // to all-Unknown rather than panic.
            for a in self.stack.iter_mut() {
                if !matches!(a, AbsVal::Unknown) {
                    *a = AbsVal::Unknown;
                    changed = true;
                }
            }
        }
        // `owned` is exact at joins for verified code; keep the
        // smaller count so the rewrite precondition stays sound.
        if other.owned < self.owned {
            self.owned = other.owned;
            changed = true;
        }
        changed
    }
}

// ----------------------------------------------------------------------
// The rewrite
// ----------------------------------------------------------------------

/// Applies the `call/attach` → `call` + `pop-attach` rewrite to every
/// eligible site of the root tree, returning the rewritten tree and
/// updating `facts` (`rewritten` flags and `rewritten_sites`).
///
/// Jump targets are remapped past inserted `pop-attach` instructions;
/// a jump that previously landed just after a rewritten call lands
/// after its `pop-attach`, where the attachment bookkeeping matches.
/// The caller is expected to re-run [`verify`](crate::verify) on the
/// result — the rewrite is designed to preserve verifiability.
pub fn apply_rewrites(root: &Rc<Code>, facts: &mut MarkFlowFacts) -> Rc<Code> {
    let mut by_path: HashMap<Vec<u16>, Vec<usize>> = HashMap::new();
    for s in facts.call_sites.iter_mut() {
        if s.rewritable {
            s.rewritten = true;
            by_path.entry(s.path.clone()).or_default().push(s.offset);
        }
    }
    facts.rewritten_sites = by_path.values().map(Vec::len).sum();
    if by_path.is_empty() {
        return root.clone();
    }
    for offsets in by_path.values_mut() {
        offsets.sort_unstable();
    }
    let mut path = Vec::new();
    rebuild(root, &by_path, &mut path)
}

fn rebuild(
    code: &Rc<Code>,
    by_path: &HashMap<Vec<u16>, Vec<usize>>,
    path: &mut Vec<u16>,
) -> Rc<Code> {
    let mut children: Vec<Rc<Code>> = Vec::with_capacity(code.codes.len());
    let mut child_changed = false;
    for (i, child) in code.codes.iter().enumerate() {
        path.push(i as u16);
        let rebuilt = rebuild(child, by_path, path);
        path.pop();
        child_changed |= !Rc::ptr_eq(&rebuilt, child);
        children.push(rebuilt);
    }
    let empty = Vec::new();
    let offsets = by_path.get(path.as_slice()).unwrap_or(&empty);
    if offsets.is_empty() && !child_changed {
        return code.clone();
    }
    let remap = |t: u32| -> u32 {
        let shift = offsets.iter().take_while(|&&s| (s as u32) < t).count();
        t + shift as u32
    };
    let mut instrs = Vec::with_capacity(code.instrs.len() + offsets.len());
    for (i, ins) in code.instrs.iter().enumerate() {
        match ins {
            Instr::Jump(t) => instrs.push(Instr::Jump(remap(*t))),
            Instr::JumpIfFalse(t) => instrs.push(Instr::JumpIfFalse(remap(*t))),
            Instr::CallWithAttachment(n) if offsets.binary_search(&i).is_ok() => {
                instrs.push(Instr::Call(*n));
                instrs.push(Instr::PopAttach);
            }
            other => instrs.push(other.clone()),
        }
    }
    Code::build(
        code.name.clone(),
        code.arity_required,
        code.rest,
        instrs,
        code.consts.clone(),
        children,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_vm::MarkModel;

    /// Hand-builds `main` calling child 0 under an attachment:
    /// `const v; push-attach; make-closure; call/attach 0; return`.
    fn wcm_call_code(callee: Rc<Code>) -> Rc<Code> {
        Code::build(
            "main",
            0,
            false,
            vec![
                Instr::Const(0),
                Instr::PushAttach,
                Instr::MakeClosure {
                    code: 0,
                    captures: 0,
                },
                Instr::CallWithAttachment(0),
                Instr::Return,
            ],
            vec![Value::fixnum(7)],
            vec![callee],
        )
    }

    fn clean_callee() -> Rc<Code> {
        Code::build(
            "leaf",
            0,
            false,
            vec![Instr::Const(0), Instr::Return],
            vec![Value::fixnum(1)],
            vec![],
        )
    }

    fn observing_callee() -> Rc<Code> {
        Code::build(
            "peek",
            0,
            false,
            vec![Instr::CurrentAttachments, Instr::Return],
            vec![],
            vec![],
        )
    }

    #[test]
    fn clean_callee_site_is_rewritable() {
        let root = wcm_call_code(clean_callee());
        let globals = Globals::new();
        let facts = analyze(
            &root,
            &globals,
            &TrustedObservers::default(),
            &ExprFacts::default(),
        );
        let site = facts
            .call_sites
            .iter()
            .find(|s| s.kind == "call/attach")
            .expect("call site found");
        assert!(!site.observes, "{site:?}");
        assert!(site.rewritable, "{site:?}");
    }

    #[test]
    fn observing_callee_blocks_rewrite() {
        let root = wcm_call_code(observing_callee());
        let globals = Globals::new();
        let facts = analyze(
            &root,
            &globals,
            &TrustedObservers::default(),
            &ExprFacts::default(),
        );
        let site = facts
            .call_sites
            .iter()
            .find(|s| s.kind == "call/attach")
            .expect("call site found");
        assert!(site.observes);
        assert!(!site.rewritable);
    }

    #[test]
    fn unknown_callee_is_conservative() {
        // call/attach through a capture: unresolvable.
        let callee_slot = Code::build(
            "indirect",
            1,
            false,
            vec![
                Instr::Const(0),
                Instr::PushAttach,
                Instr::LocalRef(0),
                Instr::CallWithAttachment(0),
                Instr::Return,
            ],
            vec![Value::fixnum(1)],
            vec![],
        );
        let globals = Globals::new();
        let facts = analyze(
            &callee_slot,
            &globals,
            &TrustedObservers::default(),
            &ExprFacts::default(),
        );
        let site = &facts.call_sites[0];
        assert_eq!(site.callee, "unknown");
        assert!(site.observes && !site.rewritable);
        assert!(facts.observes_all_keys);
    }

    #[test]
    fn rewrite_preserves_verifiability_and_remaps_jumps() {
        let root = wcm_call_code(clean_callee());
        crate::verify(&root, MarkModel::Attachments).expect("input verifies");
        let globals = Globals::new();
        let mut facts = analyze(
            &root,
            &globals,
            &TrustedObservers::default(),
            &ExprFacts::default(),
        );
        let rewritten = apply_rewrites(&root, &mut facts);
        assert_eq!(facts.rewritten_sites, 1);
        assert!(matches!(rewritten.instrs[3], Instr::Call(0)));
        assert!(matches!(rewritten.instrs[4], Instr::PopAttach));
        crate::verify(&rewritten, MarkModel::Attachments).expect("rewritten verifies");
    }

    #[test]
    fn jump_targets_shift_past_inserted_pops() {
        // if #t then (call/attach f) else 9, under an owned attachment.
        let callee = clean_callee();
        let main = Code::build(
            "main",
            0,
            false,
            vec![
                Instr::Const(0),       // 0: attachment value
                Instr::PushAttach,     // 1
                Instr::Const(1),       // 2: test
                Instr::JumpIfFalse(8), // 3
                Instr::MakeClosure {
                    code: 0,
                    captures: 0,
                }, // 4
                Instr::CallWithAttachment(0), // 5
                Instr::Jump(10),       // 6 -> join
                Instr::Pop,            // 7 (unreachable pad)
                Instr::Const(2),       // 8: else arm
                Instr::PopAttach,      // 9
                Instr::Return,         // 10
            ],
            vec![Value::fixnum(7), Value::Bool(true), Value::fixnum(9)],
            vec![callee],
        );
        // The hand-built else arm pops explicitly; the then arm pops by
        // underflow (call/attach). After the rewrite both pop explicitly.
        crate::verify(&main, MarkModel::Attachments).expect("input verifies");
        let globals = Globals::new();
        let mut facts = analyze(
            &main,
            &globals,
            &TrustedObservers::default(),
            &ExprFacts::default(),
        );
        let rewritten = apply_rewrites(&main, &mut facts);
        assert_eq!(facts.rewritten_sites, 1);
        // Offsets after 5 shift by one; the jump at (old) 3 targeted 8,
        // now 9; the jump at (old) 6 targeted 10, now 11.
        assert!(matches!(rewritten.instrs[3], Instr::JumpIfFalse(9)));
        assert!(matches!(rewritten.instrs[5], Instr::Call(0)));
        assert!(matches!(rewritten.instrs[6], Instr::PopAttach));
        assert!(matches!(rewritten.instrs[7], Instr::Jump(11)));
        crate::verify(&rewritten, MarkModel::Attachments).expect("rewritten verifies");
    }

    #[test]
    fn trusted_observer_yields_key_specific_facts() {
        // main: set key 'a (expr facts), call trusted observer with 'b.
        let observer = Code::build(
            "continuation-mark-set-first",
            3,
            false,
            vec![Instr::CurrentAttachments, Instr::Return],
            vec![],
            vec![],
        );
        let main = Code::build(
            "main",
            0,
            false,
            vec![
                Instr::GlobalRef(0),
                Instr::Const(0), // set
                Instr::Const(1), // key 'b
                Instr::Const(2), // default
                Instr::Call(3),
                Instr::Return,
            ],
            vec![Value::Bool(false), Value::symbol("b"), Value::Bool(false)],
            vec![],
        );
        let mut globals = Globals::new();
        let id = globals.define(
            cm_sexpr::sym("continuation-mark-set-first"),
            Value::closure(cm_vm::Closure {
                code: observer.clone(),
                captures: vec![],
            }),
        );
        assert_eq!(id, 0);
        let trusted = TrustedObservers {
            observers: vec![TrustedObserver {
                name: "continuation-mark-set-first".to_owned(),
                code: observer,
                key_arg: 1,
            }],
        };
        let expr = ExprFacts {
            set_keys: vec![cm_sexpr::sym("a"), cm_sexpr::sym("b")],
            observes_all: false,
        };
        let facts = analyze(&main, &globals, &trusted, &expr);
        assert!(!facts.observes_all_keys);
        assert_eq!(facts.observed_keys, vec!["b".to_owned()]);
        assert_eq!(facts.dead_keys, vec!["a".to_owned()]);
        // Calling a trusted observer is still *observing* for rewrites.
        assert!(facts.call_sites[0].observes);
    }

    #[test]
    fn facts_serialize_deterministically() {
        let root = wcm_call_code(clean_callee());
        let globals = Globals::new();
        let facts = analyze(
            &root,
            &globals,
            &TrustedObservers::default(),
            &ExprFacts::default(),
        );
        let a = facts.to_json_pretty();
        let b = facts.to_json_pretty();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema\": \"cm-markflow-facts-v1\""));
        assert!(a.ends_with("}\n"));
    }
}
