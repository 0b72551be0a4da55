//! Runtime values.
//!
//! A [`Value`] is a `Copy`-able tagged word: immediates carry their
//! payload inline, heap values carry a typed handle into the thread's
//! [`heap`](crate::heap) arena (see that module for the collector).
//! Allocation is a slab push, copying a value is a register move, and
//! `eq?` is handle identity. The engine is single-threaded, matching the
//! measured Chez Scheme kernel path. Equality follows Scheme's `eq?`:
//! handle identity for heap values, value identity for immediates.

use std::fmt;
use std::rc::Rc;

use cm_sexpr::{Datum, DatumKind, Sym};

use crate::heap::{self, HBox, HClosure, HCont, HPair, HRecord, HStr, HTable, HVec};
use crate::machine::control::ContData;
use crate::prims::NativeId;

pub use crate::heap::Closure;
pub use crate::heap::RecordData;

/// A Scheme value.
///
/// `Value` is `Copy`: heap variants hold typed handles, not pointers, so
/// copying never touches a refcount. Use [`Value::eq_value`] for `eq?`
/// semantics; `PartialEq` is *not* implemented to keep call sites
/// explicit about which equality they mean.
#[derive(Clone, Copy)]
pub enum Value {
    /// An exact integer.
    Fixnum(i64),
    /// An inexact real.
    Flonum(f64),
    /// `#t` / `#f`.
    Bool(bool),
    /// A character.
    Char(char),
    /// The empty list.
    Nil,
    /// The unspecified value returned by side-effecting forms.
    Void,
    /// The end-of-file object.
    Eof,
    /// An interned symbol.
    Sym(Sym),
    /// A mutable string.
    Str(HStr),
    /// A mutable cons pair.
    Pair(HPair),
    /// A mutable vector.
    Vector(HVec),
    /// A mutable box (also used internally for assignment conversion).
    Box(HBox),
    /// An `eq?`-keyed mutable hash table.
    Table(HTable),
    /// A record instance (tagged fixed-size mutable fields).
    Record(HRecord),
    /// A compiled closure.
    Closure(HClosure),
    /// A native (Rust-implemented) procedure.
    Native(NativeId),
    /// A first-class continuation (from `call/cc` or `call/1cc`).
    Cont(HCont),
}

/// A key with `eq?` hashing semantics, for [`Value::Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EqKey {
    /// Immediate fixnum.
    Fixnum(i64),
    /// Immediate flonum (by bit pattern, like `eqv?`).
    Flonum(u64),
    /// Immediate boolean.
    Bool(bool),
    /// Immediate character.
    Char(char),
    /// The empty list.
    Nil,
    /// The void object.
    Void,
    /// The eof object.
    Eof,
    /// An interned symbol.
    Sym(Sym),
    /// A heap object. For handles this encodes `(kind << 48) | index`;
    /// for continuation chains (and natives) it is derived from stable
    /// addresses below the kind-tag range, so the two can never collide.
    Ptr(usize),
}

/// The default value is `Void` (used for poison/uninitialized slots).
impl Default for Value {
    fn default() -> Value {
        Value::Void
    }
}

impl Value {
    /// Constructs a fixnum.
    pub fn fixnum(n: i64) -> Value {
        Value::Fixnum(n)
    }

    /// Constructs a flonum.
    pub fn flonum(f: f64) -> Value {
        Value::Flonum(f)
    }

    /// Constructs a boolean.
    pub fn bool(b: bool) -> Value {
        Value::Bool(b)
    }

    /// Constructs a symbol value from a name.
    pub fn symbol(name: &str) -> Value {
        Value::Sym(cm_sexpr::sym(name))
    }

    /// Constructs a fresh mutable string.
    pub fn string(s: impl Into<String>) -> Value {
        Value::Str(heap::with_heap(|h| h.alloc_string(s.into())))
    }

    /// Constructs a fresh cons pair.
    pub fn cons(car: Value, cdr: Value) -> Value {
        Value::Pair(heap::with_heap(|h| h.alloc_pair(car, cdr)))
    }

    /// Constructs a proper list.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        let items: Vec<Value> = items.into_iter().collect();
        let mut out = Value::Nil;
        for v in items.into_iter().rev() {
            out = Value::cons(v, out);
        }
        out
    }

    /// Constructs a fresh vector.
    pub fn vector(items: Vec<Value>) -> Value {
        Value::Vector(heap::with_heap(|h| h.alloc_vec(items)))
    }

    /// Constructs a fresh mutable box.
    pub fn boxed(v: Value) -> Value {
        Value::Box(heap::with_heap(|h| h.alloc_box(v)))
    }

    /// Constructs a fresh empty `eq?` hash table.
    pub fn table() -> Value {
        Value::Table(heap::with_heap(|h| h.alloc_table()))
    }

    /// Constructs a fresh record.
    pub fn record(tag: Sym, fields: Vec<Value>) -> Value {
        Value::Record(heap::with_heap(|h| h.alloc_record(tag, fields)))
    }

    /// Allocates a closure on the heap.
    pub fn closure(c: Closure) -> Value {
        Value::Closure(heap::with_heap(|h| h.alloc_closure(c)))
    }

    /// Allocates a continuation on the heap.
    pub fn cont(c: ContData) -> Value {
        Value::Cont(heap::with_heap(|h| h.alloc_cont(c)))
    }

    /// Scheme truthiness: everything except `#f` is true.
    pub fn is_true(&self) -> bool {
        !matches!(self, Value::Bool(false))
    }

    /// Whether this is the empty list.
    pub fn is_nil(&self) -> bool {
        matches!(self, Value::Nil)
    }

    /// Whether this value is callable (closure, native, or continuation).
    pub fn is_procedure(&self) -> bool {
        matches!(self, Value::Closure(_) | Value::Native(_) | Value::Cont(_))
    }

    /// Whether this value is a handle into the heap (and so needs a root
    /// to survive a collection).
    pub(crate) fn is_heap(&self) -> bool {
        matches!(
            self,
            Value::Str(_)
                | Value::Pair(_)
                | Value::Vector(_)
                | Value::Box(_)
                | Value::Table(_)
                | Value::Record(_)
                | Value::Closure(_)
                | Value::Cont(_)
        )
    }

    /// `eq?` — handle identity for heap values, value identity for
    /// immediates. (Flonums compare by bits, as in `eqv?`; Chez's `eq?` on
    /// flonums is unspecified, and this choice keeps `eq?` usable as a
    /// mark-key comparison.)
    pub fn eq_value(&self, other: &Value) -> bool {
        self.eq_key() == other.eq_key()
    }

    /// Returns the `eq?` identity of this value for hashing.
    pub fn eq_key(&self) -> EqKey {
        match self {
            Value::Fixnum(n) => EqKey::Fixnum(*n),
            Value::Flonum(f) => EqKey::Flonum(f.to_bits()),
            Value::Bool(b) => EqKey::Bool(*b),
            Value::Char(c) => EqKey::Char(*c),
            Value::Nil => EqKey::Nil,
            Value::Void => EqKey::Void,
            Value::Eof => EqKey::Eof,
            Value::Sym(s) => EqKey::Sym(*s),
            Value::Str(h) => h.eq_key(),
            Value::Pair(h) => h.eq_key(),
            Value::Vector(h) => h.eq_key(),
            Value::Box(h) => h.eq_key(),
            Value::Table(h) => h.eq_key(),
            Value::Record(h) => h.eq_key(),
            Value::Closure(h) => h.eq_key(),
            Value::Native(id) => EqKey::Ptr(0x1000_0000 + usize::from(id.0)),
            // Two continuations captured at the same point share the same
            // underflow record (capture reuses an already-reified chain),
            // and Chez-style code — e.g. the paper's figure-3 imitation of
            // attachments — relies on such captures being `eq?`. Identify
            // a full continuation by its chain head.
            Value::Cont(h) => h.chain_eq_key(),
        }
    }

    /// Structural equality (`equal?`): recurs through pairs, vectors, and
    /// strings; everything else falls back to `eq?`.
    pub fn equal_value(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Pair(_), Value::Pair(_)) => {
                // Iterate along the cdr spine (recursion only on cars) so
                // long lists don't overflow the native stack.
                let (mut x, mut y) = (*self, *other);
                loop {
                    match (x, y) {
                        (Value::Pair(a), Value::Pair(b)) => {
                            if a == b {
                                return true;
                            }
                            let (acar, acdr) = a.car_cdr();
                            let (bcar, bcdr) = b.car_cdr();
                            if !acar.equal_value(&bcar) {
                                return false;
                            }
                            x = acdr;
                            y = bcdr;
                        }
                        (ref a, ref b) => return a.equal_value(b),
                    }
                }
            }
            (Value::Vector(a), Value::Vector(b)) => {
                if a == b {
                    return true;
                }
                let (a, b) = (a.to_vec(), b.to_vec());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.equal_value(y))
            }
            (Value::Str(a), Value::Str(b)) => a == b || a.with(|s| b.with(|t| s == t)),
            (Value::Fixnum(a), Value::Flonum(b)) | (Value::Flonum(b), Value::Fixnum(a)) => {
                // `equal?` implies `eqv?`, which distinguishes exactness; but
                // many benchmark programs rely on numeric `=` instead, so
                // keep exact/inexact distinct here.
                let _ = (a, b);
                false
            }
            _ => self.eq_value(other),
        }
    }

    /// Iterates over a proper list, returning `None` if improper.
    pub fn list_to_vec(&self) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        let mut cur = *self;
        loop {
            match cur {
                Value::Nil => return Some(out),
                Value::Pair(p) => {
                    let (car, cdr) = p.car_cdr();
                    out.push(car);
                    cur = cdr;
                }
                _ => return None,
            }
        }
    }

    /// The `car` of a pair, if this is a pair.
    pub fn car(&self) -> Option<Value> {
        match self {
            Value::Pair(p) => Some(p.car()),
            _ => None,
        }
    }

    /// The `cdr` of a pair, if this is a pair.
    pub fn cdr(&self) -> Option<Value> {
        match self {
            Value::Pair(p) => Some(p.cdr()),
            _ => None,
        }
    }

    /// Converts a reader [`Datum`] into a value (used by `quote`).
    ///
    /// String literals are *interned*: the VM has no string mutators, and
    /// the engine and reference model both build constants through this
    /// path, so sharing is unobservable except through `eq?` — where both
    /// sides agree.
    pub fn from_datum(d: &Datum) -> Value {
        match &d.kind {
            DatumKind::Fixnum(n) => Value::Fixnum(*n),
            DatumKind::Flonum(f) => Value::Flonum(*f),
            DatumKind::Bool(b) => Value::Bool(*b),
            DatumKind::Char(c) => Value::Char(*c),
            DatumKind::Str(s) => heap::intern_string(s),
            DatumKind::Symbol(s) => Value::Sym(*s),
            DatumKind::Nil => Value::Nil,
            DatumKind::Pair(p) => Value::cons(Value::from_datum(&p.0), Value::from_datum(&p.1)),
            DatumKind::Vector(v) => Value::vector(v.iter().map(Value::from_datum).collect()),
        }
    }

    /// Renders in `write` notation (reader-compatible).
    pub fn write_string(&self) -> String {
        let mut out = String::new();
        self.print(&mut out, true, 0);
        out
    }

    /// Renders in `display` notation (human-oriented).
    pub fn display_string(&self) -> String {
        let mut out = String::new();
        self.print(&mut out, false, 0);
        out
    }

    fn print(&self, out: &mut String, write: bool, depth: usize) {
        use std::fmt::Write as _;
        if depth > 64 {
            out.push_str("...");
            return;
        }
        match self {
            Value::Fixnum(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Flonum(f) => {
                let d = Datum::synth(DatumKind::Flonum(*f));
                out.push_str(&cm_sexpr::write_datum(&d));
            }
            Value::Bool(true) => out.push_str("#t"),
            Value::Bool(false) => out.push_str("#f"),
            Value::Char(c) => {
                if write {
                    let d = Datum::synth(DatumKind::Char(*c));
                    out.push_str(&cm_sexpr::write_datum(&d));
                } else {
                    out.push(*c);
                }
            }
            Value::Nil => out.push_str("()"),
            Value::Void => out.push_str("#<void>"),
            Value::Eof => out.push_str("#<eof>"),
            Value::Sym(s) => out.push_str(s.name()),
            Value::Str(s) => {
                let contents = s.get();
                if write {
                    let d = Datum::synth(DatumKind::Str(Rc::from(contents.as_str())));
                    out.push_str(&cm_sexpr::write_datum(&d));
                } else {
                    out.push_str(&contents);
                }
            }
            Value::Pair(_) => {
                out.push('(');
                let mut cur = *self;
                let mut first = true;
                let mut len = 0usize;
                loop {
                    match cur {
                        Value::Pair(p) => {
                            len += 1;
                            if len > 4096 {
                                out.push_str(" ...");
                                break;
                            }
                            if !first {
                                out.push(' ');
                            }
                            first = false;
                            let (car, cdr) = p.car_cdr();
                            car.print(out, write, depth + 1);
                            cur = cdr;
                        }
                        Value::Nil => break,
                        other => {
                            out.push_str(" . ");
                            other.print(out, write, depth + 1);
                            break;
                        }
                    }
                }
                out.push(')');
            }
            Value::Vector(v) => {
                out.push_str("#(");
                for (i, item) in v.to_vec().iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    item.print(out, write, depth + 1);
                }
                out.push(')');
            }
            Value::Box(b) => {
                out.push_str("#&");
                b.get().print(out, write, depth + 1);
            }
            Value::Table(t) => {
                let _ = write!(out, "#<hash-table:{}>", t.len());
            }
            Value::Record(r) => {
                let _ = write!(out, "#<{}>", r.tag().name());
            }
            Value::Closure(c) => {
                let _ = write!(out, "#<procedure {}>", c.name());
            }
            Value::Native(id) => {
                let _ = write!(out, "#<procedure {}>", id.name());
            }
            Value::Cont(_) => out.push_str("#<continuation>"),
        }
    }

    /// A short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Fixnum(_) => "fixnum",
            Value::Flonum(_) => "flonum",
            Value::Bool(_) => "boolean",
            Value::Char(_) => "character",
            Value::Nil => "null",
            Value::Void => "void",
            Value::Eof => "eof",
            Value::Sym(_) => "symbol",
            Value::Str(_) => "string",
            Value::Pair(_) => "pair",
            Value::Vector(_) => "vector",
            Value::Box(_) => "box",
            Value::Table(_) => "hash-table",
            Value::Record(_) => "record",
            Value::Closure(_) | Value::Native(_) => "procedure",
            Value::Cont(_) => "continuation",
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.write_string())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_is_identity_for_pairs() {
        let a = Value::cons(Value::fixnum(1), Value::Nil);
        let b = Value::cons(Value::fixnum(1), Value::Nil);
        assert!(a.eq_value(&a));
        assert!(!a.eq_value(&b));
        assert!(a.equal_value(&b));
    }

    #[test]
    fn eq_is_value_for_immediates() {
        assert!(Value::fixnum(3).eq_value(&Value::fixnum(3)));
        assert!(!Value::fixnum(3).eq_value(&Value::fixnum(4)));
        assert!(Value::symbol("a").eq_value(&Value::symbol("a")));
        assert!(Value::Nil.eq_value(&Value::Nil));
        assert!(!Value::Nil.eq_value(&Value::Bool(false)));
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Bool(false).is_true());
        assert!(Value::Bool(true).is_true());
        assert!(Value::Nil.is_true());
        assert!(Value::fixnum(0).is_true());
    }

    #[test]
    fn list_round_trip() {
        let l = Value::list([Value::fixnum(1), Value::fixnum(2)]);
        let v = l.list_to_vec().unwrap();
        assert_eq!(v.len(), 2);
        assert!(v[1].eq_value(&Value::fixnum(2)));
        let improper = Value::cons(Value::fixnum(1), Value::fixnum(2));
        assert!(improper.list_to_vec().is_none());
    }

    #[test]
    fn printing() {
        let l = Value::list([Value::symbol("a"), Value::string("hi"), Value::fixnum(3)]);
        assert_eq!(l.write_string(), "(a \"hi\" 3)");
        assert_eq!(l.display_string(), "(a hi 3)");
        assert_eq!(
            Value::cons(Value::fixnum(1), Value::fixnum(2)).write_string(),
            "(1 . 2)"
        );
        assert_eq!(Value::Flonum(2.0).write_string(), "2.0");
    }

    #[test]
    fn from_datum_preserves_structure() {
        let d = &cm_sexpr::parse_str("(a (1 . 2) #(3) \"s\")").unwrap()[0];
        let v = Value::from_datum(d);
        assert_eq!(v.write_string(), "(a (1 . 2) #(3) \"s\")");
    }

    #[test]
    fn equal_distinguishes_exactness() {
        assert!(!Value::fixnum(1).equal_value(&Value::flonum(1.0)));
    }

    #[test]
    fn boxes_read_back() {
        let b = Value::boxed(Value::fixnum(9));
        if let Value::Box(h) = b {
            assert!(h.get().eq_value(&Value::fixnum(9)));
            h.set(Value::fixnum(10));
            assert!(h.get().eq_value(&Value::fixnum(10)));
        } else {
            panic!("not a box");
        }
        assert_eq!(b.write_string(), "#&10");
    }

    #[test]
    fn cyclic_print_terminates() {
        let p = Value::cons(Value::fixnum(1), Value::Nil);
        if let (Value::Pair(cell), cyc) = (p, p) {
            cell.set_cdr(cyc);
        }
        // Should not hang or overflow; depth cap kicks in.
        let s = p.display_string();
        assert!(s.contains("..."));
    }
}
