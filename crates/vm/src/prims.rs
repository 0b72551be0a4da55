//! The primitive table: each native procedure, inlined or called, is one
//! row ([`NativeDef`]) of name, arity, implementation and [`PrimClass`].
//! Implementations come in three flavors:
//!
//! * **Pure** rows compute a result from their arguments,
//! * **Machine** rows additionally read or mutate machine registers
//!   (winders, eager marks, output), and
//! * **Control** rows ([`ControlOp`]) redirect control flow and are
//!   dispatched inside the machine's call logic (`call/cc`, prompts, the
//!   uniform attachment operations of §7).
//!
//! Inline and plain rows are attachment-transparent, the knowledge behind
//! the paper's "no prim" optimization (§7.2, §8.5); observer rows are not.
//! `Instr::PrimCall`, the compiler's `PrimApp` and `Value::Native` all
//! carry a [`NativeId`], so an inlined call and a called one check arity
//! the same way and run the same function.

use std::collections::HashMap;
use std::sync::OnceLock;

use cm_sexpr::Sym;

use crate::error::{VmError, VmErrorKind, VmResult};
use crate::machine::Machine;
use crate::values::Value;

/// Identifies one row of the primitive table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NativeId(pub(crate) u16);

impl NativeId {
    /// The row named `name`. In a constant this resolves at build time,
    /// so a misspelt name fails the build; at run time an unknown name
    /// panics (resolve names that come from data with [`lookup`]).
    pub const fn named(name: &str) -> NativeId {
        let mut i = 0;
        while !same_bytes(NATIVES[i].name.as_bytes(), name.as_bytes()) {
            i += 1;
        }
        NativeId(i as u16)
    }

    /// The handle of table index `i`, if the table has that row.
    pub(crate) fn from_index(i: u16) -> Option<NativeId> {
        (usize::from(i) < NATIVES.len()).then_some(NativeId(i))
    }

    /// This primitive's row.
    pub fn def(self) -> &'static NativeDef {
        &NATIVES[usize::from(self.0)]
    }

    /// The Scheme-level name.
    pub fn name(self) -> &'static str {
        self.def().name
    }
}

const fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    match (a, b) {
        ([x, a @ ..], [y, b @ ..]) => *x == *y && same_bytes(a, b),
        _ => a.is_empty() && b.is_empty(),
    }
}

/// Control operations that must run inside the machine's call dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOp {
    /// `call/cc` — capture a full continuation.
    CallCc,
    /// `call/1cc` — capture a one-shot continuation.
    Call1cc,
    /// `apply`.
    Apply,
    /// `%call-with-prompt tag thunk handler`.
    PromptCall,
    /// `%abort tag value`.
    Abort,
    /// `%call-with-composable-continuation tag proc`.
    CompCapture,
    /// Uniform (unoptimized) `call-setting-continuation-attachment`.
    CallSettingAttachment,
    /// Uniform `call-getting-continuation-attachment`.
    CallGettingAttachment,
    /// Uniform `call-consuming-continuation-attachment`.
    CallConsumingAttachment,
}

/// Implementation of one native.
#[derive(Clone, Copy)]
pub enum NativeImpl {
    /// Pure function of the arguments.
    Pure(fn(&[Value]) -> VmResult<Value>),
    /// Needs machine access (but returns normally).
    Machine(fn(&mut Machine, Vec<Value>) -> VmResult<Value>),
    /// Redirects control flow.
    Control(ControlOp),
}

/// What the compiler and the analyses may assume about a primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimClass {
    /// A Pure row that cp0 rewrites into a `PrimApp` and codegen emits
    /// as `Instr::PrimCall`, with what cp0 may do to it.
    Inline(Cp0Rule),
    /// A native called like any procedure.
    Plain,
    /// Reads or writes attachment or mark state, captures, resumes or
    /// aborts a continuation, installs winders, or suspends the engine.
    Observer,
}

/// What cp0 may do to an inlined primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cp0Rule {
    /// Pure and deterministic: fold calls on constants, drop unused ones.
    Fold,
    /// Allocates fresh mutable structure or reads mutable state: drop
    /// unused calls, never fold.
    Drop,
    /// Has a side effect: neither fold nor drop.
    Keep,
}

/// One row of the primitive table.
pub struct NativeDef {
    /// The Scheme-level name.
    pub name: &'static str,
    /// Minimum argument count.
    pub min: usize,
    /// Maximum argument count (`None` = variadic).
    pub max: Option<usize>,
    /// The implementation.
    pub imp: NativeImpl,
    /// What the compiler and the analyses may assume.
    pub class: PrimClass,
}

impl NativeDef {
    /// Whether this native accepts `argc` arguments.
    pub fn accepts(&self, argc: usize) -> bool {
        argc >= self.min && self.max.is_none_or(|m| argc <= m)
    }

    /// Validates an argument count against this native's arity.
    pub fn check_arity(&self, got: usize) -> VmResult<()> {
        if self.accepts(got) {
            Ok(())
        } else {
            let expected = match self.max {
                Some(m) if m == self.min => format!("{m}"),
                Some(m) => format!("{} to {}", self.min, m),
                None => format!("at least {}", self.min),
            };
            Err(VmError::arity(self.name, expected, got))
        }
    }

    /// Whether calls to this row compile inline.
    pub fn inlinable(&self) -> bool {
        matches!(self.class, PrimClass::Inline(_))
    }

    /// Whether a call to this row observes marks; every other row is
    /// attachment-transparent.
    pub fn observes_marks(&self) -> bool {
        self.class == PrimClass::Observer
    }

    /// Applies a Pure row to `args` outside any machine (cp0's constant
    /// folding and the reference model), checking arity as a call does.
    ///
    /// # Errors
    ///
    /// A call's errors; [`VmErrorKind::NotInlinable`] for other rows.
    pub fn apply(&self, args: &[Value]) -> VmResult<Value> {
        let NativeImpl::Pure(f) = self.imp else {
            return Err(VmErrorKind::NotInlinable(self.name).into());
        };
        self.check_arity(args.len())?;
        f(args)
    }
}

macro_rules! natives {
    (@class) => { PrimClass::Plain };
    (@class $class:expr) => { $class };
    ($(($name:expr, $min:expr, $max:expr, $imp:expr $(, $class:expr)?)),* $(,)?) => {
        &[$(NativeDef {
            name: $name,
            min: $min,
            max: $max,
            imp: $imp,
            class: natives!(@class $($class)?),
        }),*]
    };
}

use NativeImpl::{Control, Machine as Mach, Pure};

const FOLD: PrimClass = PrimClass::Inline(Cp0Rule::Fold);
const DROP: PrimClass = PrimClass::Inline(Cp0Rule::Drop);
const KEEP: PrimClass = PrimClass::Inline(Cp0Rule::Keep);
const OBSERVER: PrimClass = PrimClass::Observer;

/// The primitive table; a row without a class is [`PrimClass::Plain`].
static NATIVES: &[NativeDef] = natives![
    // Control
    ("call/cc", 1, Some(1), Control(ControlOp::CallCc), OBSERVER),
    (
        "call-with-current-continuation",
        1,
        Some(1),
        Control(ControlOp::CallCc),
        OBSERVER
    ),
    (
        "call/1cc",
        1,
        Some(1),
        Control(ControlOp::Call1cc),
        OBSERVER
    ),
    ("apply", 2, None, Control(ControlOp::Apply), OBSERVER),
    (
        "%call-with-prompt",
        3,
        Some(3),
        Control(ControlOp::PromptCall),
        OBSERVER
    ),
    ("%abort", 2, Some(2), Control(ControlOp::Abort), OBSERVER),
    (
        "%call-with-composable-continuation",
        2,
        Some(2),
        Control(ControlOp::CompCapture),
        OBSERVER
    ),
    (
        "$call-setting-attachment",
        2,
        Some(2),
        Control(ControlOp::CallSettingAttachment),
        OBSERVER
    ),
    (
        "$call-getting-attachment",
        2,
        Some(2),
        Control(ControlOp::CallGettingAttachment),
        OBSERVER
    ),
    (
        "$call-consuming-attachment",
        2,
        Some(2),
        Control(ControlOp::CallConsumingAttachment),
        OBSERVER
    ),
    // Machine
    ("$push-winder", 2, Some(2), Mach(m_push_winder), OBSERVER),
    ("$pop-winder", 0, Some(0), Mach(m_pop_winder), OBSERVER),
    (
        "current-continuation-attachments",
        0,
        Some(0),
        Mach(m_current_attachments),
        OBSERVER
    ),
    ("$eager-mark-set!", 2, Some(2), Mach(m_eager_set), OBSERVER),
    ("$eager-first", 2, Some(2), Mach(m_eager_first), OBSERVER),
    ("$eager-marks", 1, Some(1), Mach(m_eager_marks), OBSERVER),
    (
        "$eager-immediate",
        2,
        Some(2),
        Mach(m_eager_immediate),
        OBSERVER
    ),
    ("display", 1, Some(1), Mach(m_display)),
    ("write", 1, Some(1), Mach(m_write)),
    ("newline", 0, Some(0), Mach(m_newline)),
    // Continuation inspection
    (
        "$cont-attachments",
        1,
        Some(1),
        Pure(p_cont_attachments),
        OBSERVER
    ),
    // Marks-layer support (§7.5): key lookup over an attachments list
    // of `$mark-frame` records, with path-compression caching.
    ("$marks-first", 3, Some(3), Pure(p_marks_first), OBSERVER),
    ("$marks->list", 2, Some(2), Pure(p_marks_to_list), OBSERVER),
    (
        "$eager-all-marks",
        0,
        Some(0),
        Mach(m_eager_all_marks),
        OBSERVER
    ),
    (
        "continuation?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Cont(_)))))
    ),
    // Numbers
    ("+", 0, None, Pure(p_add), FOLD),
    ("-", 1, None, Pure(p_sub), FOLD),
    ("*", 0, None, Pure(p_mul), FOLD),
    ("/", 1, None, Pure(p_div), FOLD),
    ("quotient", 2, Some(2), Pure(p_quotient), FOLD),
    ("remainder", 2, Some(2), Pure(p_remainder), FOLD),
    ("modulo", 2, Some(2), Pure(p_modulo), FOLD),
    (
        "=",
        2,
        None,
        Pure(|a| p_cmp(a, "=", |o| o == std::cmp::Ordering::Equal)),
        FOLD
    ),
    (
        "<",
        2,
        None,
        Pure(|a| p_cmp(a, "<", |o| o == std::cmp::Ordering::Less)),
        FOLD
    ),
    (
        "<=",
        2,
        None,
        Pure(|a| p_cmp(a, "<=", |o| o != std::cmp::Ordering::Greater)),
        FOLD
    ),
    (
        ">",
        2,
        None,
        Pure(|a| p_cmp(a, ">", |o| o == std::cmp::Ordering::Greater)),
        FOLD
    ),
    (
        ">=",
        2,
        None,
        Pure(|a| p_cmp(a, ">=", |o| o != std::cmp::Ordering::Less)),
        FOLD
    ),
    (
        "add1",
        1,
        Some(1),
        Pure(|a| add_values("add1", &a[0], &Value::Fixnum(1))),
        FOLD
    ),
    (
        "sub1",
        1,
        Some(1),
        Pure(|a| sub_values("sub1", &a[0], &Value::Fixnum(1))),
        FOLD
    ),
    (
        "1+",
        1,
        Some(1),
        Pure(|a| add_values("1+", &a[0], &Value::Fixnum(1))),
        FOLD
    ),
    (
        "1-",
        1,
        Some(1),
        Pure(|a| sub_values("1-", &a[0], &Value::Fixnum(1))),
        FOLD
    ),
    ("zero?", 1, Some(1), Pure(p_zero), FOLD),
    ("abs", 1, Some(1), Pure(p_abs)),
    ("min", 1, None, Pure(p_min)),
    ("max", 1, None, Pure(p_max)),
    ("expt", 2, Some(2), Pure(p_expt)),
    ("sqrt", 1, Some(1), Pure(p_sqrt)),
    ("floor", 1, Some(1), Pure(|a| p_round(a, f64::floor))),
    ("ceiling", 1, Some(1), Pure(|a| p_round(a, f64::ceil))),
    ("round", 1, Some(1), Pure(|a| p_round(a, f64::round))),
    ("truncate", 1, Some(1), Pure(|a| p_round(a, f64::trunc))),
    ("exact->inexact", 1, Some(1), Pure(p_exact_to_inexact)),
    ("inexact->exact", 1, Some(1), Pure(p_inexact_to_exact)),
    ("exact", 1, Some(1), Pure(p_inexact_to_exact)),
    ("inexact", 1, Some(1), Pure(p_exact_to_inexact)),
    (
        "number?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(
            a[0],
            Value::Fixnum(_) | Value::Flonum(_)
        ))))
    ),
    ("integer?", 1, Some(1), Pure(p_integer_p)),
    (
        "real?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(
            a[0],
            Value::Fixnum(_) | Value::Flonum(_)
        ))))
    ),
    (
        "fixnum?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Fixnum(_))))),
        FOLD
    ),
    (
        "flonum?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Flonum(_))))),
        FOLD
    ),
    (
        "exact?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Fixnum(_)))))
    ),
    (
        "inexact?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Flonum(_)))))
    ),
    (
        "even?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(as_fixnum("even?", &a[0])? % 2 == 0)))
    ),
    (
        "odd?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(as_fixnum("odd?", &a[0])? % 2 != 0)))
    ),
    (
        "positive?",
        1,
        Some(1),
        Pure(|a| p_cmp(&[a[0], Value::Fixnum(0)], "positive?", |o| o
            == std::cmp::Ordering::Greater))
    ),
    (
        "negative?",
        1,
        Some(1),
        Pure(|a| p_cmp(&[a[0], Value::Fixnum(0)], "negative?", |o| o
            == std::cmp::Ordering::Less))
    ),
    // Pairs and lists
    (
        "cons",
        2,
        Some(2),
        Pure(|a| Ok(Value::cons(a[0], a[1]))),
        DROP
    ),
    ("car", 1, Some(1), Pure(|a| p_car("car", &a[0])), FOLD),
    ("cdr", 1, Some(1), Pure(|a| p_cdr("cdr", &a[0])), FOLD),
    (
        "caar",
        1,
        Some(1),
        Pure(|a| p_car("caar", &p_car("caar", &a[0])?))
    ),
    (
        "cadr",
        1,
        Some(1),
        Pure(|a| p_car("cadr", &p_cdr("cadr", &a[0])?))
    ),
    (
        "cdar",
        1,
        Some(1),
        Pure(|a| p_cdr("cdar", &p_car("cdar", &a[0])?))
    ),
    (
        "cddr",
        1,
        Some(1),
        Pure(|a| p_cdr("cddr", &p_cdr("cddr", &a[0])?))
    ),
    (
        "caddr",
        1,
        Some(1),
        Pure(|a| p_car("caddr", &p_cdr("caddr", &p_cdr("caddr", &a[0])?)?))
    ),
    (
        "cdddr",
        1,
        Some(1),
        Pure(|a| p_cdr("cdddr", &p_cdr("cdddr", &p_cdr("cdddr", &a[0])?)?))
    ),
    (
        "cadddr",
        1,
        Some(1),
        Pure(|a| p_car(
            "cadddr",
            &p_cdr("cadddr", &p_cdr("cadddr", &p_cdr("cadddr", &a[0])?)?)?
        ))
    ),
    ("set-car!", 2, Some(2), Pure(p_set_car), KEEP),
    ("set-cdr!", 2, Some(2), Pure(p_set_cdr), KEEP),
    (
        "pair?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Pair(_))))),
        FOLD
    ),
    (
        "null?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(a[0].is_nil()))),
        FOLD
    ),
    ("list", 0, None, Pure(|a| Ok(Value::list(a.to_vec())))),
    (
        "list?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(a[0].list_to_vec().is_some())))
    ),
    ("length", 1, Some(1), Pure(p_length)),
    ("append", 0, None, Pure(p_append)),
    ("reverse", 1, Some(1), Pure(p_reverse)),
    ("list-tail", 2, Some(2), Pure(p_list_tail)),
    ("list-ref", 2, Some(2), Pure(p_list_ref)),
    ("memq", 2, Some(2), Pure(|a| p_mem(a, |x, y| x.eq_value(y)))),
    ("memv", 2, Some(2), Pure(|a| p_mem(a, |x, y| x.eq_value(y)))),
    (
        "member",
        2,
        Some(2),
        Pure(|a| p_mem(a, |x, y| x.equal_value(y)))
    ),
    ("assq", 2, Some(2), Pure(|a| p_ass(a, |x, y| x.eq_value(y)))),
    ("assv", 2, Some(2), Pure(|a| p_ass(a, |x, y| x.eq_value(y)))),
    (
        "assoc",
        2,
        Some(2),
        Pure(|a| p_ass(a, |x, y| x.equal_value(y)))
    ),
    // Equality
    (
        "eq?",
        2,
        Some(2),
        Pure(|a| Ok(Value::Bool(a[0].eq_value(&a[1])))),
        FOLD
    ),
    (
        "eqv?",
        2,
        Some(2),
        Pure(|a| Ok(Value::Bool(a[0].eq_value(&a[1])))),
        FOLD
    ),
    (
        "equal?",
        2,
        Some(2),
        Pure(|a| Ok(Value::Bool(a[0].equal_value(&a[1]))))
    ),
    (
        "not",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(!a[0].is_true()))),
        FOLD
    ),
    // Predicates
    (
        "symbol?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Sym(_))))),
        FOLD
    ),
    (
        "boolean?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Bool(_))))),
        FOLD
    ),
    (
        "string?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Str(_))))),
        FOLD
    ),
    (
        "char?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Char(_))))),
        FOLD
    ),
    (
        "vector?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Vector(_))))),
        FOLD
    ),
    (
        "procedure?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(a[0].is_procedure()))),
        FOLD
    ),
    (
        "box?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Box(_)))))
    ),
    (
        "void?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Void))))
    ),
    // Symbols & strings
    ("symbol->string", 1, Some(1), Pure(p_symbol_to_string)),
    ("string->symbol", 1, Some(1), Pure(p_string_to_symbol)),
    ("gensym", 0, Some(1), Pure(p_gensym)),
    ("string-length", 1, Some(1), Pure(p_string_length)),
    ("string-ref", 2, Some(2), Pure(p_string_ref)),
    ("substring", 3, Some(3), Pure(p_substring)),
    ("string-append", 0, None, Pure(p_string_append)),
    (
        "string=?",
        2,
        Some(2),
        Pure(|a| p_string_cmp(a, "string=?", |o| o == std::cmp::Ordering::Equal))
    ),
    (
        "string<?",
        2,
        Some(2),
        Pure(|a| p_string_cmp(a, "string<?", |o| o == std::cmp::Ordering::Less))
    ),
    (
        "string>?",
        2,
        Some(2),
        Pure(|a| p_string_cmp(a, "string>?", |o| o == std::cmp::Ordering::Greater))
    ),
    ("string->list", 1, Some(1), Pure(p_string_to_list)),
    ("list->string", 1, Some(1), Pure(p_list_to_string)),
    ("string->number", 1, Some(1), Pure(p_string_to_number)),
    (
        "number->string",
        1,
        Some(1),
        Pure(|a| Ok(Value::string(a[0].display_string())))
    ),
    ("make-string", 1, Some(2), Pure(p_make_string)),
    ("string", 0, None, Pure(p_string)),
    ("string-copy", 1, Some(1), Pure(p_string_copy)),
    ("char->integer", 1, Some(1), Pure(p_char_to_integer)),
    ("integer->char", 1, Some(1), Pure(p_integer_to_char)),
    (
        "char=?",
        2,
        Some(2),
        Pure(|a| p_char_cmp(a, "char=?", |o| o == std::cmp::Ordering::Equal))
    ),
    (
        "char<?",
        2,
        Some(2),
        Pure(|a| p_char_cmp(a, "char<?", |o| o == std::cmp::Ordering::Less))
    ),
    (
        "char>?",
        2,
        Some(2),
        Pure(|a| p_char_cmp(a, "char>?", |o| o == std::cmp::Ordering::Greater))
    ),
    (
        "char-alphabetic?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(
            as_char("char-alphabetic?", &a[0])?.is_alphabetic()
        )))
    ),
    (
        "char-numeric?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(as_char("char-numeric?", &a[0])?.is_numeric())))
    ),
    (
        "char-whitespace?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(
            as_char("char-whitespace?", &a[0])?.is_whitespace()
        )))
    ),
    (
        "char-upcase",
        1,
        Some(1),
        Pure(|a| Ok(Value::Char(
            as_char("char-upcase", &a[0])?.to_ascii_uppercase()
        )))
    ),
    (
        "char-downcase",
        1,
        Some(1),
        Pure(|a| Ok(Value::Char(
            as_char("char-downcase", &a[0])?.to_ascii_lowercase()
        )))
    ),
    // Vectors
    ("vector", 0, None, Pure(|a| Ok(Value::vector(a.to_vec())))),
    ("make-vector", 1, Some(2), Pure(p_make_vector), DROP),
    ("vector-ref", 2, Some(2), Pure(p_vector_ref), DROP),
    ("vector-set!", 3, Some(3), Pure(p_vector_set), KEEP),
    ("vector-length", 1, Some(1), Pure(p_vector_length), FOLD),
    ("vector->list", 1, Some(1), Pure(p_vector_to_list)),
    ("list->vector", 1, Some(1), Pure(p_list_to_vector)),
    ("vector-fill!", 2, Some(2), Pure(p_vector_fill)),
    // Boxes
    ("box", 1, Some(1), Pure(|a| Ok(Value::boxed(a[0]))), DROP),
    ("unbox", 1, Some(1), Pure(p_unbox), DROP),
    ("set-box!", 2, Some(2), Pure(p_set_box), KEEP),
    // Hash tables
    ("make-hashtable", 0, Some(0), Pure(|_| Ok(Value::table()))),
    (
        "hashtable?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Table(_)))))
    ),
    ("hashtable-set!", 3, Some(3), Pure(p_hash_set)),
    ("hashtable-ref", 3, Some(3), Pure(p_hash_ref)),
    ("hashtable-contains?", 2, Some(2), Pure(p_hash_contains)),
    ("hashtable-delete!", 2, Some(2), Pure(p_hash_delete)),
    ("hashtable-size", 1, Some(1), Pure(p_hash_size)),
    // Records
    ("make-record", 1, None, Pure(p_make_record)),
    (
        "record?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Record(_)))))
    ),
    ("record-is?", 2, Some(2), Pure(p_record_is)),
    ("record-tag", 1, Some(1), Pure(p_record_tag)),
    ("record-ref", 2, Some(2), Pure(p_record_ref)),
    ("record-set!", 3, Some(3), Pure(p_record_set)),
    // Misc
    ("void", 0, None, Pure(|_| Ok(Value::Void))),
    ("eof-object", 0, Some(0), Pure(|_| Ok(Value::Eof))),
    (
        "eof-object?",
        1,
        Some(1),
        Pure(|a| Ok(Value::Bool(matches!(a[0], Value::Eof))))
    ),
    ("error", 1, None, Pure(p_error)),
    // Engines (crates/engines): request preemption at the next
    // safe point of a sliced run; a no-op elsewhere. Returns
    // whether the request took effect.
    ("%engine-block", 0, Some(0), Mach(m_engine_block), OBSERVER),
];

/// Every row with its handle, in table order.
pub fn all() -> impl Iterator<Item = (NativeId, &'static NativeDef)> {
    NATIVES.iter().zip(0..).map(|(d, i)| (NativeId(i), d))
}

/// Looks up a row by name. One map, built on first use, serves every
/// lookup by name: cp0's recognition of inlinable calls and the snapshot
/// codec's decode of native values.
pub fn lookup(name: Sym) -> Option<NativeId> {
    static BY_NAME: OnceLock<HashMap<Sym, NativeId>> = OnceLock::new();
    BY_NAME
        .get_or_init(|| all().map(|(id, d)| (cm_sexpr::sym(d.name), id)).collect())
        .get(&name)
        .copied()
}

/// Installs every native into `globals`.
pub fn install(globals: &mut crate::machine::Globals) {
    for (id, d) in all() {
        globals.define(cm_sexpr::sym(d.name), Value::Native(id));
    }
}

/// Executes an inlined primitive: pops `argc` arguments off the machine
/// stack and pushes the result. The native-call path checks arity and
/// runs the row's function the same way.
///
/// # Errors
///
/// Type and arity errors from the row; [`VmErrorKind::NotInlinable`] for
/// a row without a Pure function, which unverified bytecode can name;
/// plus any fault the machine's [`FaultPlan`](crate::FaultPlan) injects
/// at this primitive boundary.
pub fn exec_prim(m: &mut Machine, id: NativeId, argc: usize) -> VmResult<()> {
    let def = id.def();
    let NativeImpl::Pure(f) = def.imp else {
        return Err(VmErrorKind::NotInlinable(def.name).into());
    };
    // The arity check keeps the row's argument indexing in bounds even
    // for bytecode the verifier never saw.
    def.check_arity(argc)?;
    m.note_prim_call(def.name)?;
    let at = m
        .stack
        .len()
        .checked_sub(argc)
        .ok_or_else(|| VmError::internal("prim-call", "arguments missing from stack"))?;
    let result = f(&m.stack[at..])?;
    m.stack.truncate(at);
    m.stack.push(result);
    Ok(())
}

// ----------------------------------------------------------------------
// Numeric helpers
// ----------------------------------------------------------------------

fn as_fixnum(who: &'static str, v: &Value) -> VmResult<i64> {
    match v {
        Value::Fixnum(n) => Ok(*n),
        _ => Err(VmError::wrong_type(who, "fixnum", v)),
    }
}

fn as_f64(who: &'static str, v: &Value) -> VmResult<f64> {
    match v {
        Value::Fixnum(n) => Ok(*n as f64),
        Value::Flonum(f) => Ok(*f),
        _ => Err(VmError::wrong_type(who, "number", v)),
    }
}

fn add_values(who: &'static str, a: &Value, b: &Value) -> VmResult<Value> {
    match (a, b) {
        (Value::Fixnum(x), Value::Fixnum(y)) => x
            .checked_add(*y)
            .map(Value::Fixnum)
            .ok_or_else(|| VmError::other(format!("{who}: fixnum overflow"))),
        _ => Ok(Value::Flonum(as_f64(who, a)? + as_f64(who, b)?)),
    }
}

fn sub_values(who: &'static str, a: &Value, b: &Value) -> VmResult<Value> {
    match (a, b) {
        (Value::Fixnum(x), Value::Fixnum(y)) => x
            .checked_sub(*y)
            .map(Value::Fixnum)
            .ok_or_else(|| VmError::other(format!("{who}: fixnum overflow"))),
        _ => Ok(Value::Flonum(as_f64(who, a)? - as_f64(who, b)?)),
    }
}

fn mul_values(who: &'static str, a: &Value, b: &Value) -> VmResult<Value> {
    match (a, b) {
        (Value::Fixnum(x), Value::Fixnum(y)) => x
            .checked_mul(*y)
            .map(Value::Fixnum)
            .ok_or_else(|| VmError::other(format!("{who}: fixnum overflow"))),
        _ => Ok(Value::Flonum(as_f64(who, a)? * as_f64(who, b)?)),
    }
}

fn p_add(args: &[Value]) -> VmResult<Value> {
    let mut acc = Value::Fixnum(0);
    for a in args {
        acc = add_values("+", &acc, a)?;
    }
    Ok(acc)
}

fn p_sub(args: &[Value]) -> VmResult<Value> {
    if args.len() == 1 {
        return sub_values("-", &Value::Fixnum(0), &args[0]);
    }
    let mut acc = args[0];
    for a in &args[1..] {
        acc = sub_values("-", &acc, a)?;
    }
    Ok(acc)
}

fn p_mul(args: &[Value]) -> VmResult<Value> {
    let mut acc = Value::Fixnum(1);
    for a in args {
        acc = mul_values("*", &acc, a)?;
    }
    Ok(acc)
}

fn p_div(args: &[Value]) -> VmResult<Value> {
    let div2 = |a: &Value, b: &Value| -> VmResult<Value> {
        match (a, b) {
            (Value::Fixnum(x), Value::Fixnum(y)) if *y != 0 && x % y == 0 => {
                Ok(Value::Fixnum(x / y))
            }
            _ => {
                let d = as_f64("/", b)?;
                if d == 0.0 {
                    return Err(VmError::other("/: division by zero"));
                }
                Ok(Value::Flonum(as_f64("/", a)? / d))
            }
        }
    };
    if args.len() == 1 {
        return div2(&Value::Fixnum(1), &args[0]);
    }
    let mut acc = args[0];
    for a in &args[1..] {
        acc = div2(&acc, a)?;
    }
    Ok(acc)
}

fn p_quotient(args: &[Value]) -> VmResult<Value> {
    let (a, b) = (
        as_fixnum("quotient", &args[0])?,
        as_fixnum("quotient", &args[1])?,
    );
    if b == 0 {
        return Err(VmError::other("quotient: division by zero"));
    }
    Ok(Value::Fixnum(a / b))
}

fn p_remainder(args: &[Value]) -> VmResult<Value> {
    let (a, b) = (
        as_fixnum("remainder", &args[0])?,
        as_fixnum("remainder", &args[1])?,
    );
    if b == 0 {
        return Err(VmError::other("remainder: division by zero"));
    }
    Ok(Value::Fixnum(a % b))
}

fn p_modulo(args: &[Value]) -> VmResult<Value> {
    let (a, b) = (
        as_fixnum("modulo", &args[0])?,
        as_fixnum("modulo", &args[1])?,
    );
    if b == 0 {
        return Err(VmError::other("modulo: division by zero"));
    }
    let r = a % b;
    Ok(Value::Fixnum(if r != 0 && (r < 0) != (b < 0) {
        r + b
    } else {
        r
    }))
}

fn num_cmp(who: &'static str, a: &Value, b: &Value) -> VmResult<std::cmp::Ordering> {
    match (a, b) {
        (Value::Fixnum(x), Value::Fixnum(y)) => Ok(x.cmp(y)),
        _ => as_f64(who, a)?
            .partial_cmp(&as_f64(who, b)?)
            .ok_or_else(|| VmError::other(format!("{who}: cannot compare NaN"))),
    }
}

fn p_cmp(args: &[Value], who: &'static str, ok: fn(std::cmp::Ordering) -> bool) -> VmResult<Value> {
    for w in args.windows(2) {
        if !ok(num_cmp(who, &w[0], &w[1])?) {
            return Ok(Value::Bool(false));
        }
    }
    Ok(Value::Bool(true))
}

fn p_zero(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Fixnum(n) => Ok(Value::Bool(*n == 0)),
        Value::Flonum(f) => Ok(Value::Bool(*f == 0.0)),
        v => Err(VmError::wrong_type("zero?", "number", v)),
    }
}

fn p_abs(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Fixnum(n) => Ok(Value::Fixnum(n.abs())),
        Value::Flonum(f) => Ok(Value::Flonum(f.abs())),
        v => Err(VmError::wrong_type("abs", "number", v)),
    }
}

fn p_min(args: &[Value]) -> VmResult<Value> {
    let mut best = args[0];
    for a in &args[1..] {
        if num_cmp("min", a, &best)? == std::cmp::Ordering::Less {
            best = *a;
        }
    }
    Ok(best)
}

fn p_max(args: &[Value]) -> VmResult<Value> {
    let mut best = args[0];
    for a in &args[1..] {
        if num_cmp("max", a, &best)? == std::cmp::Ordering::Greater {
            best = *a;
        }
    }
    Ok(best)
}

fn p_expt(args: &[Value]) -> VmResult<Value> {
    match (&args[0], &args[1]) {
        (Value::Fixnum(b), Value::Fixnum(e)) if *e >= 0 => {
            let mut acc: i64 = 1;
            for _ in 0..*e {
                acc = acc
                    .checked_mul(*b)
                    .ok_or_else(|| VmError::other("expt: fixnum overflow"))?;
            }
            Ok(Value::Fixnum(acc))
        }
        (a, b) => Ok(Value::Flonum(as_f64("expt", a)?.powf(as_f64("expt", b)?))),
    }
}

fn p_sqrt(args: &[Value]) -> VmResult<Value> {
    let f = as_f64("sqrt", &args[0])?;
    let r = f.sqrt();
    if let Value::Fixnum(_) = args[0] {
        let ri = r as i64;
        if ri * ri == as_fixnum("sqrt", &args[0])? {
            return Ok(Value::Fixnum(ri));
        }
    }
    Ok(Value::Flonum(r))
}

fn p_round(args: &[Value], f: fn(f64) -> f64) -> VmResult<Value> {
    match &args[0] {
        Value::Fixnum(n) => Ok(Value::Fixnum(*n)),
        Value::Flonum(x) => Ok(Value::Flonum(f(*x))),
        v => Err(VmError::wrong_type("round", "number", v)),
    }
}

fn p_exact_to_inexact(args: &[Value]) -> VmResult<Value> {
    Ok(Value::Flonum(as_f64("exact->inexact", &args[0])?))
}

fn p_inexact_to_exact(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Fixnum(n) => Ok(Value::Fixnum(*n)),
        Value::Flonum(f) if f.fract() == 0.0 => Ok(Value::Fixnum(*f as i64)),
        v => Err(VmError::wrong_type("inexact->exact", "integral number", v)),
    }
}

fn p_integer_p(args: &[Value]) -> VmResult<Value> {
    Ok(Value::Bool(match &args[0] {
        Value::Fixnum(_) => true,
        Value::Flonum(f) => f.fract() == 0.0,
        _ => false,
    }))
}

// ----------------------------------------------------------------------
// Pairs and lists
// ----------------------------------------------------------------------

fn p_car(who: &'static str, v: &Value) -> VmResult<Value> {
    v.car().ok_or_else(|| VmError::wrong_type(who, "pair", v))
}

fn p_cdr(who: &'static str, v: &Value) -> VmResult<Value> {
    v.cdr().ok_or_else(|| VmError::wrong_type(who, "pair", v))
}

fn p_set_car(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Pair(p) => {
            p.set_car(args[1]);
            Ok(Value::Void)
        }
        v => Err(VmError::wrong_type("set-car!", "pair", v)),
    }
}

fn p_set_cdr(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Pair(p) => {
            p.set_cdr(args[1]);
            Ok(Value::Void)
        }
        v => Err(VmError::wrong_type("set-cdr!", "pair", v)),
    }
}

fn p_length(args: &[Value]) -> VmResult<Value> {
    let v = args[0]
        .list_to_vec()
        .ok_or_else(|| VmError::wrong_type("length", "proper list", &args[0]))?;
    Ok(Value::Fixnum(v.len() as i64))
}

fn p_append(args: &[Value]) -> VmResult<Value> {
    let Some((last, init)) = args.split_last() else {
        return Ok(Value::Nil);
    };
    let mut out = *last;
    for lst in init.iter().rev() {
        let items = lst
            .list_to_vec()
            .ok_or_else(|| VmError::wrong_type("append", "proper list", lst))?;
        for v in items.into_iter().rev() {
            out = Value::cons(v, out);
        }
    }
    Ok(out)
}

fn p_reverse(args: &[Value]) -> VmResult<Value> {
    let mut out = Value::Nil;
    let mut cur = args[0];
    loop {
        match cur {
            Value::Nil => return Ok(out),
            Value::Pair(p) => {
                let (car, cdr) = p.car_cdr();
                out = Value::cons(car, out);
                cur = cdr;
            }
            v => return Err(VmError::wrong_type("reverse", "proper list", &v)),
        }
    }
}

fn p_list_tail(args: &[Value]) -> VmResult<Value> {
    let mut cur = args[0];
    let n = as_fixnum("list-tail", &args[1])?;
    for _ in 0..n {
        cur = p_cdr("list-tail", &cur)?;
    }
    Ok(cur)
}

fn p_list_ref(args: &[Value]) -> VmResult<Value> {
    p_car("list-ref", &p_list_tail(args)?)
}

fn p_mem(args: &[Value], eq: fn(&Value, &Value) -> bool) -> VmResult<Value> {
    let mut cur = args[1];
    loop {
        match &cur {
            Value::Nil => return Ok(Value::Bool(false)),
            Value::Pair(p) => {
                let (car, cdr) = p.car_cdr();
                if eq(&car, &args[0]) {
                    return Ok(cur);
                }
                cur = cdr;
            }
            v => return Err(VmError::wrong_type("member", "proper list", v)),
        }
    }
}

fn p_ass(args: &[Value], eq: fn(&Value, &Value) -> bool) -> VmResult<Value> {
    let mut cur = args[1];
    loop {
        match &cur {
            Value::Nil => return Ok(Value::Bool(false)),
            Value::Pair(p) => {
                let (entry, next) = p.car_cdr();
                if let Some(key) = entry.car() {
                    if eq(&key, &args[0]) {
                        return Ok(entry);
                    }
                }
                cur = next;
            }
            v => return Err(VmError::wrong_type("assoc", "association list", v)),
        }
    }
}

// ----------------------------------------------------------------------
// Strings, chars, symbols
// ----------------------------------------------------------------------

fn as_string(who: &'static str, v: &Value) -> VmResult<String> {
    match v {
        Value::Str(s) => Ok(s.get()),
        _ => Err(VmError::wrong_type(who, "string", v)),
    }
}

fn as_char(who: &'static str, v: &Value) -> VmResult<char> {
    match v {
        Value::Char(c) => Ok(*c),
        _ => Err(VmError::wrong_type(who, "character", v)),
    }
}

fn p_symbol_to_string(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Sym(s) => Ok(Value::string(s.name())),
        v => Err(VmError::wrong_type("symbol->string", "symbol", v)),
    }
}

fn p_string_to_symbol(args: &[Value]) -> VmResult<Value> {
    Ok(Value::symbol(&as_string("string->symbol", &args[0])?))
}

fn p_gensym(args: &[Value]) -> VmResult<Value> {
    let base = if args.is_empty() {
        "g".to_owned()
    } else {
        as_string("gensym", &args[0])?
    };
    Ok(Value::Sym(cm_sexpr::Sym::gensym(&base)))
}

fn p_string_length(args: &[Value]) -> VmResult<Value> {
    Ok(Value::Fixnum(
        as_string("string-length", &args[0])?.chars().count() as i64,
    ))
}

fn p_string_ref(args: &[Value]) -> VmResult<Value> {
    let s = as_string("string-ref", &args[0])?;
    let i = as_fixnum("string-ref", &args[1])? as usize;
    s.chars()
        .nth(i)
        .map(Value::Char)
        .ok_or_else(|| VmError::other(format!("string-ref: index {i} out of range")))
}

fn p_substring(args: &[Value]) -> VmResult<Value> {
    let s = as_string("substring", &args[0])?;
    let start = as_fixnum("substring", &args[1])? as usize;
    let end = as_fixnum("substring", &args[2])? as usize;
    let chars: Vec<char> = s.chars().collect();
    if start > end || end > chars.len() {
        return Err(VmError::other(format!(
            "substring: bad range {start}..{end} for length {}",
            chars.len()
        )));
    }
    Ok(Value::string(chars[start..end].iter().collect::<String>()))
}

fn p_string_append(args: &[Value]) -> VmResult<Value> {
    let mut out = String::new();
    for a in args {
        out.push_str(&as_string("string-append", a)?);
    }
    Ok(Value::string(out))
}

fn p_string_cmp(
    args: &[Value],
    who: &'static str,
    ok: fn(std::cmp::Ordering) -> bool,
) -> VmResult<Value> {
    let a = as_string(who, &args[0])?;
    let b = as_string(who, &args[1])?;
    Ok(Value::Bool(ok(a.cmp(&b))))
}

fn p_string_to_list(args: &[Value]) -> VmResult<Value> {
    Ok(Value::list(
        as_string("string->list", &args[0])?
            .chars()
            .map(Value::Char),
    ))
}

fn p_list_to_string(args: &[Value]) -> VmResult<Value> {
    let items = args[0]
        .list_to_vec()
        .ok_or_else(|| VmError::wrong_type("list->string", "proper list", &args[0]))?;
    let mut out = String::new();
    for v in items {
        out.push(as_char("list->string", &v)?);
    }
    Ok(Value::string(out))
}

fn p_string_to_number(args: &[Value]) -> VmResult<Value> {
    let s = as_string("string->number", &args[0])?;
    if let Ok(n) = s.parse::<i64>() {
        return Ok(Value::Fixnum(n));
    }
    if let Ok(f) = s.parse::<f64>() {
        return Ok(Value::Flonum(f));
    }
    Ok(Value::Bool(false))
}

fn p_make_string(args: &[Value]) -> VmResult<Value> {
    let n = as_fixnum("make-string", &args[0])? as usize;
    let c = if args.len() > 1 {
        as_char("make-string", &args[1])?
    } else {
        ' '
    };
    Ok(Value::string(std::iter::repeat_n(c, n).collect::<String>()))
}

fn p_string(args: &[Value]) -> VmResult<Value> {
    let mut out = String::new();
    for a in args {
        out.push(as_char("string", a)?);
    }
    Ok(Value::string(out))
}

fn p_string_copy(args: &[Value]) -> VmResult<Value> {
    Ok(Value::string(as_string("string-copy", &args[0])?))
}

fn p_char_to_integer(args: &[Value]) -> VmResult<Value> {
    Ok(Value::Fixnum(as_char("char->integer", &args[0])? as i64))
}

fn p_integer_to_char(args: &[Value]) -> VmResult<Value> {
    let n = as_fixnum("integer->char", &args[0])?;
    char::from_u32(n as u32)
        .map(Value::Char)
        .ok_or_else(|| VmError::other(format!("integer->char: bad code point {n}")))
}

fn p_char_cmp(
    args: &[Value],
    who: &'static str,
    ok: fn(std::cmp::Ordering) -> bool,
) -> VmResult<Value> {
    let a = as_char(who, &args[0])?;
    let b = as_char(who, &args[1])?;
    Ok(Value::Bool(ok(a.cmp(&b))))
}

// ----------------------------------------------------------------------
// Vectors
// ----------------------------------------------------------------------

fn p_make_vector(args: &[Value]) -> VmResult<Value> {
    let n = as_fixnum("make-vector", &args[0])? as usize;
    let fill = args.get(1).cloned().unwrap_or(Value::Fixnum(0));
    Ok(Value::vector(vec![fill; n]))
}

fn p_vector_ref(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Vector(v) => {
            let i = as_fixnum("vector-ref", &args[1])? as usize;
            v.get(i)
                .ok_or_else(|| VmError::other(format!("vector-ref: index {i} out of range")))
        }
        v => Err(VmError::wrong_type("vector-ref", "vector", v)),
    }
}

fn p_vector_set(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Vector(v) => {
            let i = as_fixnum("vector-set!", &args[1])? as usize;
            if !v.set(i, args[2]) {
                return Err(VmError::other(format!(
                    "vector-set!: index {i} out of range"
                )));
            }
            Ok(Value::Void)
        }
        v => Err(VmError::wrong_type("vector-set!", "vector", v)),
    }
}

fn p_vector_length(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Vector(v) => Ok(Value::Fixnum(v.len() as i64)),
        v => Err(VmError::wrong_type("vector-length", "vector", v)),
    }
}

fn p_vector_to_list(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Vector(v) => Ok(Value::list(v.to_vec())),
        v => Err(VmError::wrong_type("vector->list", "vector", v)),
    }
}

fn p_list_to_vector(args: &[Value]) -> VmResult<Value> {
    let items = args[0]
        .list_to_vec()
        .ok_or_else(|| VmError::wrong_type("list->vector", "proper list", &args[0]))?;
    Ok(Value::vector(items))
}

fn p_vector_fill(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Vector(v) => {
            for i in 0..v.len() {
                v.set(i, args[1]);
            }
            Ok(Value::Void)
        }
        v => Err(VmError::wrong_type("vector-fill!", "vector", v)),
    }
}

// ----------------------------------------------------------------------
// Boxes, tables, records
// ----------------------------------------------------------------------

fn p_unbox(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Box(b) => Ok(b.get()),
        v => Err(VmError::wrong_type("unbox", "box", v)),
    }
}

fn p_set_box(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Box(b) => {
            b.set(args[1]);
            Ok(Value::Void)
        }
        v => Err(VmError::wrong_type("set-box!", "box", v)),
    }
}

fn p_hash_set(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Table(t) => {
            t.insert(args[1], args[2]);
            Ok(Value::Void)
        }
        v => Err(VmError::wrong_type("hashtable-set!", "hash-table", v)),
    }
}

fn p_hash_ref(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Table(t) => Ok(t.get(&args[1].eq_key()).unwrap_or_else(|| args[2])),
        v => Err(VmError::wrong_type("hashtable-ref", "hash-table", v)),
    }
}

fn p_hash_contains(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Table(t) => Ok(Value::Bool(t.contains(&args[1].eq_key()))),
        v => Err(VmError::wrong_type("hashtable-contains?", "hash-table", v)),
    }
}

fn p_hash_delete(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Table(t) => {
            t.remove(&args[1].eq_key());
            Ok(Value::Void)
        }
        v => Err(VmError::wrong_type("hashtable-delete!", "hash-table", v)),
    }
}

fn p_hash_size(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Table(t) => Ok(Value::Fixnum(t.len() as i64)),
        v => Err(VmError::wrong_type("hashtable-size", "hash-table", v)),
    }
}

fn p_make_record(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Sym(tag) => Ok(Value::record(*tag, args[1..].to_vec())),
        v => Err(VmError::wrong_type("make-record", "symbol tag", v)),
    }
}

fn p_record_is(args: &[Value]) -> VmResult<Value> {
    match (&args[0], &args[1]) {
        (Value::Record(r), Value::Sym(tag)) => Ok(Value::Bool(r.tag() == *tag)),
        _ => Ok(Value::Bool(false)),
    }
}

fn p_record_tag(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Record(r) => Ok(Value::Sym(r.tag())),
        v => Err(VmError::wrong_type("record-tag", "record", v)),
    }
}

fn p_record_ref(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Record(r) => {
            let i = as_fixnum("record-ref", &args[1])? as usize;
            r.field(i)
                .ok_or_else(|| VmError::other(format!("record-ref: field {i} out of range")))
        }
        v => Err(VmError::wrong_type("record-ref", "record", v)),
    }
}

fn p_record_set(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Record(r) => {
            let i = as_fixnum("record-set!", &args[1])? as usize;
            if !r.set_field(i, args[2]) {
                return Err(VmError::other(format!(
                    "record-set!: field {i} out of range"
                )));
            }
            Ok(Value::Void)
        }
        v => Err(VmError::wrong_type("record-set!", "record", v)),
    }
}

fn p_error(args: &[Value]) -> VmResult<Value> {
    let mut msg = args[0].display_string();
    for a in &args[1..] {
        msg.push(' ');
        msg.push_str(&a.write_string());
    }
    Err(VmError::scheme_error(msg))
}

fn p_cont_attachments(args: &[Value]) -> VmResult<Value> {
    match &args[0] {
        Value::Cont(k) => Ok(k.data().marks),
        v => Err(VmError::wrong_type("$cont-attachments", "continuation", v)),
    }
}

// ----------------------------------------------------------------------
// Marks-layer support (§7.5)
//
// The `cm-core` layer represents each `with-continuation-mark` attachment
// as a `$mark-frame` record: field 0 is an association list mapping keys
// to values (`eq?` keys), field 1 is `#f` or an `eq?` table used as the
// path-compression cache. A cache entry maps a key to `(node . value)`
// where `node` is the attachment-list cons cell the entry was written
// for — the guard that keeps caching sound when a record is shared by
// several attachment lists with different tails.
// ----------------------------------------------------------------------

fn mark_frame_tag() -> cm_sexpr::Sym {
    cm_sexpr::sym("$mark-frame")
}

fn dict_lookup(dict: &Value, key: &Value) -> Option<Value> {
    let mut cur = *dict;
    while let Value::Pair(p) = cur {
        let (entry, next) = p.car_cdr();
        if let Value::Pair(e) = entry {
            let (k, v) = e.car_cdr();
            if k.eq_value(key) {
                return Some(v);
            }
        }
        cur = next;
    }
    None
}

/// Minimum search depth at which caching pays for itself.
const CACHE_MIN_DEPTH: usize = 4;

/// `($marks-first atts key dflt)` — the newest value for `key`, amortized
/// O(1) via the §7.5 strategy: a search that succeeds at depth N caches
/// its answer at depth N/2.
fn p_marks_first(args: &[Value]) -> VmResult<Value> {
    let (atts, key, dflt) = (&args[0], &args[1], &args[2]);
    let tag = mark_frame_tag();
    let mut node = *atts;
    let mut path: Vec<Value> = Vec::new();
    loop {
        match node {
            Value::Nil => return Ok(*dflt),
            Value::Pair(p) => {
                let (elem, next) = p.car_cdr();
                if let Value::Record(r) = elem {
                    if r.tag() == tag {
                        let fields = r.fields();
                        // Cache probe first: a valid hit answers for
                        // this node's whole tail.
                        let cached = match fields.get(1) {
                            Some(Value::Table(cache)) => {
                                cache.get(&key.eq_key()).and_then(|hit| match hit {
                                    Value::Pair(h) => {
                                        let (hn, hv) = h.car_cdr();
                                        if hn.eq_value(&node) {
                                            Some(hv)
                                        } else {
                                            None
                                        }
                                    }
                                    _ => None,
                                })
                            }
                            _ => None,
                        };
                        let found = cached.or_else(|| dict_lookup(&fields[0], key));
                        if let Some(v) = found {
                            cache_halfway(&path, key, &v);
                            return Ok(v);
                        }
                    }
                }
                path.push(node);
                node = next;
            }
            other => {
                return Err(VmError::wrong_type(
                    "$marks-first",
                    "attachment list",
                    &other,
                ))
            }
        }
    }
}

/// Writes the answer into the cache of the mark frame halfway down the
/// searched prefix (creating the cache table on demand).
fn cache_halfway(path: &[Value], key: &Value, value: &Value) {
    let n = path.len();
    if n < CACHE_MIN_DEPTH {
        return;
    }
    let node = &path[n / 2];
    let Value::Pair(p) = node else { return };
    let elem = p.car();
    let Value::Record(r) = elem else { return };
    if r.tag() != mark_frame_tag() {
        return;
    }
    if r.field_count() < 2 {
        return;
    }
    if !matches!(r.field(1), Some(Value::Table(_))) {
        r.set_field(1, Value::table());
    }
    if let Some(Value::Table(cache)) = r.field(1) {
        cache.insert(*key, Value::cons(*node, *value));
    }
}

/// `($marks->list atts key)` — every value for `key`, newest first.
fn p_marks_to_list(args: &[Value]) -> VmResult<Value> {
    let (atts, key) = (&args[0], &args[1]);
    let tag = mark_frame_tag();
    let mut out = Vec::new();
    let mut node = *atts;
    loop {
        match node {
            Value::Nil => return Ok(Value::list(out)),
            Value::Pair(p) => {
                let (elem, next) = p.car_cdr();
                if let Value::Record(r) = elem {
                    if r.tag() == tag {
                        if let Some(v) = dict_lookup(&r.fields()[0], key) {
                            out.push(v);
                        }
                    }
                }
                node = next;
            }
            other => {
                return Err(VmError::wrong_type(
                    "$marks->list",
                    "attachment list",
                    &other,
                ))
            }
        }
    }
}

fn m_eager_all_marks(m: &mut Machine, _args: Vec<Value>) -> VmResult<Value> {
    let entries = m.eager_all_entries();
    Ok(Value::list(entries.into_iter().map(|entry| {
        Value::list(entry.into_iter().map(|(k, v)| Value::cons(k, v)))
    })))
}

// ----------------------------------------------------------------------
// Machine natives
// ----------------------------------------------------------------------

fn m_push_winder(m: &mut Machine, args: Vec<Value>) -> VmResult<Value> {
    let [pre, post] = take2(args, "$push-winder")?;
    m.push_winder(pre, post);
    Ok(Value::Void)
}

/// Unpacks exactly two arguments whose presence the arity check already
/// guaranteed.
fn take2(args: Vec<Value>, site: &'static str) -> VmResult<[Value; 2]> {
    <[Value; 2]>::try_from(args).map_err(|a| {
        VmError::internal(
            site,
            format!("expected 2 arity-checked args, got {}", a.len()),
        )
    })
}

fn m_engine_block(m: &mut Machine, _args: Vec<Value>) -> VmResult<Value> {
    Ok(Value::Bool(m.request_block()))
}

fn m_pop_winder(m: &mut Machine, _args: Vec<Value>) -> VmResult<Value> {
    m.pop_winder();
    Ok(Value::Void)
}

fn m_current_attachments(m: &mut Machine, _args: Vec<Value>) -> VmResult<Value> {
    // NOTE: as a *native call*, the caller's frame is still live, so this
    // returns exactly the marks register — the paper's
    // `current-continuation-attachments` (§7.1).
    Ok(m.marks_snapshot())
}

fn m_eager_set(m: &mut Machine, args: Vec<Value>) -> VmResult<Value> {
    let [key, val] = take2(args, "$eager-mark-set!")?;
    m.eager_set_mark(key, val);
    Ok(Value::Void)
}

fn m_eager_first(m: &mut Machine, args: Vec<Value>) -> VmResult<Value> {
    Ok(m.eager_first_mark(&args[0]).unwrap_or_else(|| args[1]))
}

fn m_eager_marks(m: &mut Machine, args: Vec<Value>) -> VmResult<Value> {
    Ok(Value::list(m.eager_marks_list(&args[0])))
}

fn m_eager_immediate(m: &mut Machine, args: Vec<Value>) -> VmResult<Value> {
    Ok(m.eager_immediate_mark(&args[0]).unwrap_or_else(|| args[1]))
}

fn m_display(m: &mut Machine, args: Vec<Value>) -> VmResult<Value> {
    m.output.push_str(&args[0].display_string());
    Ok(Value::Void)
}

fn m_write(m: &mut Machine, args: Vec<Value>) -> VmResult<Value> {
    m.output.push_str(&args[0].write_string());
    Ok(Value::Void)
}

fn m_newline(m: &mut Machine, _args: Vec<Value>) -> VmResult<Value> {
    m.output.push('\n');
    Ok(Value::Void)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_no_duplicate_names() {
        let mut names: Vec<&str> = all().map(|(_, d)| d.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate native names");
    }

    #[test]
    fn lookup_finds_call_cc() {
        let id = lookup(cm_sexpr::sym("call/cc")).unwrap();
        assert_eq!(id, NativeId::named("call/cc"));
        assert_eq!(id.name(), "call/cc");
        assert!(matches!(
            id.def().imp,
            NativeImpl::Control(ControlOp::CallCc)
        ));
        assert_eq!(lookup(cm_sexpr::sym("no-such-primitive")), None);
    }

    #[test]
    fn arity_checks() {
        let d = NativeId::named("cons").def();
        assert!(d.check_arity(2).is_ok());
        assert!(d.check_arity(1).is_err());
        assert!(d.check_arity(3).is_err());
        let d = NativeId::named("list").def();
        assert!(d.check_arity(0).is_ok());
        assert!(d.check_arity(17).is_ok());
    }

    #[test]
    fn arithmetic_mixes_fixnum_flonum() {
        let v = p_add(&[Value::Fixnum(1), Value::Flonum(2.5)]).unwrap();
        assert!(v.eq_value(&Value::Flonum(3.5)));
        let v = p_sub(&[Value::Fixnum(5)]).unwrap();
        assert!(v.eq_value(&Value::Fixnum(-5)));
        assert!(p_add(&[Value::Fixnum(i64::MAX), Value::Fixnum(1)]).is_err());
    }

    #[test]
    fn division_behaviour() {
        assert!(p_div(&[Value::Fixnum(6), Value::Fixnum(3)])
            .unwrap()
            .eq_value(&Value::Fixnum(2)));
        assert!(p_div(&[Value::Fixnum(1), Value::Fixnum(2)])
            .unwrap()
            .eq_value(&Value::Flonum(0.5)));
        assert!(p_div(&[Value::Fixnum(1), Value::Fixnum(0)]).is_err());
    }

    #[test]
    fn comparisons_are_chained() {
        let v = p_cmp(
            &[Value::Fixnum(1), Value::Fixnum(2), Value::Fixnum(3)],
            "<",
            |o| o == std::cmp::Ordering::Less,
        )
        .unwrap();
        assert!(v.is_true());
        let v = p_cmp(
            &[Value::Fixnum(1), Value::Fixnum(3), Value::Fixnum(2)],
            "<",
            |o| o == std::cmp::Ordering::Less,
        )
        .unwrap();
        assert!(!v.is_true());
    }

    #[test]
    fn list_ops() {
        let l = Value::list([Value::fixnum(1), Value::fixnum(2), Value::fixnum(3)]);
        assert!(p_length(std::slice::from_ref(&l))
            .unwrap()
            .eq_value(&Value::fixnum(3)));
        let r = p_reverse(std::slice::from_ref(&l)).unwrap();
        assert_eq!(r.write_string(), "(3 2 1)");
        let t = p_list_tail(&[l, Value::fixnum(1)]).unwrap();
        assert_eq!(t.write_string(), "(2 3)");
        assert!(p_list_ref(&[l, Value::fixnum(2)])
            .unwrap()
            .eq_value(&Value::fixnum(3)));
        let a = p_append(&[l, Value::list([Value::fixnum(4)])]).unwrap();
        assert_eq!(a.write_string(), "(1 2 3 4)");
    }

    #[test]
    fn assoc_and_member() {
        let alist = Value::list([
            Value::cons(Value::symbol("a"), Value::fixnum(1)),
            Value::cons(Value::symbol("b"), Value::fixnum(2)),
        ]);
        let hit = p_ass(&[Value::symbol("b"), alist], |x, y| x.eq_value(y)).unwrap();
        assert_eq!(hit.write_string(), "(b . 2)");
        let miss = p_ass(&[Value::symbol("c"), alist], |x, y| x.eq_value(y)).unwrap();
        assert!(!miss.is_true());
        let l = Value::list([Value::fixnum(1), Value::fixnum(2)]);
        assert_eq!(
            p_mem(&[Value::fixnum(2), l], |x, y| x.eq_value(y))
                .unwrap()
                .write_string(),
            "(2)"
        );
    }

    #[test]
    fn string_ops() {
        let s = p_string_append(&[Value::string("foo"), Value::string("bar")]).unwrap();
        assert_eq!(s.display_string(), "foobar");
        let sub = p_substring(&[s, Value::fixnum(1), Value::fixnum(4)]).unwrap();
        assert_eq!(sub.display_string(), "oob");
        assert!(p_string_to_number(&[Value::string("42")])
            .unwrap()
            .eq_value(&Value::fixnum(42)));
        assert!(!p_string_to_number(&[Value::string("nope")])
            .unwrap()
            .is_true());
    }

    #[test]
    fn records() {
        let r =
            p_make_record(&[Value::symbol("point"), Value::fixnum(1), Value::fixnum(2)]).unwrap();
        assert!(p_record_is(&[r, Value::symbol("point")]).unwrap().is_true());
        assert!(p_record_ref(&[r, Value::fixnum(1)])
            .unwrap()
            .eq_value(&Value::fixnum(2)));
        p_record_set(&[r, Value::fixnum(0), Value::fixnum(9)]).unwrap();
        assert!(p_record_ref(&[r, Value::fixnum(0)])
            .unwrap()
            .eq_value(&Value::fixnum(9)));
    }

    #[test]
    fn hash_tables() {
        let t = Value::table();
        p_hash_set(&[t, Value::symbol("k"), Value::fixnum(1)]).unwrap();
        assert!(p_hash_ref(&[t, Value::symbol("k"), Value::Bool(false)])
            .unwrap()
            .eq_value(&Value::fixnum(1)));
        assert!(p_hash_contains(&[t, Value::symbol("k")]).unwrap().is_true());
        p_hash_delete(&[t, Value::symbol("k")]).unwrap();
        assert!(!p_hash_contains(&[t, Value::symbol("k")]).unwrap().is_true());
    }

    #[test]
    fn classes_agree_with_implementations() {
        // PrimCall runs only Pure rows, and every control operator
        // observes marks; the verifier and mark-flow rely on both.
        for (_, d) in all() {
            if d.inlinable() {
                assert!(matches!(d.imp, NativeImpl::Pure(_)), "{}", d.name);
            }
            if matches!(d.imp, NativeImpl::Control(_)) {
                assert!(d.observes_marks(), "{}", d.name);
            }
        }
        assert_eq!(all().filter(|(_, d)| d.inlinable()).count(), 42);
    }

    #[test]
    fn error_raises() {
        match p_error(&[Value::string("bad"), Value::fixnum(3)]) {
            Err(e) => match e.kind {
                crate::error::VmErrorKind::SchemeError(msg) => assert_eq!(msg, "bad 3"),
                other => panic!("expected scheme error, got {other:?}"),
            },
            other => panic!("expected scheme error, got {other:?}"),
        }
    }
}
