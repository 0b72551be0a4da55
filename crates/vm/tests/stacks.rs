//! VM-level tests of the segmented-stack machinery: freezing, underflow,
//! fusion, and the attachment register — driven through hand-assembled
//! code objects plus property tests of the attachment invariants.

use cm_vm::{Code, Instr, Machine, MachineConfig, NativeId, Rooted, Value};
use proptest::prelude::*;

fn run_with(config: MachineConfig, instrs: Vec<Instr>, consts: Vec<Value>) -> (Rooted, Machine) {
    let code = Code::build("test", 0, false, instrs, consts, vec![]);
    let mut m = Machine::new(config);
    let v = m.run_code(code).unwrap();
    (v, m)
}

#[test]
fn deep_nontail_calls_split_segments() {
    // f(n) = n == 0 ? 0 : 1 + f(n - 1), with a tiny segment limit.
    // main: build f via a knot (bind f's closure with itself as capture is
    // not directly expressible here, so use a box).
    let code = Code::build(
        "main",
        0,
        false,
        vec![
            // box = (box void)
            Instr::Const(0),
            Instr::PrimCall(NativeId::named("box"), 1),
            // f = closure capturing the box
            Instr::LocalRef(0),
            Instr::MakeClosure {
                code: 0,
                captures: 1,
            },
            // (set-box! box f)
            Instr::LocalRef(0),
            Instr::LocalRef(1),
            Instr::PrimCall(NativeId::named("set-box!"), 2),
            Instr::Pop,
            // (f 500)
            Instr::LocalRef(1),
            Instr::Const(1),
            Instr::Call(1),
            Instr::Return,
        ],
        vec![Value::Void, Value::fixnum(500)],
        vec![Code::build(
            "f",
            1,
            false,
            vec![
                Instr::LocalRef(0),
                Instr::PrimCall(NativeId::named("zero?"), 1),
                Instr::JumpIfFalse(5),
                Instr::Const(0),
                Instr::Return,
                Instr::Const(1),
                Instr::CaptureRef(0),
                Instr::PrimCall(NativeId::named("unbox"), 1),
                Instr::LocalRef(0),
                Instr::Const(1),
                Instr::PrimCall(NativeId::named("-"), 2),
                Instr::Call(1),
                Instr::PrimCall(NativeId::named("+"), 2),
                Instr::Return,
            ],
            vec![Value::fixnum(0), Value::fixnum(1)],
            vec![],
        )],
    );
    let cfg = MachineConfig {
        segment_frame_limit: 16,
        ..Default::default()
    };
    let mut m = Machine::new(cfg);
    let v = m.run_code(code).unwrap();
    assert!(v.eq_value(&Value::fixnum(500)));
    assert!(m.stats.overflow_splits >= 500 / 16, "{:?}", m.stats);
    assert!(m.stats.fusions > 0 && m.stats.copies == 0, "{:?}", m.stats);
}

#[test]
fn attachment_register_balance() {
    // Push three attachments, pop one, replace the top; the register must
    // hold exactly the expected list.
    let (v, _) = run_with(
        MachineConfig::default(),
        vec![
            Instr::Const(0),
            Instr::PushAttach,
            Instr::Const(1),
            Instr::PushAttach,
            Instr::Const(2),
            Instr::PushAttach,
            Instr::PopAttach,
            Instr::Const(3),
            Instr::SetAttach,
            Instr::CurrentAttachments,
            Instr::PopAttach,
            Instr::PopAttach,
            Instr::Return,
        ],
        vec![
            Value::fixnum(10),
            Value::fixnum(11),
            Value::fixnum(12),
            Value::fixnum(13),
        ],
    );
    assert_eq!(v.write_string(), "(13 10)");
}

#[test]
fn get_and_consume_present() {
    let (v, _) = run_with(
        MachineConfig::default(),
        vec![
            Instr::Const(0),
            Instr::PushAttach,
            Instr::GetAttachPresent,
            Instr::ConsumeAttachPresent,
            Instr::PrimCall(NativeId::named("cons"), 2),
            Instr::Return,
        ],
        vec![Value::fixnum(7)],
    );
    assert_eq!(v.write_string(), "(7 . 7)");
}

#[test]
fn dynamic_get_without_attachment_yields_default() {
    let (v, _) = run_with(
        MachineConfig::default(),
        vec![Instr::Const(0), Instr::GetAttachDyn, Instr::Return],
        vec![Value::symbol("missing")],
    );
    assert!(v.eq_value(&Value::symbol("missing")));
}

proptest! {
    /// Random balanced push/pop/set sequences leave the attachments list
    /// exactly as a Vec model predicts.
    #[test]
    fn attachment_ops_match_vec_model(ops in prop::collection::vec(0u8..3, 0..40)) {
        let mut instrs = Vec::new();
        let mut consts = Vec::new();
        let mut model: Vec<i64> = Vec::new();
        let mut next = 0i64;
        for op in ops {
            match op {
                0 => {
                    // push
                    consts.push(Value::fixnum(next));
                    instrs.push(Instr::Const((consts.len() - 1) as u16));
                    instrs.push(Instr::PushAttach);
                    model.push(next);
                    next += 1;
                }
                1 => {
                    // pop (only if nonempty)
                    if !model.is_empty() {
                        instrs.push(Instr::PopAttach);
                        model.pop();
                    }
                }
                _ => {
                    // replace top (only if nonempty)
                    if !model.is_empty() {
                        consts.push(Value::fixnum(next));
                        instrs.push(Instr::Const((consts.len() - 1) as u16));
                        instrs.push(Instr::SetAttach);
                        *model.last_mut().unwrap() = next;
                        next += 1;
                    }
                }
            }
        }
        instrs.push(Instr::CurrentAttachments);
        // Unwind so the machine ends balanced.
        for _ in 0..model.len() {
            instrs.push(Instr::PopAttach);
        }
        instrs.push(Instr::Return);
        let (v, _) = run_with(MachineConfig::default(), instrs, consts);
        let expected = Value::list(model.iter().rev().map(|n| Value::fixnum(*n)));
        prop_assert_eq!(v.write_string(), expected.write_string());
    }
}
