//! The bytecode executor (§6).
//!
//! DoppioJVM "implements all 201 bytecode instructions specified in the
//! second edition of the Java Virtual Machine Specification". The first
//! time a frame of a method runs, [`decode`] turns the method's bytecode
//! into an [`OpStream`]: one pre-decoded [`Op`] per instruction, with
//! operands unpacked, branch targets resolved to op indices and a few
//! hot sequences fused into superinstructions. [`execute`] then runs the
//! thread's frames until the thread must leave the interpreter.
//!
//! **Frames in one loop.** [`execute`] runs an outer loop over frames
//! and an inner loop over ops, which keeps the executing frame, its op
//! slice and the op index in locals. A call, a return, a `<clinit>`
//! push, a native's normal return and a caught exception go back to the
//! outer loop, which takes the new top frame at its pc. The executor
//! leaves only when the thread blocks, yields, exits, finishes, throws
//! past its last frame, or a suspend check fires.
//!
//! **The §6.1 suspend check.** In a hosted run (an engine with a
//! watchdog), [`interp::suspend_check`] runs once after every frame push
//! or pop, every normal native return and every `<clinit>` push, and,
//! with `check_backedges` on, at every taken backward branch or `ret`.
//! It drives the adaptive suspend counter, so it runs exactly there;
//! when it fires, the hosting thread ends its slice.
//!
//! **Quickening in place.** An op whose constant-pool entry or call site
//! is still unresolved runs the resolution code in [`crate::interp`] on
//! execution and keeps the result in a `OnceCell` inside the op, exactly
//! when that code would have installed it in the class's constant-pool
//! cache. Later executions take the fast path and count the same cache
//! hit the cache lookup would have.
//!
//! **Virtual-cost parity.** Every op adds one to `instructions` and
//! charges one `Cost::Dispatch`, then the cost sequence and counter bumps
//! of its bytecode. A superinstruction replays one such sequence per
//! fused instruction. Single charges go into a local [`Tally`], settled
//! by one `Engine::charge_counts` call. That is exact: one charge of a
//! category costs its unit after `apply_paging`, which depends only on
//! the resident typed-array bytes, and charges commute. So the tally
//! settles before anything reads the clock or the engine's counters, or
//! changes residency: every exit, suspend check, typed-array allocation,
//! and helper that may trace, block, throw or wake. Helpers that only
//! charge (an instance allocation, an `ldc` hit) charge directly, and a
//! warm bytecode-to-bytecode call in an unhosted run settles nothing.
//! `charge_n` sites keep their call: `apply_paging(unit·n)` rounds
//! differently from `n` single charges.
//!
//! **Resumable pcs.** Frames keep a bytecode pc. Before anything that can
//! leave the executor or change the frame stack — a throw, a call, a
//! class load, a monitor block, a backedge suspend check — an op anchors
//! the frame's pc, and every pc where execution can resume is an op
//! head. A fused sequence keeps its tail ops in the stream, and a
//! superinstruction never spans an instruction that can stop and retry.
//!
//! **Malformed code.** [`decode`] rejects a truncated operand, a branch
//! or handler target that is not an instruction head, and code that can
//! run off its end; the executor turns the rejection into a guest
//! `java/lang/InternalError` at the method's invocation, popping its
//! frame unrun.

use std::cell::OnceCell;
use std::rc::Rc;

use doppio_classfile::opcodes::{self as op, INFO, VARIABLE};
use doppio_classfile::ExceptionEntry;
use doppio_core::{ThreadContext, ThreadId};
use doppio_jsengine::profile::COST_CATEGORIES;
use doppio_jsengine::Cost;

use crate::class::{ClassConst, ClassId, ResolvedField};
use crate::frame::Frame;
use crate::interp::{self, StepResult};
use crate::object::HeapObj;
use crate::state::{CallSite, JvmState};
use crate::value::{ObjRef, Value};

/// "No instruction starts here" in [`OpStream::ip_by_pc`].
const NO_IP: u32 = u32::MAX;

/// A branch edge: the target's op index, and whether it jumps backward
/// (and so takes the optional §6.1 backedge suspend check).
#[derive(Clone, Copy, Debug)]
struct Target {
    ip: u32,
    back: bool,
}

#[derive(Debug)]
struct TableSwitch {
    low: i32,
    default: Target,
    targets: Vec<Target>,
}

#[derive(Debug)]
struct LookupSwitch {
    default: Target,
    /// Matched in class-file order; the first equal key wins.
    pairs: Vec<(i32, Target)>,
}

/// One pre-decoded instruction. Cells hold resolution results that
/// quicken on first use (see the module docs).
#[derive(Debug)]
enum Op {
    Nop,
    Const {
        v: Value,
        cost: Option<Cost>,
    },
    Ldc {
        idx: u16,
        value: OnceCell<Value>,
    },
    Load {
        slot: u16,
        cost: Cost,
    },
    Store {
        slot: u16,
        cost: Cost,
    },
    /// `wide` loads, stores and `iinc` charge only their dispatch.
    WideLoad {
        slot: u16,
    },
    WideStore {
        slot: u16,
    },
    WideIinc {
        slot: u16,
        delta: i32,
    },
    ArrLoad,
    ArrStore,
    Pop1,
    Pop2,
    Dup,
    DupX1,
    DupX2,
    Dup2,
    Dup2X1,
    Dup2X2,
    Swap,
    IntBin {
        op: u8,
    },
    IntDivRem {
        rem: bool,
    },
    IntNeg,
    LongBin {
        op: u8,
    },
    LongDivRem {
        rem: bool,
    },
    LongShift {
        op: u8,
    },
    LongNeg,
    FloatBin {
        op: u8,
    },
    DoubleBin {
        op: u8,
    },
    FloatNeg,
    DoubleNeg,
    Iinc {
        slot: u16,
        delta: i32,
    },
    Conv {
        op: u8,
        cost: Cost,
    },
    Lcmp,
    Fcmp {
        greater_on_nan: bool,
    },
    Dcmp {
        greater_on_nan: bool,
    },
    If0 {
        cond: u8,
        t: Target,
    },
    IfICmp {
        cond: u8,
        t: Target,
    },
    IfACmp {
        eq: bool,
        t: Target,
    },
    IfNull {
        when_null: bool,
        t: Target,
    },
    Goto {
        t: Target,
    },
    /// Pushes the pc of the next op as its return address.
    Jsr {
        t: Target,
    },
    Ret {
        slot: u16,
    },
    TableSwitch(Box<TableSwitch>),
    LookupSwitch(Box<LookupSwitch>),
    Return {
        has_value: bool,
    },
    GetStatic {
        idx: u16,
        field: OnceCell<Rc<ResolvedField>>,
    },
    PutStatic {
        idx: u16,
        field: OnceCell<Rc<ResolvedField>>,
    },
    GetField {
        idx: u16,
        field: OnceCell<Rc<ResolvedField>>,
    },
    PutField {
        idx: u16,
        field: OnceCell<Rc<ResolvedField>>,
    },
    Invoke {
        opcode: u8,
        idx: u16,
        site: OnceCell<Rc<CallSite>>,
    },
    New {
        idx: u16,
        class: OnceCell<ClassId>,
    },
    NewArray {
        atype: u8,
    },
    ANewArray {
        idx: u16,
        class: OnceCell<Rc<ClassConst>>,
    },
    MultiANewArray {
        idx: u16,
        dims: u8,
        class: OnceCell<Rc<ClassConst>>,
    },
    ArrayLength,
    Athrow,
    TypeCheck {
        idx: u16,
        instanceof: bool,
        class: OnceCell<Rc<ClassConst>>,
    },
    MonitorEnter,
    MonitorExit,
    /// An undefined opcode or `wide` form: throws `InternalError` when
    /// executed.
    Invalid(Box<str>),
    /// Superinstruction: `iload a; iload b; <int binop>`.
    LoadLoadIntBin {
        a: u16,
        b: u16,
        op: u8,
    },
    /// Superinstruction: `iinc slot, delta; goto`, the loop latch.
    IincGoto {
        slot: u16,
        delta: i32,
        t: Target,
    },
    /// Superinstruction: `aload slot; getfield`. The `getfield` half runs
    /// fused only once the next op's field is quickened; until then this
    /// op is a plain `aload`.
    LoadGetfield {
        slot: u16,
    },
}

/// A method's decoded form.
#[derive(Debug)]
pub(crate) struct OpStream {
    ops: Vec<Op>,
    /// Bytecode pc of each op.
    pcs: Vec<u32>,
    /// Bytecode pc → op index, [`NO_IP`] where no instruction starts.
    ip_by_pc: Vec<u32>,
}

impl OpStream {
    /// The op starting at bytecode offset `pc`, if one does.
    fn entry(&self, pc: usize) -> Option<usize> {
        match self.ip_by_pc.get(pc) {
            Some(&ip) if ip != NO_IP => Some(ip as usize),
            _ => None,
        }
    }
}

// ----------------------------------------------------------------
// Decoding
// ----------------------------------------------------------------

fn u16_at(bc: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([bc[at], bc[at + 1]])
}

fn i16_at(bc: &[u8], at: usize) -> i16 {
    i16::from_be_bytes([bc[at], bc[at + 1]])
}

fn i32_at(bc: &[u8], at: usize) -> i32 {
    i32::from_be_bytes([bc[at], bc[at + 1], bc[at + 2], bc[at + 3]])
}

/// Encoded length of the instruction at `pc`, or `None` when its
/// operands run past the end of the code.
fn insn_len(bc: &[u8], pc: usize) -> Option<usize> {
    let opcode = bc[pc];
    let read_i32 = |at: usize| Some(i32_at(bc.get(at..at + 4)?, 0));
    let len = match opcode {
        _ if INFO[opcode as usize].operands != VARIABLE => {
            1 + INFO[opcode as usize].operands as usize
        }
        op::WIDE if *bc.get(pc + 1)? == op::IINC => 6,
        op::WIDE => 4,
        op::TABLESWITCH => {
            let base = (pc + 4) & !3;
            let n = i64::from(read_i32(base + 8)?) - i64::from(read_i32(base + 4)?) + 1;
            if n < 0 || n > bc.len() as i64 {
                return None;
            }
            base + 12 + 4 * n as usize - pc
        }
        _ => {
            // lookupswitch
            let base = (pc + 4) & !3;
            let npairs = read_i32(base + 4)?;
            if npairs < 0 || npairs as usize > bc.len() {
                return None;
            }
            base + 8 + 8 * npairs as usize - pc
        }
    };
    (pc + len <= bc.len()).then_some(len)
}

/// Decode a method body. `Err` names the first malformation found.
pub(crate) fn decode(bc: &[u8], handlers: &[ExceptionEntry]) -> Result<OpStream, String> {
    // Pass 1: instruction boundaries.
    let mut pcs = Vec::new();
    let mut ip_by_pc = vec![NO_IP; bc.len()];
    let mut pc = 0;
    while pc < bc.len() {
        let len = insn_len(bc, pc).ok_or_else(|| format!("truncated operand at pc {pc}"))?;
        ip_by_pc[pc] = pcs.len() as u32;
        pcs.push(pc as u32);
        pc += len;
    }
    for h in handlers {
        if ip_by_pc
            .get(h.handler_pc as usize)
            .is_none_or(|&ip| ip == NO_IP)
        {
            return Err(format!("handler pc {} is not an instruction", h.handler_pc));
        }
    }

    // Pass 2: translate.
    let target = |from: usize, offset: i64| -> Result<Target, String> {
        let to = from as i64 + offset;
        match usize::try_from(to).ok().and_then(|t| ip_by_pc.get(t)) {
            Some(&ip) if ip != NO_IP => Ok(Target {
                ip,
                back: to < from as i64,
            }),
            _ => Err(format!(
                "branch at pc {from} targets pc {to}, not an instruction"
            )),
        }
    };
    let mut ops = Vec::with_capacity(pcs.len());
    for &pc in &pcs {
        ops.push(translate(bc, pc as usize, &target)?);
    }
    match ops.last() {
        Some(
            Op::Goto { .. }
            | Op::Ret { .. }
            | Op::TableSwitch(_)
            | Op::LookupSwitch(_)
            | Op::Return { .. }
            | Op::Athrow
            | Op::Invalid(_),
        ) => {}
        _ => return Err("code runs off its end".to_string()),
    }

    // Pass 3: superinstructions. Each replaces the head op of its
    // sequence; the tail ops stay in place as resume points. A fused op
    // charges and behaves exactly like its parts, so matching on the
    // ops (an `IntOp` load is `iload`, `fload` or `aload`) is enough.
    for i in 0..ops.len() {
        let fused = match (&ops[i], ops.get(i + 1), ops.get(i + 2)) {
            (
                &Op::Load {
                    slot: a,
                    cost: Cost::IntOp,
                },
                Some(&Op::Load {
                    slot: b,
                    cost: Cost::IntOp,
                }),
                Some(&Op::IntBin { op }),
            ) => Op::LoadLoadIntBin { a, b, op },
            (
                &Op::Load {
                    slot,
                    cost: Cost::IntOp,
                },
                Some(Op::GetField { .. }),
                _,
            ) => Op::LoadGetfield { slot },
            (&Op::Iinc { slot, delta }, Some(&Op::Goto { t }), _) => {
                Op::IincGoto { slot, delta, t }
            }
            _ => continue,
        };
        ops[i] = fused;
    }
    Ok(OpStream { ops, pcs, ip_by_pc })
}

/// Translate the (length-checked) instruction at `pc`.
fn translate(
    bc: &[u8],
    pc: usize,
    target: &dyn Fn(usize, i64) -> Result<Target, String>,
) -> Result<Op, String> {
    let opcode = bc[pc];
    let u8_op = || u16::from(bc[pc + 1]);
    let idx = || u16_at(bc, pc + 1);
    let rel16 = || target(pc, i64::from(i16_at(bc, pc + 1)));
    let rel32 = |at: usize| target(pc, i64::from(i32_at(bc, at)));
    let konst = |v: Value, cost| Op::Const {
        v,
        cost: Some(cost),
    };
    Ok(match opcode {
        op::NOP => Op::Nop,
        op::ACONST_NULL => Op::Const {
            v: Value::null(),
            cost: None,
        },
        op::ICONST_M1..=op::ICONST_5 => {
            konst(Value::Int(opcode as i32 - op::ICONST_0 as i32), Cost::IntOp)
        }
        op::LCONST_0 | op::LCONST_1 => {
            konst(Value::Long((opcode - op::LCONST_0) as i64), Cost::LongOp)
        }
        op::FCONST_0..=op::FCONST_2 => {
            konst(Value::Float((opcode - op::FCONST_0) as f32), Cost::FloatOp)
        }
        op::DCONST_0 | op::DCONST_1 => {
            konst(Value::Double((opcode - op::DCONST_0) as f64), Cost::FloatOp)
        }
        op::BIPUSH => konst(Value::Int(bc[pc + 1] as i8 as i32), Cost::IntOp),
        op::SIPUSH => konst(Value::Int(i16_at(bc, pc + 1) as i32), Cost::IntOp),
        op::LDC => Op::Ldc {
            idx: u8_op(),
            value: OnceCell::new(),
        },
        op::LDC_W | op::LDC2_W => Op::Ldc {
            idx: idx(),
            value: OnceCell::new(),
        },

        op::ILOAD | op::FLOAD | op::ALOAD => Op::Load {
            slot: u8_op(),
            cost: Cost::IntOp,
        },
        op::LLOAD | op::DLOAD => Op::Load {
            slot: u8_op(),
            cost: Cost::LongOp,
        },
        op::ILOAD_0..=op::ALOAD_3 => {
            let (slot, cost) = slot_and_cost(opcode - op::ILOAD_0);
            Op::Load { slot, cost }
        }
        op::ISTORE | op::FSTORE | op::ASTORE => Op::Store {
            slot: u8_op(),
            cost: Cost::IntOp,
        },
        op::LSTORE | op::DSTORE => Op::Store {
            slot: u8_op(),
            cost: Cost::LongOp,
        },
        op::ISTORE_0..=op::ASTORE_3 => {
            let (slot, cost) = slot_and_cost(opcode - op::ISTORE_0);
            Op::Store { slot, cost }
        }
        op::IALOAD..=op::SALOAD => Op::ArrLoad,
        op::IASTORE..=op::SASTORE => Op::ArrStore,

        op::POP => Op::Pop1,
        op::POP2 => Op::Pop2,
        op::DUP => Op::Dup,
        op::DUP_X1 => Op::DupX1,
        op::DUP_X2 => Op::DupX2,
        op::DUP2 => Op::Dup2,
        op::DUP2_X1 => Op::Dup2X1,
        op::DUP2_X2 => Op::Dup2X2,
        op::SWAP => Op::Swap,

        op::IADD
        | op::ISUB
        | op::IMUL
        | op::ISHL
        | op::ISHR
        | op::IUSHR
        | op::IAND
        | op::IOR
        | op::IXOR => Op::IntBin { op: opcode },
        op::IDIV | op::IREM => Op::IntDivRem {
            rem: opcode == op::IREM,
        },
        op::INEG => Op::IntNeg,
        op::LADD | op::LSUB | op::LMUL | op::LAND | op::LOR | op::LXOR => {
            Op::LongBin { op: opcode }
        }
        op::LDIV | op::LREM => Op::LongDivRem {
            rem: opcode == op::LREM,
        },
        op::LSHL | op::LSHR | op::LUSHR => Op::LongShift { op: opcode },
        op::LNEG => Op::LongNeg,
        op::FADD | op::FSUB | op::FMUL | op::FDIV | op::FREM => Op::FloatBin { op: opcode },
        op::DADD | op::DSUB | op::DMUL | op::DDIV | op::DREM => Op::DoubleBin { op: opcode },
        op::FNEG => Op::FloatNeg,
        op::DNEG => Op::DoubleNeg,
        op::IINC => Op::Iinc {
            slot: u8_op(),
            delta: bc[pc + 2] as i8 as i32,
        },
        op::I2L..=op::I2S => Op::Conv {
            op: opcode,
            cost: match opcode {
                op::I2L | op::L2I | op::L2F | op::L2D | op::F2L | op::D2L => Cost::LongOp,
                op::I2B | op::I2C | op::I2S => Cost::IntOp,
                _ => Cost::FloatOp,
            },
        },
        op::LCMP => Op::Lcmp,
        op::FCMPL | op::FCMPG => Op::Fcmp {
            greater_on_nan: opcode == op::FCMPG,
        },
        op::DCMPL | op::DCMPG => Op::Dcmp {
            greater_on_nan: opcode == op::DCMPG,
        },

        op::IFEQ..=op::IFLE => Op::If0 {
            cond: opcode,
            t: rel16()?,
        },
        op::IF_ICMPEQ..=op::IF_ICMPLE => Op::IfICmp {
            cond: opcode,
            t: rel16()?,
        },
        op::IF_ACMPEQ | op::IF_ACMPNE => Op::IfACmp {
            eq: opcode == op::IF_ACMPEQ,
            t: rel16()?,
        },
        op::IFNULL | op::IFNONNULL => Op::IfNull {
            when_null: opcode == op::IFNULL,
            t: rel16()?,
        },
        op::GOTO => Op::Goto { t: rel16()? },
        op::GOTO_W => Op::Goto { t: rel32(pc + 1)? },
        op::JSR => Op::Jsr { t: rel16()? },
        op::JSR_W => Op::Jsr { t: rel32(pc + 1)? },
        op::RET => Op::Ret { slot: u8_op() },
        op::TABLESWITCH => {
            let base = (pc + 4) & !3;
            let low = i32_at(bc, base + 4);
            // `insn_len` checked that the count is in 0..=bc.len().
            let n = (i64::from(i32_at(bc, base + 8)) - i64::from(low) + 1) as usize;
            let targets = (0..n)
                .map(|e| rel32(base + 12 + 4 * e))
                .collect::<Result<_, _>>()?;
            Op::TableSwitch(Box::new(TableSwitch {
                low,
                default: rel32(base)?,
                targets,
            }))
        }
        op::LOOKUPSWITCH => {
            let base = (pc + 4) & !3;
            let pairs = (0..i32_at(bc, base + 4) as usize)
                .map(|p| {
                    let at = base + 8 + 8 * p;
                    Ok((i32_at(bc, at), rel32(at + 4)?))
                })
                .collect::<Result<_, String>>()?;
            Op::LookupSwitch(Box::new(LookupSwitch {
                default: rel32(base)?,
                pairs,
            }))
        }
        op::IRETURN..=op::RETURN => Op::Return {
            has_value: opcode != op::RETURN,
        },

        op::GETSTATIC => Op::GetStatic {
            idx: idx(),
            field: OnceCell::new(),
        },
        op::PUTSTATIC => Op::PutStatic {
            idx: idx(),
            field: OnceCell::new(),
        },
        op::GETFIELD => Op::GetField {
            idx: idx(),
            field: OnceCell::new(),
        },
        op::PUTFIELD => Op::PutField {
            idx: idx(),
            field: OnceCell::new(),
        },
        op::INVOKEVIRTUAL | op::INVOKESPECIAL | op::INVOKESTATIC | op::INVOKEINTERFACE => {
            Op::Invoke {
                opcode,
                idx: idx(),
                site: OnceCell::new(),
            }
        }
        op::NEW => Op::New {
            idx: idx(),
            class: OnceCell::new(),
        },
        op::NEWARRAY => Op::NewArray { atype: bc[pc + 1] },
        op::ANEWARRAY => Op::ANewArray {
            idx: idx(),
            class: OnceCell::new(),
        },
        op::MULTIANEWARRAY if bc[pc + 3] == 0 => {
            return Err(format!("multianewarray of zero dimensions at pc {pc}"))
        }
        op::MULTIANEWARRAY => Op::MultiANewArray {
            idx: idx(),
            dims: bc[pc + 3],
            class: OnceCell::new(),
        },
        op::ARRAYLENGTH => Op::ArrayLength,
        op::ATHROW => Op::Athrow,
        op::CHECKCAST | op::INSTANCEOF => Op::TypeCheck {
            idx: idx(),
            instanceof: opcode == op::INSTANCEOF,
            class: OnceCell::new(),
        },
        op::MONITORENTER => Op::MonitorEnter,
        op::MONITOREXIT => Op::MonitorExit,

        op::WIDE => {
            let slot = u16_at(bc, pc + 2);
            match bc[pc + 1] {
                op::ILOAD | op::FLOAD | op::ALOAD | op::LLOAD | op::DLOAD => Op::WideLoad { slot },
                op::ISTORE | op::FSTORE | op::ASTORE | op::LSTORE | op::DSTORE => {
                    Op::WideStore { slot }
                }
                op::IINC => Op::WideIinc {
                    slot,
                    delta: i16_at(bc, pc + 4) as i32,
                },
                op::RET => Op::Ret { slot },
                _ => Op::Invalid("bad wide".into()),
            }
        }
        _ => Op::Invalid(format!("undefined opcode {opcode:#04x}").into()),
    })
}

/// Slot and cost of the `<x>load_<n>`/`<x>store_<n>` family at offset
/// `k` from its `iload_0`/`istore_0`: four slots per type, in the order
/// int, long, float, double, reference.
fn slot_and_cost(k: u8) -> (u16, Cost) {
    let cost = match k / 4 {
        0 | 4 => Cost::IntOp,
        1 => Cost::LongOp,
        _ => Cost::FloatOp,
    };
    (u16::from(k % 4), cost)
}

// ----------------------------------------------------------------
// Execution
// ----------------------------------------------------------------

/// Single charges per `Cost` category that the executor has counted but
/// not yet applied (see "Virtual-cost parity" in the module docs). The
/// `Dispatch` count is the instructions run since the last settle.
#[derive(Default)]
pub(crate) struct Tally([u64; COST_CATEGORIES]);

impl Tally {
    #[inline(always)]
    fn add(&mut self, kind: Cost) {
        self.0[kind as usize] += 1;
    }

    /// Apply the counts to the engine and the instruction count.
    pub(crate) fn settle(&mut self, state: &mut JvmState) {
        state.instructions += self.0[Cost::Dispatch as usize];
        state.engine.charge_counts(&mut self.0);
    }
}

/// Run the thread's frames until it must leave the executor: it
/// blocks, yields, exits, finishes, throws past its last frame, or a
/// §6.1 suspend check fires. Calls and returns stay in the loop; the
/// hosting thread's slice loop calls this.
pub(crate) fn execute(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    tid: ThreadId,
) -> StepResult {
    let mut tally = Tally::default();

    let sr = 'frames: loop {
        // Go on with the top frame at its pc after a helper that may have
        // changed the frame stack; leave on anything else (`break 'frames`
        // leaves the executor, settling the tally on the way out).
        macro_rules! reenter {
            ($sr:expr) => {
                match $sr {
                    StepResult::Continue => continue 'frames,
                    sr => break 'frames sr,
                }
            };
        }
        let Some(mut fr) = frames.last_mut() else {
            break StepResult::Finished;
        };
        let blob = fr.code.clone();
        let entry = match blob.ops() {
            Ok(code) => code.entry(fr.pc).map(|ip| (code, ip)),
            Err(_) => None,
        };
        let Some((code, mut ip)) = entry else {
            tally.settle(state);
            let msg = match blob.ops() {
                Ok(_) => "pc out of range".to_string(),
                // Malformed code: the frame is popped unrun and the error
                // thrown from its caller.
                Err(why) => {
                    interp::pop_frame(state, frames, ctx, tid);
                    let name = &state.registry.get(blob.class).name;
                    format!("{name}.{}: {why}", blob.name)
                }
            };
            let internal = "java/lang/InternalError";
            reenter!(interp::throw_vm(state, frames, ctx, tid, internal, &msg));
        };
        let class = blob.class;
        // A local slice keeps the ops' base pointer in a register across
        // the loop; indexing through `code` each time cost nqueens ~25%
        // host time.
        let ops = &code.ops[..];

        // The executing frame again, after a helper that took the stack.
        macro_rules! refetch {
            () => {
                fr = frames.last_mut().expect("executing frame")
            };
        }
        // Point the frame at the current instruction, so a throw dispatches
        // and a blocked instruction retries from there.
        macro_rules! anchor {
            () => {
                fr.pc = code.pcs[ip] as usize
            };
        }
        macro_rules! throw {
            ($class:expr, $msg:expr) => {{
                let msg: &str = $msg;
                anchor!();
                tally.settle(state);
                reenter!(interp::throw_vm(state, frames, ctx, tid, $class, msg))
            }};
        }
        // §6.1: the suspend check, where a frame was pushed or popped and at
        // checked backedges. Only a hosted run makes it, and it reads the
        // clock, so only a hosted run settles here.
        macro_rules! boundary {
            () => {
                if state.hosted {
                    tally.settle(state);
                    if let sr @ StepResult::Suspend = interp::suspend_check(state, ctx) {
                        break 'frames sr;
                    }
                }
            };
        }
        // A taken branch. Backward edges take the §6.1 suspend check when
        // `check_backedges` is on.
        macro_rules! branch {
            ($t:expr) => {{
                let t: Target = $t;
                if t.back && state.check_backedges {
                    fr.pc = code.pcs[t.ip as usize] as usize;
                    tally.add(Cost::IntOp);
                    boundary!();
                }
                ip = t.ip as usize;
                continue;
            }};
        }
        // The op's field, resolved on a miss; `$owned` keeps a resolution
        // that was not quickened alive for this execution.
        macro_rules! field {
            ($cell:expr, $idx:expr, $is_static:expr, $owned:ident) => {
                match $cell.get() {
                    Some(f) => {
                        state.perf.cp_hit.inc();
                        f
                    }
                    None => {
                        anchor!();
                        tally.settle(state);
                        let r = interp::resolve_field(
                            state, frames, ctx, tid, *$idx, $is_static, $cell,
                        );
                        $owned = match r {
                            Ok(f) => f,
                            Err(sr) => reenter!(sr),
                        };
                        refetch!();
                        &$owned
                    }
                }
            };
        }

        loop {
            tally.add(Cost::Dispatch);
            // Ops that fall through end at the `ip += 1` below the match.
            match &ops[ip] {
                Op::Nop => {}
                Op::Const { v, cost } => {
                    if let Some(c) = cost {
                        tally.add(*c);
                    }
                    fr.push(*v);
                }
                Op::Ldc { idx, value } => {
                    let v = match value.get() {
                        Some(v) => {
                            interp::ldc_hit(state, *v);
                            *v
                        }
                        None => {
                            anchor!();
                            tally.settle(state);
                            let v = match interp::ldc(state, frames, ctx, tid, *idx, value) {
                                Ok(v) => v,
                                Err(sr) => reenter!(sr),
                            };
                            refetch!();
                            v
                        }
                    };
                    fr.push(v);
                }
                Op::Load { slot, cost } => {
                    tally.add(*cost);
                    fr.push(fr.local(*slot as usize));
                }
                Op::Store { slot, cost } => {
                    tally.add(*cost);
                    let v = fr.pop();
                    fr.set_local(*slot as usize, v);
                }
                Op::WideLoad { slot } => {
                    fr.push(fr.local(*slot as usize));
                }
                Op::WideStore { slot } => {
                    let v = fr.pop();
                    fr.set_local(*slot as usize, v);
                }
                Op::WideIinc { slot, delta } => {
                    let v = fr.local(*slot as usize).as_int();
                    fr.set_local(*slot as usize, Value::Int(v.wrapping_add(*delta)));
                }

                Op::ArrLoad => {
                    tally.add(Cost::ArrayGet);
                    let (index, arr) = (fr.pop_int(), fr.pop_ref());
                    let Some(arr) = arr else {
                        throw!("java/lang/NullPointerException", "array load");
                    };
                    let len = state.heap.get(arr).array_len().unwrap_or(0);
                    if index < 0 || index as usize >= len {
                        throw!(
                            "java/lang/ArrayIndexOutOfBoundsException",
                            &format!("index {index}, length {len}")
                        );
                    }
                    let i = index as usize;
                    let v = match state.heap.get(arr) {
                        HeapObj::ArrayInt(v) => Value::Int(v[i]),
                        HeapObj::ArrayLong(v) => Value::Long(v[i]),
                        HeapObj::ArrayFloat(v) => Value::Float(v[i]),
                        HeapObj::ArrayDouble(v) => Value::Double(v[i]),
                        HeapObj::ArrayByte(v) => Value::Int(v[i] as i32),
                        HeapObj::ArrayChar(v) => Value::Int(v[i] as i32),
                        HeapObj::ArrayShort(v) => Value::Int(v[i] as i32),
                        HeapObj::ArrayRef { data, .. } => Value::Ref(data[i]),
                        _ => throw!("java/lang/InternalError", "not an array"),
                    };
                    fr.push(v);
                }
                Op::ArrStore => {
                    tally.add(Cost::ArrayPut);
                    let (value, index, arr) = (fr.pop(), fr.pop_int(), fr.pop_ref());
                    let Some(arr) = arr else {
                        throw!("java/lang/NullPointerException", "array store");
                    };
                    let len = state.heap.get(arr).array_len().unwrap_or(0);
                    if index < 0 || index as usize >= len {
                        throw!(
                            "java/lang/ArrayIndexOutOfBoundsException",
                            &format!("index {index}, length {len}")
                        );
                    }
                    let i = index as usize;
                    match (state.heap.get_mut(arr), value) {
                        (HeapObj::ArrayInt(v), Value::Int(x)) => v[i] = x,
                        (HeapObj::ArrayLong(v), Value::Long(x)) => v[i] = x,
                        (HeapObj::ArrayFloat(v), Value::Float(x)) => v[i] = x,
                        (HeapObj::ArrayDouble(v), Value::Double(x)) => v[i] = x,
                        (HeapObj::ArrayByte(v), Value::Int(x)) => v[i] = x as i8,
                        (HeapObj::ArrayChar(v), Value::Int(x)) => v[i] = x as u16,
                        (HeapObj::ArrayShort(v), Value::Int(x)) => v[i] = x as i16,
                        (HeapObj::ArrayRef { data, .. }, Value::Ref(r)) => data[i] = r,
                        _ => throw!("java/lang/ArrayStoreException", "element type mismatch"),
                    }
                }

                // Stack shuffles work on slots (§6.1's explicit arrays).
                Op::Pop1 => {
                    fr.pop_slot();
                }
                Op::Pop2 => {
                    fr.pop_slot();
                    fr.pop_slot();
                }
                Op::Dup => {
                    let v = *fr.peek(0);
                    fr.stack.push(v);
                }
                Op::DupX1 => {
                    let (v1, v2) = (fr.pop_slot(), fr.pop_slot());
                    fr.stack.extend([v1, v2, v1]);
                }
                Op::DupX2 => {
                    let (v1, v2, v3) = (fr.pop_slot(), fr.pop_slot(), fr.pop_slot());
                    fr.stack.extend([v1, v3, v2, v1]);
                }
                Op::Dup2 => {
                    let (v1, v2) = (*fr.peek(0), *fr.peek(1));
                    fr.stack.extend([v2, v1]);
                }
                Op::Dup2X1 => {
                    let (v1, v2, v3) = (fr.pop_slot(), fr.pop_slot(), fr.pop_slot());
                    fr.stack.extend([v2, v1, v3, v2, v1]);
                }
                Op::Dup2X2 => {
                    let (v1, v2, v3, v4) =
                        (fr.pop_slot(), fr.pop_slot(), fr.pop_slot(), fr.pop_slot());
                    fr.stack.extend([v2, v1, v4, v3, v2, v1]);
                }
                Op::Swap => {
                    let (v1, v2) = (fr.pop_slot(), fr.pop_slot());
                    fr.stack.extend([v1, v2]);
                }

                Op::IntBin { op: bop } => {
                    tally.add(Cost::IntOp);
                    let (b, a) = (fr.pop_int(), fr.pop_int());
                    fr.push(Value::Int(int_bin(*bop, a, b)));
                }
                Op::IntDivRem { rem } => {
                    tally.add(Cost::IntOp);
                    let (b, a) = (fr.pop_int(), fr.pop_int());
                    if b == 0 {
                        throw!("java/lang/ArithmeticException", "/ by zero");
                    }
                    let r = if *rem {
                        a.wrapping_rem(b)
                    } else {
                        a.wrapping_div(b)
                    };
                    fr.push(Value::Int(r));
                }
                Op::IntNeg => {
                    tally.add(Cost::IntOp);
                    let a = fr.pop_int();
                    fr.push(Value::Int(a.wrapping_neg()));
                }
                Op::LongBin { op: bop } => {
                    tally.add(Cost::LongOp);
                    let (b, a) = (fr.pop_long(), fr.pop_long());
                    fr.push(Value::Long(match *bop {
                        op::LADD => a.wrapping_add(b),
                        op::LSUB => a.wrapping_sub(b),
                        op::LMUL => a.wrapping_mul(b),
                        op::LAND => a & b,
                        op::LOR => a | b,
                        _ => a ^ b,
                    }));
                }
                Op::LongDivRem { rem } => {
                    tally.add(Cost::LongOp);
                    let (b, a) = (fr.pop_long(), fr.pop_long());
                    if b == 0 {
                        throw!("java/lang/ArithmeticException", "/ by zero");
                    }
                    let r = if *rem {
                        a.wrapping_rem(b)
                    } else {
                        a.wrapping_div(b)
                    };
                    fr.push(Value::Long(r));
                }
                Op::LongShift { op: bop } => {
                    tally.add(Cost::LongOp);
                    let (s, a) = (fr.pop_int() as u32 & 63, fr.pop_long());
                    fr.push(Value::Long(match *bop {
                        op::LSHL => a.wrapping_shl(s),
                        op::LSHR => a.wrapping_shr(s),
                        _ => ((a as u64).wrapping_shr(s)) as i64,
                    }));
                }
                Op::LongNeg => {
                    tally.add(Cost::LongOp);
                    let a = fr.pop_long();
                    fr.push(Value::Long(a.wrapping_neg()));
                }
                Op::FloatBin { op: bop } => {
                    tally.add(Cost::FloatOp);
                    let (b, a) = (fr.pop_float(), fr.pop_float());
                    fr.push(Value::Float(match *bop {
                        op::FADD => a + b,
                        op::FSUB => a - b,
                        op::FMUL => a * b,
                        op::FDIV => a / b,
                        _ => a % b,
                    }));
                }
                Op::DoubleBin { op: bop } => {
                    tally.add(Cost::FloatOp);
                    let (b, a) = (fr.pop_double(), fr.pop_double());
                    fr.push(Value::Double(match *bop {
                        op::DADD => a + b,
                        op::DSUB => a - b,
                        op::DMUL => a * b,
                        op::DDIV => a / b,
                        _ => a % b,
                    }));
                }
                Op::FloatNeg => {
                    tally.add(Cost::FloatOp);
                    let a = fr.pop_float();
                    fr.push(Value::Float(-a));
                }
                Op::DoubleNeg => {
                    tally.add(Cost::FloatOp);
                    let a = fr.pop_double();
                    fr.push(Value::Double(-a));
                }
                Op::Iinc { slot, delta } => {
                    tally.add(Cost::IntOp);
                    let v = fr.local(*slot as usize).as_int();
                    fr.set_local(*slot as usize, Value::Int(v.wrapping_add(*delta)));
                }
                Op::Conv { op: cop, cost } => {
                    tally.add(*cost);
                    let v = match *cop {
                        op::I2L => Value::Long(fr.pop_int() as i64),
                        op::I2F => Value::Float(fr.pop_int() as f32),
                        op::I2D => Value::Double(fr.pop_int() as f64),
                        op::L2I => Value::Int(fr.pop_long() as i32),
                        op::L2F => Value::Float(fr.pop_long() as f32),
                        op::L2D => Value::Double(fr.pop_long() as f64),
                        op::F2I => Value::Int(f2i(fr.pop_float() as f64)),
                        op::F2L => Value::Long(f2l(fr.pop_float() as f64)),
                        op::F2D => Value::Double(fr.pop_float() as f64),
                        op::D2I => Value::Int(f2i(fr.pop_double())),
                        op::D2L => Value::Long(f2l(fr.pop_double())),
                        op::D2F => Value::Float(fr.pop_double() as f32),
                        op::I2B => Value::Int(fr.pop_int() as i8 as i32),
                        op::I2C => Value::Int(fr.pop_int() as u16 as i32),
                        _ => Value::Int(fr.pop_int() as i16 as i32),
                    };
                    fr.push(v);
                }
                Op::Lcmp => {
                    tally.add(Cost::LongOp);
                    let (b, a) = (fr.pop_long(), fr.pop_long());
                    fr.push(Value::Int(a.cmp(&b) as i32));
                }
                Op::Fcmp { greater_on_nan } => {
                    tally.add(Cost::FloatOp);
                    let (b, a) = (fr.pop_float(), fr.pop_float());
                    fr.push(Value::Int(fp_cmp(a as f64, b as f64, *greater_on_nan)));
                }
                Op::Dcmp { greater_on_nan } => {
                    tally.add(Cost::FloatOp);
                    let (b, a) = (fr.pop_double(), fr.pop_double());
                    fr.push(Value::Int(fp_cmp(a, b, *greater_on_nan)));
                }

                Op::If0 { cond, t } => {
                    tally.add(Cost::Branch);
                    let v = fr.pop_int();
                    let taken = match *cond {
                        op::IFEQ => v == 0,
                        op::IFNE => v != 0,
                        op::IFLT => v < 0,
                        op::IFGE => v >= 0,
                        op::IFGT => v > 0,
                        _ => v <= 0,
                    };
                    if taken {
                        branch!(*t);
                    }
                }
                Op::IfICmp { cond, t } => {
                    tally.add(Cost::Branch);
                    let (b, a) = (fr.pop_int(), fr.pop_int());
                    let taken = match *cond {
                        op::IF_ICMPEQ => a == b,
                        op::IF_ICMPNE => a != b,
                        op::IF_ICMPLT => a < b,
                        op::IF_ICMPGE => a >= b,
                        op::IF_ICMPGT => a > b,
                        _ => a <= b,
                    };
                    if taken {
                        branch!(*t);
                    }
                }
                Op::IfACmp { eq, t } => {
                    tally.add(Cost::Branch);
                    let (b, a) = (fr.pop_ref(), fr.pop_ref());
                    if (a == b) == *eq {
                        branch!(*t);
                    }
                }
                Op::IfNull { when_null, t } => {
                    tally.add(Cost::Branch);
                    if fr.pop_ref().is_none() == *when_null {
                        branch!(*t);
                    }
                }
                Op::Goto { t } => {
                    tally.add(Cost::Branch);
                    branch!(*t);
                }
                Op::Jsr { t } => {
                    let ret = code.pcs[ip + 1] as usize;
                    fr.push(Value::RetAddr(ret));
                    branch!(*t);
                }
                Op::Ret { slot } => {
                    let Value::RetAddr(to) = fr.local(*slot as usize) else {
                        let msg =
                            format!("ret of non-returnAddress {:?}", fr.local(*slot as usize));
                        throw!("java/lang/InternalError", &msg);
                    };
                    fr.pc = to;
                    if to < code.pcs[ip] as usize && state.check_backedges {
                        tally.add(Cost::IntOp);
                        boundary!();
                    }
                    // Go on at the return address (an op head, or an
                    // InternalError for a forged one).
                    continue 'frames;
                }
                Op::TableSwitch(sw) => {
                    tally.add(Cost::Branch);
                    let k = i64::from(fr.pop_int()) - i64::from(sw.low);
                    branch!(usize::try_from(k)
                        .ok()
                        .and_then(|k| sw.targets.get(k))
                        .copied()
                        .unwrap_or(sw.default));
                }
                Op::LookupSwitch(sw) => {
                    tally.add(Cost::Branch);
                    let v = fr.pop_int();
                    branch!(sw
                        .pairs
                        .iter()
                        .find(|(key, _)| *key == v)
                        .map_or(sw.default, |&(_, t)| t));
                }
                Op::Return { has_value } => {
                    let value = has_value.then(|| fr.pop());
                    if fr.held_monitor.is_some() {
                        // Releasing the monitor can wake a waiter, which
                        // schedules at the current virtual time.
                        tally.settle(state);
                    }
                    interp::pop_frame(state, frames, ctx, tid);
                    let Some(caller) = frames.last_mut() else {
                        break 'frames StepResult::Finished;
                    };
                    if let Some(v) = value {
                        caller.push(v);
                    }
                    boundary!();
                    continue 'frames;
                }

                Op::GetStatic { idx, field } => {
                    let owned;
                    let f = field!(field, idx, true, owned);
                    tally.add(Cost::MapOp);
                    tally.add(Cost::FieldGet);
                    let statics = &state.registry.get(f.class).statics;
                    let v = statics.get(&*f.key).copied().unwrap_or(f.default);
                    fr.push(v);
                }
                Op::PutStatic { idx, field } => {
                    let owned;
                    let f = field!(field, idx, true, owned);
                    tally.add(Cost::MapOp);
                    tally.add(Cost::FieldPut);
                    let v = fr.pop();
                    let statics = &mut state.registry.get_mut(f.class).statics;
                    if let Some(slot) = statics.get_mut(&*f.key) {
                        *slot = v;
                    } else {
                        statics.insert(f.key.to_string(), v);
                    }
                }
                Op::GetField { idx, field } => {
                    let owned;
                    let f = field!(field, idx, false, owned);
                    tally.add(Cost::MapOp);
                    tally.add(Cost::FieldGet);
                    let Some(obj) = fr.pop_ref() else {
                        throw!(
                            "java/lang/NullPointerException",
                            &format!("getfield {}", f.key)
                        );
                    };
                    fr.push(get_field(state, obj, f));
                }
                Op::PutField { idx, field } => {
                    let owned;
                    let f = field!(field, idx, false, owned);
                    tally.add(Cost::MapOp);
                    tally.add(Cost::FieldPut);
                    let (v, obj) = (fr.pop(), fr.pop_ref());
                    let Some(obj) = obj else {
                        throw!(
                            "java/lang/NullPointerException",
                            &format!("putfield {}", f.key)
                        );
                    };
                    put_field(state, obj, f, v);
                }

                Op::Invoke { opcode, idx, site } => {
                    anchor!();
                    tally.add(Cost::Call);
                    let site = match site.get() {
                        Some(s) => {
                            state.perf.cp_hit.inc();
                            s
                        }
                        None => {
                            tally.settle(state);
                            match interp::call_site(state, frames, ctx, tid, *idx, site) {
                                Ok(s) => s,
                                Err(sr) => reenter!(sr),
                            }
                        }
                    };
                    let next_pc = code.pcs[ip + 1] as usize;
                    reenter!(interp::invoke_with_site(
                        state, frames, ctx, *opcode, next_pc, site, &mut tally
                    ));
                }
                Op::New { idx, class: id } => {
                    let id = match id.get() {
                        Some(id) => {
                            state.perf.cp_hit.inc();
                            *id
                        }
                        None => {
                            anchor!();
                            tally.settle(state);
                            let id = match interp::new_class(state, frames, ctx, tid, *idx, id) {
                                Ok(id) => id,
                                Err(sr) => reenter!(sr),
                            };
                            refetch!();
                            id
                        }
                    };
                    // Only charges: nothing here reads the clock.
                    let r = interp::alloc_instance(state, id);
                    fr.push(Value::Ref(Some(r)));
                }
                Op::NewArray { atype } => {
                    tally.add(Cost::Alloc);
                    let len = fr.pop_int();
                    if len < 0 {
                        throw!("java/lang/NegativeArraySizeException", &len.to_string());
                    }
                    // DoppioJVM backs binary arrays (boolean[], char[], byte[])
                    // with typed arrays; register the allocation so Safari's
                    // leak model (§7.1) sees JVM-level buffer churn too. The
                    // matching free models the JS garbage collector.
                    if matches!(atype, 4 | 5 | 8) && state.engine.profile().has_typed_arrays {
                        // Residency sets the paging penalty of every charge.
                        tally.settle(state);
                        let bytes = len as usize * if *atype == 5 { 2 } else { 1 };
                        state.engine.typed_array_alloc(bytes);
                        state.engine.typed_array_free(bytes);
                    }
                    let Some(r) = state.heap.alloc_primitive_array(*atype, len as usize) else {
                        throw!("java/lang/InternalError", "bad atype");
                    };
                    fr.push(Value::Ref(Some(r)));
                }
                Op::ANewArray { idx, class: cc } => {
                    tally.add(Cost::Alloc);
                    if cc.get().is_none() {
                        tally.settle(state);
                    }
                    let component = match interp::class_const(state, ctx, class, *idx, cc) {
                        Ok(cc) => cc.name.to_string(),
                        Err(msg) => throw!("java/lang/InternalError", &msg),
                    };
                    let len = fr.pop_int();
                    if len < 0 {
                        throw!("java/lang/NegativeArraySizeException", &len.to_string());
                    }
                    let r = state.heap.alloc(HeapObj::ArrayRef {
                        component,
                        data: vec![None; len as usize],
                    });
                    fr.push(Value::Ref(Some(r)));
                }
                Op::MultiANewArray {
                    idx,
                    dims,
                    class: cc,
                } => {
                    tally.add(Cost::Alloc);
                    if cc.get().is_none() {
                        tally.settle(state);
                    }
                    let desc = match interp::class_const(state, ctx, class, *idx, cc) {
                        Ok(cc) => cc.name.clone(),
                        Err(msg) => throw!("java/lang/InternalError", &msg),
                    };
                    let mut sizes = vec![0i32; *dims as usize];
                    for s in sizes.iter_mut().rev() {
                        *s = fr.pop_int();
                    }
                    if sizes.iter().any(|&s| s < 0) {
                        throw!("java/lang/NegativeArraySizeException", "multianewarray");
                    }
                    let r = interp::alloc_multi(state, &desc, &sizes);
                    fr.push(Value::Ref(Some(r)));
                }
                Op::ArrayLength => {
                    tally.add(Cost::IntOp);
                    let Some(arr) = fr.pop_ref() else {
                        throw!("java/lang/NullPointerException", "arraylength");
                    };
                    let Some(len) = state.heap.get(arr).array_len() else {
                        throw!("java/lang/InternalError", "not an array");
                    };
                    fr.push(Value::Int(len as i32));
                }
                Op::Athrow => {
                    let Some(ex) = fr.pop_ref() else {
                        throw!("java/lang/NullPointerException", "athrow null");
                    };
                    anchor!();
                    tally.settle(state);
                    reenter!(interp::dispatch_exception(state, frames, ctx, tid, ex));
                }
                Op::TypeCheck {
                    idx,
                    instanceof,
                    class: cc,
                } => {
                    anchor!();
                    if cc.get().is_none() {
                        tally.settle(state);
                    }
                    let target = match interp::class_const(state, ctx, class, *idx, cc) {
                        Ok(cc) => cc.name.clone(),
                        Err(msg) => throw!("java/lang/InternalError", &msg),
                    };
                    tally.add(Cost::MapOp);
                    // null passes checkcast and fails instanceof.
                    let r = fr.peek(0).as_ref();
                    let matches = match r {
                        None => !instanceof,
                        Some(obj) => match interp::runtime_class_of(state, obj) {
                            Ok(cid) => state.registry.is_assignable(cid, &target),
                            Err(sr) => break 'frames sr,
                        },
                    };
                    if *instanceof {
                        fr.pop_ref();
                        fr.push(Value::Int(i32::from(matches && r.is_some())));
                    } else if !matches {
                        let name = r
                            .and_then(|o| interp::runtime_class_of(state, o).ok())
                            .map(|c| state.registry.get(c).name.clone())
                            .unwrap_or_default();
                        throw!(
                            "java/lang/ClassCastException",
                            &format!("{name} cannot be cast to {target}")
                        );
                    }
                }
                Op::MonitorEnter => {
                    let Some(&Value::Ref(obj)) = fr.stack.last() else {
                        throw!("java/lang/InternalError", "monitorenter");
                    };
                    let Some(obj) = obj else {
                        throw!("java/lang/NullPointerException", "monitorenter");
                    };
                    // Monitor bookkeeping can trace at the current time.
                    tally.settle(state);
                    if !interp::try_enter_monitor(state, ctx, obj, tid) {
                        interp::queue_on_monitor(state, obj, tid);
                        anchor!();
                        break 'frames StepResult::MonitorBlocked(obj); // retry when woken
                    }
                    fr.pop_ref();
                }
                Op::MonitorExit => {
                    let Some(obj) = fr.pop_ref() else {
                        throw!("java/lang/NullPointerException", "monitorexit");
                    };
                    tally.settle(state);
                    if let Err(msg) = interp::exit_monitor(state, ctx, obj, tid) {
                        throw!("java/lang/IllegalMonitorStateException", &msg);
                    }
                }
                Op::Invalid(msg) => throw!("java/lang/InternalError", msg),

                Op::LoadLoadIntBin { a, b, op: bop } => {
                    tally.add(Cost::IntOp);
                    fr.push(fr.local(*a as usize));
                    tally.add(Cost::Dispatch);
                    tally.add(Cost::IntOp);
                    fr.push(fr.local(*b as usize));
                    tally.add(Cost::Dispatch);
                    tally.add(Cost::IntOp);
                    let (y, x) = (fr.pop_int(), fr.pop_int());
                    fr.push(Value::Int(int_bin(*bop, x, y)));
                    ip += 2;
                }
                Op::IincGoto { slot, delta, t } => {
                    tally.add(Cost::IntOp);
                    let v = fr.local(*slot as usize).as_int();
                    fr.set_local(*slot as usize, Value::Int(v.wrapping_add(*delta)));
                    tally.add(Cost::Dispatch);
                    tally.add(Cost::Branch);
                    branch!(*t);
                }
                Op::LoadGetfield { slot } => {
                    tally.add(Cost::IntOp);
                    fr.push(fr.local(*slot as usize));
                    if let Op::GetField { field, .. } = &ops[ip + 1] {
                        if let Some(field) = field.get() {
                            ip += 1;
                            tally.add(Cost::Dispatch);
                            state.perf.cp_hit.inc();
                            tally.add(Cost::MapOp);
                            tally.add(Cost::FieldGet);
                            let Some(obj) = fr.pop_ref() else {
                                throw!(
                                    "java/lang/NullPointerException",
                                    &format!("getfield {}", field.key)
                                );
                            };
                            fr.push(get_field(state, obj, field));
                        }
                    }
                }
            }
            ip += 1;
        }
    };
    tally.settle(state);
    sr
}

/// Read `field` of object `obj`: its slot when the receiver's layout
/// holds the field, else the entry by name, defaulting an absent one.
///
/// Field access stays out of line: inlined into [`execute`]'s loop, the
/// guard changed the loop's code for every op and cost nqueens, which
/// hardly touches fields, about 4% host time.
#[inline(never)]
fn get_field(state: &JvmState, obj: ObjRef, field: &ResolvedField) -> Value {
    if let HeapObj::Instance { class, fields, .. } = state.heap.get(obj) {
        if state
            .registry
            .get(*class)
            .layout
            .holds(field.slot, &field.key)
        {
            return fields[field.slot];
        }
    }
    // The receiver's class lacks the field (unverified code).
    state.field(obj, &field.key).unwrap_or(field.default)
}

/// Write `field` of object `obj`: its slot when the receiver's layout
/// holds the field, else the entry by name. Out of line, like
/// [`get_field`].
#[inline(never)]
fn put_field(state: &mut JvmState, obj: ObjRef, field: &ResolvedField, v: Value) {
    if let HeapObj::Instance { class, fields, .. } = state.heap.get_mut(obj) {
        if state
            .registry
            .get(*class)
            .layout
            .holds(field.slot, &field.key)
        {
            fields[field.slot] = v;
            return;
        }
    }
    state.set_field(obj, &field.key, v);
}

/// The int binops `iadd` through `ixor` (no division: it can throw).
fn int_bin(opcode: u8, a: i32, b: i32) -> i32 {
    match opcode {
        op::IADD => a.wrapping_add(b),
        op::ISUB => a.wrapping_sub(b),
        op::IMUL => a.wrapping_mul(b),
        op::ISHL => a.wrapping_shl(b as u32 & 31),
        op::ISHR => a.wrapping_shr(b as u32 & 31),
        op::IUSHR => ((a as u32).wrapping_shr(b as u32 & 31)) as i32,
        op::IAND => a & b,
        op::IOR => a | b,
        _ => a ^ b,
    }
}

/// JVM `f2i`/`d2i` conversion: NaN → 0, saturating.
fn f2i(v: f64) -> i32 {
    if v.is_nan() {
        0
    } else if v >= i32::MAX as f64 {
        i32::MAX
    } else if v <= i32::MIN as f64 {
        i32::MIN
    } else {
        v as i32
    }
}

/// JVM `f2l`/`d2l` conversion.
fn f2l(v: f64) -> i64 {
    if v.is_nan() {
        0
    } else if v >= i64::MAX as f64 {
        i64::MAX
    } else if v <= i64::MIN as f64 {
        i64::MIN
    } else {
        v as i64
    }
}

/// `fcmpl`/`fcmpg`/`dcmpl`/`dcmpg`: NaN pushes -1 or +1 per variant.
fn fp_cmp(a: f64, b: f64, greater_on_nan: bool) -> i32 {
    if a.is_nan() || b.is_nan() {
        if greater_on_nan {
            1
        } else {
            -1
        }
    } else if a < b {
        -1
    } else if a > b {
        1
    } else {
        0
    }
}
