//! JVM stack frames (§6.1).
//!
//! "DoppioJVM's stack frame is a JavaScript object that contains an
//! array for the operand stack, an array for the local variables, and
//! a reference to the method that the stack frame belongs to. The call
//! stack is simply an array of these stack frame objects." The frame
//! being plain data is what makes suspend-and-resume and exception
//! unwinding (§6.6) trivial — and, "a positive side effect", stack
//! introspection comes for free.

use std::rc::Rc;

use crate::state::CodeBlob;
use crate::value::{ObjRef, Value};

/// One stack frame.
#[derive(Debug)]
pub struct Frame {
    /// The method this frame executes.
    pub code: Rc<CodeBlob>,
    /// Program counter (bytecode offset).
    pub pc: usize,
    /// Local variable slots.
    pub locals: Vec<Value>,
    /// Operand stack slots.
    pub stack: Vec<Value>,
    /// Monitor held by this frame if the method is `synchronized`
    /// (released on return/unwind).
    pub held_monitor: Option<ObjRef>,
}

impl Frame {
    /// Push a value (wide values get their padding slot).
    #[inline]
    pub fn push(&mut self, v: Value) {
        let wide = v.is_wide();
        self.stack.push(v);
        if wide {
            self.stack.push(Value::Padding);
        }
    }

    /// Pop one *slot* (used by the untyped stack shuffles).
    #[inline]
    pub fn pop_slot(&mut self) -> Value {
        self.stack.pop().expect("operand stack underflow")
    }

    /// Pop a value: strips the padding slot of wide values.
    #[inline]
    pub fn pop(&mut self) -> Value {
        match self.stack.pop().expect("operand stack underflow") {
            Value::Padding => self.stack.pop().expect("wide value under padding"),
            v => v,
        }
    }

    /// Pop an `int`.
    #[inline]
    pub fn pop_int(&mut self) -> i32 {
        self.pop().as_int()
    }

    /// Pop a `long`.
    #[inline]
    pub fn pop_long(&mut self) -> i64 {
        self.pop().as_long()
    }

    /// Pop a `float`.
    #[inline]
    pub fn pop_float(&mut self) -> f32 {
        self.pop().as_float()
    }

    /// Pop a `double`.
    #[inline]
    pub fn pop_double(&mut self) -> f64 {
        self.pop().as_double()
    }

    /// Pop a reference.
    #[inline]
    pub fn pop_ref(&mut self) -> Option<ObjRef> {
        self.pop().as_ref()
    }

    /// Peek at the value `depth` slots from the top (0 = top slot).
    pub fn peek(&self, depth: usize) -> &Value {
        &self.stack[self.stack.len() - 1 - depth]
    }

    /// Read a local.
    #[inline]
    pub fn local(&self, idx: usize) -> Value {
        self.locals[idx]
    }

    /// Write a local (wide values fill the next slot with padding).
    #[inline]
    pub fn set_local(&mut self, idx: usize, v: Value) {
        let wide = v.is_wide();
        self.locals[idx] = v;
        if wide {
            self.locals[idx + 1] = Value::Padding;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CodeBlob;

    fn blob() -> Rc<CodeBlob> {
        Rc::new(CodeBlob {
            class: 0,
            method_index: 0,
            name: "t".into(),
            descriptor: "()V".into(),
            bytecode: vec![],
            exceptions: vec![],
            max_locals: 6,
            synchronized: false,
            is_static: true,
            is_clinit: false,
            line_numbers: vec![],
            ops: std::cell::OnceCell::new(),
        })
    }

    fn frame() -> Frame {
        Frame {
            code: blob(),
            pc: 0,
            locals: vec![Value::Int(0); 6],
            stack: Vec::new(),
            held_monitor: None,
        }
    }

    #[test]
    fn wide_values_occupy_two_slots() {
        let mut f = frame();
        f.push(Value::Long(7));
        assert_eq!(f.stack.len(), 2);
        assert_eq!(f.pop_long(), 7);
        assert!(f.stack.is_empty());
    }

    #[test]
    fn locals_handle_wide_values() {
        let mut f = frame();
        f.set_local(2, Value::Double(1.5));
        assert_eq!(f.local(2), Value::Double(1.5));
        assert_eq!(f.local(3), Value::Padding);
        f.set_local(0, Value::Int(3));
        assert_eq!(f.local(0), Value::Int(3));
    }

    #[test]
    fn slot_level_shuffles_see_padding() {
        let mut f = frame();
        f.push(Value::Long(1));
        // pop2 as two slot pops.
        let a = f.pop_slot();
        let b = f.pop_slot();
        assert_eq!(a, Value::Padding);
        assert_eq!(b, Value::Long(1));
    }
}
