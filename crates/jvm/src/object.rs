//! The JVM object heap.
//!
//! §6.7: "DoppioJVM maps JVM objects to JavaScript objects, where each
//! object contains a reference to its class and a dictionary that
//! contains all of its fields keyed on their names. JVM arrays are ...
//! mapped to a JavaScript object that contains an array of values."
//! That dictionary is our *cost model*: allocating an instance charges
//! one map operation per field and every field access one more (map
//! operations cost time on the browser profiles). On the host an
//! instance is a slot array laid out by its class's
//! [`InstanceLayout`](crate::class::InstanceLayout) (inherited fields
//! first), and a resolved field access indexes it after a
//! pointer-identity guard on the layout's key. Unverified code can name
//! a field the receiver's class lacks; such an entry lives in a small
//! side list, so reads and writes keep the dictionary's semantics.
//! Arrays are typed vectors. The original leans on the JavaScript
//! garbage collector; our arena correspondingly never frees (object
//! lifetimes in the benchmarks are run-scoped).

use std::rc::Rc;

use crate::class::{ClassId, InstanceLayout};
use crate::value::{ObjRef, Value};

/// An object on the JVM heap.
#[derive(Debug, Clone)]
pub enum HeapObj {
    /// A class instance: class reference + field slots (§6.7).
    Instance {
        /// The instance's class.
        class: ClassId,
        /// One value per slot of the class's `InstanceLayout`.
        fields: Box<[Value]>,
        /// Entries its class lacks, keyed `"DeclaringClass.fieldName"`:
        /// written only by unverified code that puts a field of another
        /// class.
        stray: Vec<(Rc<str>, Value)>,
    },
    /// `java/lang/String`: the character data lives Rust-side, as the
    /// original keeps it in a JavaScript string.
    JavaString(String),
    /// `java/lang/StringBuilder` backing store.
    StringBuilder(String),
    /// `int[]`.
    ArrayInt(Vec<i32>),
    /// `long[]`.
    ArrayLong(Vec<i64>),
    /// `float[]`.
    ArrayFloat(Vec<f32>),
    /// `double[]`.
    ArrayDouble(Vec<f64>),
    /// `byte[]` / `boolean[]`.
    ArrayByte(Vec<i8>),
    /// `char[]`.
    ArrayChar(Vec<u16>),
    /// `short[]`.
    ArrayShort(Vec<i16>),
    /// Reference array, tagged with its component class name
    /// (e.g. `"java/lang/String"` or `"[I"`).
    ArrayRef {
        /// Component type name.
        component: String,
        /// Elements.
        data: Vec<Option<ObjRef>>,
    },
}

impl HeapObj {
    /// A fresh instance of a class with `layout`: every slot defaulted.
    pub fn instance(class: ClassId, layout: &InstanceLayout) -> HeapObj {
        HeapObj::Instance {
            class,
            fields: layout.defaults.clone(),
            stray: Vec::new(),
        }
    }

    /// Array length, if this is an array.
    pub fn array_len(&self) -> Option<usize> {
        Some(match self {
            HeapObj::ArrayInt(v) => v.len(),
            HeapObj::ArrayLong(v) => v.len(),
            HeapObj::ArrayFloat(v) => v.len(),
            HeapObj::ArrayDouble(v) => v.len(),
            HeapObj::ArrayByte(v) => v.len(),
            HeapObj::ArrayChar(v) => v.len(),
            HeapObj::ArrayShort(v) => v.len(),
            HeapObj::ArrayRef { data, .. } => data.len(),
            _ => return None,
        })
    }

    /// The array-class name for this object, if it is an array
    /// (e.g. `"[I"`, `"[Ljava/lang/String;"`).
    pub fn array_class_name(&self) -> Option<String> {
        Some(match self {
            HeapObj::ArrayInt(_) => "[I".to_string(),
            HeapObj::ArrayLong(_) => "[J".to_string(),
            HeapObj::ArrayFloat(_) => "[F".to_string(),
            HeapObj::ArrayDouble(_) => "[D".to_string(),
            HeapObj::ArrayByte(_) => "[B".to_string(),
            HeapObj::ArrayChar(_) => "[C".to_string(),
            HeapObj::ArrayShort(_) => "[S".to_string(),
            HeapObj::ArrayRef { component, .. } => {
                if component.starts_with('[') {
                    format!("[{component}")
                } else {
                    format!("[L{component};")
                }
            }
            _ => return None,
        })
    }
}

/// The object arena.
#[derive(Debug, Default)]
pub struct Heap {
    objects: Vec<HeapObj>,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Allocate an object, returning its reference.
    pub fn alloc(&mut self, obj: HeapObj) -> ObjRef {
        self.objects.push(obj);
        self.objects.len() - 1
    }

    /// Read an object.
    pub fn get(&self, r: ObjRef) -> &HeapObj {
        &self.objects[r]
    }

    /// Mutate an object.
    pub fn get_mut(&mut self, r: ObjRef) -> &mut HeapObj {
        &mut self.objects[r]
    }

    /// Number of live objects (allocation count; the arena never
    /// frees — the original delegates collection to the JS GC).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Allocate a primitive array by JVMS `newarray` atype code.
    pub fn alloc_primitive_array(&mut self, atype: u8, len: usize) -> Option<ObjRef> {
        let obj = match atype {
            4 | 8 => HeapObj::ArrayByte(vec![0; len]), // boolean[] stored as byte[]
            5 => HeapObj::ArrayChar(vec![0; len]),
            6 => HeapObj::ArrayFloat(vec![0.0; len]),
            7 => HeapObj::ArrayDouble(vec![0.0; len]),
            9 => HeapObj::ArrayShort(vec![0; len]),
            10 => HeapObj::ArrayInt(vec![0; len]),
            11 => HeapObj::ArrayLong(vec![0; len]),
            _ => return None,
        };
        Some(self.alloc(obj))
    }

    /// Read the Rust string out of a `JavaString`.
    pub fn java_string(&self, r: ObjRef) -> Option<&str> {
        match self.get(r) {
            HeapObj::JavaString(s) => Some(s),
            _ => None,
        }
    }

    /// Allocate a `java/lang/String`.
    pub fn alloc_string(&mut self, s: impl Into<String>) -> ObjRef {
        self.alloc(HeapObj::JavaString(s.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut h = Heap::new();
        let a = h.alloc(HeapObj::ArrayInt(vec![1, 2, 3]));
        let s = h.alloc_string("hi");
        assert_eq!(h.get(a).array_len(), Some(3));
        assert_eq!(h.java_string(s), Some("hi"));
        assert_eq!(h.len(), 2);
        if let HeapObj::ArrayInt(v) = h.get_mut(a) {
            v[0] = 9;
        }
        assert!(matches!(h.get(a), HeapObj::ArrayInt(v) if v[0] == 9));
    }

    #[test]
    fn primitive_array_atypes() {
        let mut h = Heap::new();
        for (atype, expect_len) in [
            (4u8, 5usize),
            (5, 5),
            (6, 5),
            (7, 5),
            (8, 5),
            (9, 5),
            (10, 5),
            (11, 5),
        ] {
            let r = h.alloc_primitive_array(atype, expect_len).unwrap();
            assert_eq!(h.get(r).array_len(), Some(expect_len));
        }
        assert!(h.alloc_primitive_array(99, 1).is_none());
    }

    #[test]
    fn array_class_names() {
        let mut h = Heap::new();
        let i = h.alloc(HeapObj::ArrayInt(vec![]));
        assert_eq!(h.get(i).array_class_name().unwrap(), "[I");
        let s = h.alloc(HeapObj::ArrayRef {
            component: "java/lang/String".into(),
            data: vec![],
        });
        assert_eq!(h.get(s).array_class_name().unwrap(), "[Ljava/lang/String;");
        let nested = h.alloc(HeapObj::ArrayRef {
            component: "[I".into(),
            data: vec![],
        });
        assert_eq!(h.get(nested).array_class_name().unwrap(), "[[I");
    }
}
