//! Runtime class representation, registry, and resolution.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use doppio_classfile::{access, ClassFile};

use crate::value::{ObjRef, Value};

/// Index of a class in the registry.
pub type ClassId = usize;

/// `<clinit>` progress (JVMS2 §2.17.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClinitState {
    /// Never initialized.
    NotStarted,
    /// A thread is running `<clinit>` (recursion by the same thread
    /// proceeds, as the specification requires).
    InProgress(usize),
    /// Done.
    Initialized,
}

/// A quickened constant-pool entry: the result of resolving a CP index
/// once, cached per class so the interpreter's hot path never repeats
/// the string-keyed lookup (HotSpot calls this CP quickening; the paper
/// pays the full lookup on every `getfield`/`invoke*`).
///
/// Entries are only installed once the information they capture is
/// final: `ldc` values and symbolic names never change, and field /
/// class entries that imply "initialization already ran" are cached
/// only after the `<clinit>` chain reached `Initialized` (a sticky
/// state). Classes are never redefined in this registry (`define`
/// rejects duplicates), so a cached entry cannot go stale; new
/// *subclasses* invalidate call sites via receiver-class keying in the
/// inline caches, not here.
#[derive(Debug, Clone)]
pub enum CpEntry {
    /// `ldc`/`ldc_w`/`ldc2_w` of a numeric constant, decoded.
    Value(Value),
    /// `ldc` of a String or Class constant: the interned object, shared
    /// across executions instead of re-allocated per hit.
    Obj(ObjRef),
    /// A resolved field reference (get/putfield, get/putstatic).
    Field(Rc<ResolvedField>),
    /// A resolved class reference (`new`, `checkcast`, `instanceof`,
    /// `anewarray`, `multianewarray`).
    Class(Rc<ClassConst>),
}

/// A field reference resolved to its declaring class, with the
/// dictionary key, slot and default value precomputed.
#[derive(Debug)]
pub struct ResolvedField {
    /// Declaring class.
    pub class: ClassId,
    /// Dictionary key (`"DeclaringClass.fieldName"`). For an instance
    /// field this is the declaring class's [`InstanceLayout`] key itself,
    /// so [`InstanceLayout::holds`] can test it by pointer.
    pub key: Rc<str>,
    /// The field's slot in every instance of the declaring class and its
    /// subclasses (meaningless for a static field, whose key no layout
    /// holds).
    pub slot: usize,
    /// Field descriptor.
    pub descriptor: Rc<str>,
    /// Default value for the descriptor (lazy `getfield` on a fresh
    /// instance returns this without re-parsing the descriptor).
    pub default: Value,
    /// Whether the field is static.
    pub is_static: bool,
}

/// A resolved class constant. `checkcast`/`instanceof`/`anewarray` only
/// need the name (the target class may not even be loaded); `new` also
/// records the id once the class is defined *and* initialized, so the
/// hit path can skip the `<clinit>` protocol entirely.
#[derive(Debug)]
pub struct ClassConst {
    /// Binary name from the constant pool.
    pub name: Rc<str>,
    /// Id of the class, filled once it is defined and its `<clinit>`
    /// chain has run to completion (`Initialized` is sticky).
    pub init_id: Cell<Option<ClassId>>,
    /// The `java/lang/Class` mirror object, filled by the first `ldc`
    /// of this constant (mirrors are pooled, so the handle is final).
    pub mirror: Cell<Option<ObjRef>>,
}

/// A defined class.
#[derive(Debug)]
pub struct RuntimeClass {
    /// Registry index.
    pub id: ClassId,
    /// Binary name (`"java/lang/String"`, `"[I"`, ...); shared, so a
    /// native call can hold it while the natives mutate the state.
    pub name: Rc<str>,
    /// Superclass (None only for `java/lang/Object`).
    pub super_id: Option<ClassId>,
    /// Directly implemented interfaces.
    pub interfaces: Vec<ClassId>,
    /// The parsed class file (None for synthesized array classes).
    pub cf: Option<ClassFile>,
    /// For array classes: the component type name.
    pub array_component: Option<String>,
    /// Static fields, keyed `"Class.name"`.
    pub statics: HashMap<String, Value>,
    /// Where each instance field lives in an instance's slots.
    pub layout: InstanceLayout,
    /// Initialization state.
    pub clinit: ClinitState,
    /// Quickened constant-pool entries, keyed by CP index, populated on
    /// first use by the interpreter.
    pub cp_cache: RefCell<HashMap<u16, CpEntry>>,
}

/// The slots of a class's instances: §6.7's field dictionary laid out
/// flat. Inherited fields come first, then the class's own in
/// declaration order, so a field has the same slot in every subclass.
/// Every slot's key is shared (`Rc`) with the superclass layouts, which
/// is what lets a slot be checked by pointer identity.
#[derive(Debug, Default)]
pub struct InstanceLayout {
    /// Each slot's dictionary key (`"DeclaringClass.fieldName"`).
    pub keys: Vec<Rc<str>>,
    /// Each slot's default value: a new instance's slots.
    pub defaults: Box<[Value]>,
}

impl InstanceLayout {
    /// The layout of `cf`'s instances, extending its superclass's.
    fn extend(sup: Option<&InstanceLayout>, name: &str, cf: &ClassFile) -> InstanceLayout {
        let mut keys = sup.map(|l| l.keys.clone()).unwrap_or_default();
        let mut defaults = sup.map(|l| l.defaults.to_vec()).unwrap_or_default();
        let own = keys.len();
        for f in cf
            .fields
            .iter()
            .filter(|f| f.access_flags & access::ACC_STATIC == 0)
        {
            let key = format!("{name}.{}", f.name);
            let default = Value::default_for(&f.descriptor);
            // A repeated name shares one dictionary entry, initialized
            // by the last declaration.
            if let Some(first) = keys[own..].iter().position(|k| **k == *key) {
                defaults[own + first] = default;
            }
            keys.push(Rc::from(key));
            defaults.push(default);
        }
        InstanceLayout {
            keys,
            defaults: defaults.into(),
        }
    }

    /// Whether slot `slot` holds the field keyed by exactly `key`: the
    /// guard of a resolved field access. A receiver of any other class
    /// (unverified code can pass one) fails it and never aliases a field.
    #[inline]
    pub fn holds(&self, slot: usize, key: &Rc<str>) -> bool {
        self.keys.get(slot).is_some_and(|k| Rc::ptr_eq(k, key))
    }

    /// The slot of the dictionary entry `key`, by name.
    pub fn slot_of(&self, key: &str) -> Option<usize> {
        self.keys.iter().position(|k| **k == *key)
    }
}

impl RuntimeClass {
    /// Whether this is an interface.
    pub fn is_interface(&self) -> bool {
        self.cf
            .as_ref()
            .map(|cf| cf.access_flags & access::ACC_INTERFACE != 0)
            .unwrap_or(false)
    }
}

/// A resolved method: declaring class + index into its method list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodRef {
    /// Declaring class.
    pub class: ClassId,
    /// Index into that class's `methods`.
    pub index: usize,
}

/// The class registry: all defined classes, by id and name.
#[derive(Debug, Default)]
pub struct ClassRegistry {
    classes: Vec<RuntimeClass>,
    by_name: HashMap<String, ClassId>,
}

impl ClassRegistry {
    /// An empty registry.
    pub fn new() -> ClassRegistry {
        ClassRegistry::default()
    }

    /// Look up a defined class by name.
    pub fn lookup(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// The class with the given id.
    pub fn get(&self, id: ClassId) -> &RuntimeClass {
        &self.classes[id]
    }

    /// Mutable access to a class (statics, clinit state).
    pub fn get_mut(&mut self, id: ClassId) -> &mut RuntimeClass {
        &mut self.classes[id]
    }

    /// Number of defined classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether no classes are defined.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Define a class from a parsed class file. The superclass and
    /// interfaces must already be defined (the loader guarantees it).
    ///
    /// Returns `None` if a super/interface is missing (the caller must
    /// load it first).
    pub fn define(&mut self, cf: ClassFile) -> Result<ClassId, String> {
        let name = cf.name().map_err(|e| e.to_string())?.to_string();
        if self.by_name.contains_key(&name) {
            return Err(format!("class {name} already defined"));
        }
        let super_name = cf
            .super_name()
            .map_err(|e| e.to_string())?
            .map(str::to_string);
        let super_id = match &super_name {
            None => None,
            Some(s) => Some(
                self.lookup(s)
                    .ok_or_else(|| format!("superclass {s} not defined"))?,
            ),
        };
        let mut interfaces = Vec::new();
        for iname in cf.interface_names().map_err(|e| e.to_string())? {
            interfaces.push(
                self.lookup(iname)
                    .ok_or_else(|| format!("interface {iname} not defined"))?,
            );
        }
        let id = self.classes.len();
        // Statics get default values now; ConstantValue attributes are
        // applied by the loader after definition.
        let mut statics = HashMap::new();
        for f in &cf.fields {
            if f.access_flags & access::ACC_STATIC != 0 {
                statics.insert(
                    format!("{name}.{}", f.name),
                    Value::default_for(&f.descriptor),
                );
            }
        }
        let layout = InstanceLayout::extend(super_id.map(|s| &self.get(s).layout), &name, &cf);
        self.by_name.insert(name.clone(), id);
        self.classes.push(RuntimeClass {
            id,
            name: Rc::from(name),
            super_id,
            interfaces,
            cf: Some(cf),
            array_component: None,
            statics,
            layout,
            clinit: ClinitState::NotStarted,
            cp_cache: RefCell::new(HashMap::new()),
        });
        Ok(id)
    }

    /// Get or synthesize the array class named e.g. `"[I"` or
    /// `"[Ljava/lang/String;"`. `java/lang/Object` must be defined.
    pub fn ensure_array_class(&mut self, name: &str) -> Result<ClassId, String> {
        if let Some(id) = self.lookup(name) {
            return Ok(id);
        }
        if !name.starts_with('[') {
            return Err(format!("{name} is not an array class name"));
        }
        let object = self
            .lookup("java/lang/Object")
            .ok_or("java/lang/Object not defined")?;
        let component = component_name(name);
        let id = self.classes.len();
        self.by_name.insert(name.to_string(), id);
        self.classes.push(RuntimeClass {
            id,
            name: Rc::from(name),
            super_id: Some(object),
            interfaces: Vec::new(),
            cf: None,
            array_component: Some(component),
            statics: HashMap::new(),
            layout: InstanceLayout::default(),
            clinit: ClinitState::Initialized,
            cp_cache: RefCell::new(HashMap::new()),
        });
        Ok(id)
    }

    /// Resolve a method by walking the superclass chain, then
    /// interfaces (JVMS method resolution, §5.4.3.3-3.4 simplified).
    pub fn resolve_method(&self, class: ClassId, name: &str, desc: &str) -> Option<MethodRef> {
        // Superclass chain.
        let mut cur = Some(class);
        while let Some(id) = cur {
            let rc = self.get(id);
            if let Some(cf) = &rc.cf {
                if let Some(index) = cf
                    .methods
                    .iter()
                    .position(|m| m.name == name && m.descriptor == desc)
                {
                    return Some(MethodRef { class: id, index });
                }
            }
            cur = rc.super_id;
        }
        // Interfaces (breadth-first over the whole hierarchy).
        let mut queue: Vec<ClassId> = self.all_interfaces(class);
        let mut qi = 0;
        while qi < queue.len() {
            let id = queue[qi];
            qi += 1;
            let rc = self.get(id);
            if let Some(cf) = &rc.cf {
                if let Some(index) = cf
                    .methods
                    .iter()
                    .position(|m| m.name == name && m.descriptor == desc)
                {
                    return Some(MethodRef { class: id, index });
                }
            }
            for &i in &rc.interfaces {
                if !queue.contains(&i) {
                    queue.push(i);
                }
            }
        }
        None
    }

    /// Virtual dispatch: select the implementation of `(name, desc)`
    /// for a receiver of `runtime_class`.
    pub fn select_virtual(
        &self,
        runtime_class: ClassId,
        name: &str,
        desc: &str,
    ) -> Option<MethodRef> {
        self.resolve_method(runtime_class, name, desc)
    }

    fn all_interfaces(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut cur = Some(class);
        while let Some(id) = cur {
            let rc = self.get(id);
            for &i in &rc.interfaces {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
            cur = rc.super_id;
        }
        out
    }

    /// Resolve a field by walking the class, its interfaces, then the
    /// superclass chain (JVMS §5.4.3.2).
    pub fn resolve_field(&self, class: ClassId, name: &str) -> Option<ResolvedField> {
        let rc = self.get(class);
        if let Some(cf) = &rc.cf {
            if let Some(i) = cf.fields.iter().position(|f| f.name == name) {
                let f = &cf.fields[i];
                let is_static = f.access_flags & access::ACC_STATIC != 0;
                let (key, slot) = if is_static {
                    (Rc::from(format!("{}.{}", rc.name, name)), 0)
                } else {
                    // The own fields follow the inherited ones.
                    let inherited = rc.super_id.map_or(0, |s| self.get(s).layout.keys.len());
                    let before = cf.fields[..i]
                        .iter()
                        .filter(|f| f.access_flags & access::ACC_STATIC == 0)
                        .count();
                    let slot = inherited + before;
                    (rc.layout.keys[slot].clone(), slot)
                };
                return Some(ResolvedField {
                    class,
                    key,
                    slot,
                    descriptor: Rc::from(f.descriptor.as_str()),
                    default: Value::default_for(&f.descriptor),
                    is_static,
                });
            }
        }
        for &i in &rc.interfaces {
            if let Some(f) = self.resolve_field(i, name) {
                return Some(f);
            }
        }
        rc.super_id.and_then(|s| self.resolve_field(s, name))
    }

    /// Subtype test: can a value of class `sub` be assigned to
    /// `super_name`? Handles classes, interfaces, and array
    /// covariance.
    pub fn is_assignable(&self, sub: ClassId, super_name: &str) -> bool {
        let sub_rc = self.get(sub);
        if *sub_rc.name == *super_name || super_name == "java/lang/Object" {
            return true;
        }
        // Array covariance: [X assignable to [Y iff X assignable to Y.
        if let (Some(sc), Some(tc)) = (
            sub_rc.array_component.as_deref(),
            super_name.strip_prefix('['),
        ) {
            let target_component = component_of_descriptor(tc);
            if sc == target_component {
                return true;
            }
            if let Some(sid) = self.lookup(sc) {
                return self.is_assignable(sid, &target_component);
            }
            return false;
        }
        // Class chain.
        if let Some(sup) = sub_rc.super_id {
            if self.is_assignable(sup, super_name) {
                return true;
            }
        }
        // Interfaces.
        sub_rc
            .interfaces
            .iter()
            .any(|&i| self.is_assignable(i, super_name))
    }
}

/// Component type name of an array class name: `"[I"` → `"I"`? No —
/// `"[I"` → primitive int has no class; we name primitive components
/// by their descriptor (`"I"`), object components by their binary name.
fn component_name(array_name: &str) -> String {
    let rest = &array_name[1..];
    component_of_descriptor(rest)
}

fn component_of_descriptor(desc: &str) -> String {
    if let Some(obj) = desc.strip_prefix('L') {
        obj.trim_end_matches(';').to_string()
    } else {
        desc.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};

    fn define_object(reg: &mut ClassRegistry) -> ClassId {
        // java/lang/Object has no superclass: patch super_class to 0
        // after building (the builder always interns one).
        let mut b = ClassBuilder::new("java/lang/Object", "java/lang/Object");
        let mut m = MethodBuilder::new(access::ACC_PUBLIC, "<init>", "()V", 1);
        m.return_void();
        b.add_method(m);
        let mut cf = b.finish();
        cf.super_class = 0;
        reg.define(cf).unwrap()
    }

    fn simple_class(reg: &mut ClassRegistry, name: &str, super_name: &str) -> ClassId {
        let mut b = ClassBuilder::new(name, super_name);
        b.add_field(access::ACC_PRIVATE, "x", "I");
        b.add_field(access::ACC_STATIC, "count", "J");
        let mut m = MethodBuilder::new(access::ACC_PUBLIC, "get", "()I", 1);
        m.ldc_int(1);
        m.ireturn();
        b.add_method(m);
        reg.define(b.finish()).unwrap()
    }

    #[test]
    fn hierarchy_resolution() {
        let mut reg = ClassRegistry::new();
        let obj = define_object(&mut reg);
        let a = simple_class(&mut reg, "demo/A", "java/lang/Object");
        let b = {
            let builder = ClassBuilder::new("demo/B", "demo/A");
            reg.define(builder.finish()).unwrap()
        };
        // Method declared on A found from B.
        let m = reg.resolve_method(b, "get", "()I").unwrap();
        assert_eq!(m.class, a);
        // <init> found on Object from B.
        let init = reg.resolve_method(b, "<init>", "()V").unwrap();
        assert_eq!(init.class, obj);
        // Field resolution finds A's field from B, keyed by declarer.
        let f = reg.resolve_field(b, "x").unwrap();
        assert_eq!(&*f.key, "demo/A.x");
        assert!(!f.is_static);
        let s = reg.resolve_field(b, "count").unwrap();
        assert!(s.is_static);
        // Instance layout includes inherited fields, in the same slot.
        let layout = &reg.get(b).layout;
        assert_eq!(layout.keys, vec![Rc::from("demo/A.x")]);
        assert_eq!(&*layout.defaults, &[Value::Int(0)]);
        assert!(layout.holds(f.slot, &f.key));
        assert!(reg.get(a).layout.holds(f.slot, &f.key));
        assert!(!layout.holds(f.slot, &Rc::from("demo/A.x")));
        // Assignability.
        assert!(reg.is_assignable(b, "demo/A"));
        assert!(reg.is_assignable(b, "java/lang/Object"));
        assert!(!reg.is_assignable(a, "demo/B"));
    }

    #[test]
    fn layouts_put_inherited_fields_first_and_keep_their_slots() {
        let mut reg = ClassRegistry::new();
        define_object(&mut reg);
        let a = simple_class(&mut reg, "demo/A", "java/lang/Object");
        let mut b = ClassBuilder::new("demo/B", "demo/A");
        b.add_field(access::ACC_PUBLIC, "x", "J");
        b.add_field(access::ACC_STATIC, "s", "I");
        b.add_field(access::ACC_PUBLIC, "r", "Ljava/lang/Object;");
        let b = reg.define(b.finish()).unwrap();
        let mut c = ClassBuilder::new("demo/C", "demo/B");
        // A repeated name is one dictionary entry, defaulted by its last
        // declaration, at the slot of its first.
        c.add_field(access::ACC_PUBLIC, "d", "I");
        c.add_field(access::ACC_PUBLIC, "d", "D");
        let c = reg.define(c.finish()).unwrap();
        let layout = &reg.get(c).layout;
        let keys: Vec<&str> = layout.keys.iter().map(|k| &**k).collect();
        assert_eq!(
            keys,
            ["demo/A.x", "demo/B.x", "demo/B.r", "demo/C.d", "demo/C.d"]
        );
        assert_eq!(
            &*layout.defaults,
            &[
                Value::Int(0),
                Value::Long(0),
                Value::Ref(None),
                Value::Double(0.0),
                Value::Double(0.0)
            ]
        );
        // Each class's keys are shared by its subclasses, slot for slot.
        for (class, name, slot) in [(a, "x", 0), (b, "x", 1), (b, "r", 2), (c, "d", 3)] {
            let f = reg.resolve_field(class, name).unwrap();
            assert_eq!(f.slot, slot);
            assert!(layout.holds(slot, &f.key));
            assert!(!layout.holds(slot + 1, &f.key));
        }
        assert!(reg.get(c).layout.slot_of("demo/B.s").is_none());
        assert!(!reg.get(a).layout.holds(1, &reg.get(b).layout.keys[1]));
    }

    #[test]
    fn statics_get_defaults() {
        let mut reg = ClassRegistry::new();
        define_object(&mut reg);
        let a = simple_class(&mut reg, "demo/A", "java/lang/Object");
        assert_eq!(
            reg.get(a).statics.get("demo/A.count"),
            Some(&Value::Long(0))
        );
    }

    #[test]
    fn array_classes_synthesize_and_assign() {
        let mut reg = ClassRegistry::new();
        define_object(&mut reg);
        let a = simple_class(&mut reg, "demo/A", "java/lang/Object");
        let _b = {
            let builder = ClassBuilder::new("demo/B", "demo/A");
            reg.define(builder.finish()).unwrap()
        };
        let arr_b = reg.ensure_array_class("[Ldemo/B;").unwrap();
        let arr_a = reg.ensure_array_class("[Ldemo/A;").unwrap();
        assert_ne!(arr_a, arr_b);
        // Covariance: B[] assignable to A[] and to Object.
        assert!(reg.is_assignable(arr_b, "[Ldemo/A;"));
        assert!(reg.is_assignable(arr_b, "java/lang/Object"));
        assert!(!reg.is_assignable(arr_a, "[Ldemo/B;"));
        // Primitive arrays are invariant.
        let arr_i = reg.ensure_array_class("[I").unwrap();
        assert!(!reg.is_assignable(arr_i, "[J"));
        assert!(reg.is_assignable(arr_i, "[I"));
        let _ = a;
    }

    #[test]
    fn missing_super_is_an_error() {
        let mut reg = ClassRegistry::new();
        define_object(&mut reg);
        let b = ClassBuilder::new("demo/C", "demo/Missing");
        assert!(reg.define(b.finish()).is_err());
    }

    #[test]
    fn duplicate_definition_is_an_error() {
        let mut reg = ClassRegistry::new();
        define_object(&mut reg);
        simple_class(&mut reg, "demo/A", "java/lang/Object");
        let b = ClassBuilder::new("demo/A", "java/lang/Object");
        assert!(reg.define(b.finish()).is_err());
    }
}
