//! The cache-usage class vocabulary: [`Class`] and [`PerClass`].
//!
//! The paper's contract between operators and CAT is three classes —
//! (i) polluting, (ii) sensitive, (iii) mixed (Section V-B). Every layer
//! that speaks about a class — the engine's CUID, the occupancy probes,
//! the adaptive controller, the live mask table, admission limits,
//! `/stats` — uses this one enum, and everything held once per class is a
//! [`PerClass`]. Strings exist only where bytes leave the process
//! (metric label values, `/stats` keys, resctrl group names, the
//! occupancy-script grammar, CLI flags), always through
//! [`Class::label`] / [`Class::parse`].

/// One of the paper's three cache-usage classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Class (*i*): streams without reuse (the column scan); confined to
    /// a small LLC slice.
    Polluting,
    /// Class (*iii*): polluting or sensitive depending on the size of
    /// its hot structure (the FK join's bit vector).
    Mixed,
    /// Class (*ii*): reuse-heavy (grouped aggregation); the protected
    /// class.
    Sensitive,
}

impl Class {
    /// All classes in mask-layout order, bottom of the cache first. This
    /// is the [`index`](Class::index) order and the order of the
    /// controller-facing surfaces (`control.mask_ways`, plan details).
    pub const ALL: [Class; 3] = [Class::Polluting, Class::Mixed, Class::Sensitive];

    /// The paper's (*i*), (*ii*), (*iii*) numbering — the order
    /// `/stats` `admission.classes` is rendered in.
    pub const PAPER_ORDER: [Class; 3] = [Class::Polluting, Class::Sensitive, Class::Mixed];

    /// The wire label: metric label value, `/stats` key,
    /// occupancy-script class name.
    pub const fn label(self) -> &'static str {
        match self {
            Class::Polluting => "polluting",
            Class::Mixed => "mixed",
            Class::Sensitive => "sensitive",
        }
    }

    /// The class a wire label names; `None` for anything else.
    pub fn parse(label: &str) -> Option<Class> {
        Class::ALL.into_iter().find(|c| c.label() == label)
    }

    /// Position in [`Class::ALL`] — the slot of this class in a
    /// [`PerClass`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// One `T` per [`Class`], indexed by class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerClass<T>([T; 3]);

impl<T> PerClass<T> {
    /// The three values in [`Class::ALL`] order.
    pub const fn new(polluting: T, mixed: T, sensitive: T) -> Self {
        PerClass([polluting, mixed, sensitive])
    }

    /// Builds each class's value with `f`.
    pub fn from_fn(f: impl FnMut(Class) -> T) -> Self {
        PerClass(Class::ALL.map(f))
    }

    /// The value for `class`.
    pub fn get(&self, class: Class) -> &T {
        &self.0[class.index()]
    }

    /// Replaces the value for `class`.
    pub fn set(&mut self, class: Class, value: T) {
        self.0[class.index()] = value;
    }

    /// Applies `f` to every class's value.
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> PerClass<U> {
        PerClass::from_fn(|class| f(self.get(class)))
    }

    /// `(class, value)` pairs in [`Class::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Class, &T)> {
        Class::ALL.into_iter().zip(&self.0)
    }
}
