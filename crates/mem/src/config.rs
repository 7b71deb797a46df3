//! The config-table machinery: [`config!`](crate::config!) turns rows into
//! the plain struct, a `&[Knob]` table and a [`Config`] walk that `check`,
//! the store codec and E1 use instead of naming fields. A row is a doc
//! comment, whose first line describes the knob, then `name: type in
//! lo..=hi;` (a `u32`, `u64`, `usize` or `bool` knob) or `name: Type;` (a
//! nested config); a row without a doc or a leaf without a range does not
//! compile. **Adding a knob** is one row plus its value in each preset.

use std::ops::RangeInclusive;

/// One row of a config table.
#[derive(Debug)]
pub struct Knob {
    /// The field name, which is also its store key.
    pub name: &'static str,
    /// The first line of the field's doc comment.
    pub doc: &'static str,
    /// A leaf's valid range, widened (a `bool` is 0..=1); `None` if nested.
    pub range: Option<RangeInclusive<u64>>,
}

/// A leaf knob's value: every integer type widens to `Int`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A `u32`, `u64` or `usize` knob.
    Int(u64),
    /// A `bool` knob.
    Bool(bool),
}

/// A leaf knob's type, read and written as a [`Value`].
pub trait Leaf {
    /// The current value.
    fn value(&self) -> Value;
    /// Stores `v`, or returns `false` if it does not fit the type.
    fn set(&mut self, v: Value) -> bool;
}

macro_rules! leaf {
    ($($t:ty => $var:ident($w:ty)),*) => {$(
        impl Leaf for $t {
            fn value(&self) -> Value { Value::$var(*self as $w) }
            fn set(&mut self, v: Value) -> bool {
                let Value::$var(x) = v else { return false };
                <$t>::try_from(x).map(|x| *self = x).is_ok()
            }
        }
    )*};
}
leaf!(u32 => Int(u64), u64 => Int(u64), usize => Int(u64), bool => Bool(bool));

/// A config field, borrowed: a [`Leaf`] knob or a nested [`Config`].
pub enum Field<L, C> {
    /// A leaf knob.
    Leaf(L),
    /// A nested config.
    Nested(C),
}

/// Every row of a config with its field, in table order.
pub type Fields<'a> = Vec<(&'static Knob, Field<&'a dyn Leaf, &'a dyn Config>)>;
/// As [`Fields`], for writing.
pub type FieldsMut<'a> = Vec<(&'static Knob, Field<&'a mut dyn Leaf, &'a mut dyn Config>)>;

/// A config struct declared with [`config!`](crate::config!).
pub trait Config {
    /// Every row with its field, in table order.
    fn fields(&self) -> Fields<'_>;
    /// As [`fields`](Config::fields), for writing.
    fn fields_mut(&mut self) -> FieldsMut<'_>;
    /// The cross-field rules, tested once every range holds.
    fn rules(&self) -> Result<(), String>;

    /// Tests every knob against its range in table order, nested configs
    /// included, then the cross-field rules.
    ///
    /// # Errors
    ///
    /// The first failure, prefixed with the nested config's path
    /// (`fabric.dram.banks must be 1..=64`).
    fn check(&self) -> Result<(), String> {
        for (k, f) in self.fields() {
            match f {
                Field::Leaf(l) => match (l.value(), &k.range) {
                    (Value::Int(n), Some(r)) if !r.contains(&n) => {
                        return Err(format!("{} must be {r:?}", k.name));
                    }
                    _ => {}
                },
                Field::Nested(n) => n.check().map_err(|e| format!("{}.{e}", k.name))?,
            }
        }
        self.rules()
    }
}

/// `Ok` if `holds`, else `msg`: one cross-field rule.
pub fn rule(holds: bool, msg: &str) -> Result<(), String> {
    holds.then_some(()).ok_or_else(|| msg.to_string())
}

/// Every leaf knob of `c` under its dotted path (`fabric.dram.banks`).
pub fn leaves(c: &dyn Config) -> Vec<(String, &'static Knob, Value)> {
    c.fields()
        .into_iter()
        .flat_map(|(k, f)| match f {
            Field::Leaf(l) => vec![(k.name.to_string(), k, l.value())],
            Field::Nested(n) => leaves(n)
                .into_iter()
                .map(|(path, leaf, v)| (format!("{}.{path}", k.name), leaf, v))
                .collect(),
        })
        .collect()
}

/// Declares a config table, `pub struct Name in TABLE, rules f { rows }`
/// after the struct's doc and derives (see the [module docs](self)); `f`
/// is a `fn(&Name) -> Result<(), String>` holding the cross-field rules.
#[macro_export]
macro_rules! config {
    (@range $t:ident $r:expr) => {{
        let r: ::std::ops::RangeInclusive<$t> = $r;
        Some(*r.start() as u64..=*r.end() as u64)
    }};
    (@range $t:ident) => { None };
    (@field $($m:ident)? ($s:expr) $r:expr) => {
        $crate::config::Field::Leaf(&$($m)? $s as &$($m)? dyn $crate::config::Leaf)
    };
    (@field $($m:ident)? ($s:expr)) => {
        $crate::config::Field::Nested(&$($m)? $s as &$($m)? dyn $crate::config::Config)
    };
    ($(#[$sm:meta])* pub struct $name:ident in $table:ident, rules $rules:ident {
        $(#[doc = $doc:literal] $(#[doc = $more:literal])* $f:ident: $t:ident $(in $r:expr)?;)*
    }) => {
        $(#[$sm])*
        pub struct $name {
            $(#[doc = $doc] $(#[doc = $more])* pub $f: $t,)*
        }

        #[doc = concat!("Every [`", stringify!($name), "`] knob, in table and store order.")]
        pub const $table: &[$crate::config::Knob] = &[$($crate::config::Knob {
            name: stringify!($f),
            doc: $doc,
            range: $crate::config!(@range $t $($r)?),
        },)*];

        impl $name {
            /// Panics with the message of `check` if the configuration is invalid.
            pub fn validate(&self) {
                $crate::config::Config::check(self).unwrap_or_else(|e| panic!("{e}"));
            }
        }

        impl $crate::config::Config for $name {
            fn fields(&self) -> $crate::config::Fields<'_> {
                $table.iter().zip([$($crate::config!(@field (self.$f) $($r)?)),*]).collect()
            }
            fn fields_mut(&mut self) -> $crate::config::FieldsMut<'_> {
                $table.iter().zip([$($crate::config!(@field mut (self.$f) $($r)?)),*]).collect()
            }
            fn rules(&self) -> Result<(), String> {
                $rules(self)
            }
        }
    };
}

/// The row grammar's compile-time checks, run as doctests. A table that
/// compiles:
///
/// ```
/// gpgpu_mem::config! {
///     /// A queue.
///     #[derive(Debug, Clone)]
///     pub struct QueueConfig in QUEUE_KNOBS, rules queue_rules {
///         /// Entries.
///         len: u32 in 1..=64;
///         /// Entries refused before the queue is reported full.
///         slack: u32 in 0..=64;
///     }
/// }
/// fn queue_rules(q: &QueueConfig) -> Result<(), String> {
///     if q.slack > q.len {
///         return Err("slack exceeds len".into());
///     }
///     Ok(())
/// }
/// use gpgpu_mem::Config;
/// assert_eq!(QueueConfig { len: 0, slack: 0 }.check().unwrap_err(), "len must be 1..=64");
/// assert_eq!(QueueConfig { len: 8, slack: 9 }.check().unwrap_err(), "slack exceeds len");
/// assert_eq!(QUEUE_KNOBS[1].name, "slack");
/// ```
///
/// A row without a doc comment does not compile:
///
/// ```compile_fail
/// gpgpu_mem::config! {
///     /// A queue.
///     pub struct QueueConfig in QUEUE_KNOBS, rules queue_rules {
///         len: u32 in 1..=64;
///     }
/// }
/// fn queue_rules(_: &QueueConfig) -> Result<(), String> { Ok(()) }
/// ```
///
/// Nor does a leaf without a range, since `u32` is no nested config:
///
/// ```compile_fail
/// gpgpu_mem::config! {
///     /// A queue.
///     pub struct QueueConfig in QUEUE_KNOBS, rules queue_rules {
///         /// Entries.
///         len: u32;
///     }
/// }
/// fn queue_rules(_: &QueueConfig) -> Result<(), String> { Ok(()) }
/// ```
#[cfg(doctest)]
pub struct RowGrammar;
