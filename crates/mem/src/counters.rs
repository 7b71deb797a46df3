//! The counter-registry machinery: a statistics struct declared as a
//! table of rows, one row per `u64` counter.
//!
//! [`counters!`](crate::counters!) turns a row list into the struct, its
//! `merge`/`checked_add`/`delta`, and a `&[Counter<Struct>]` table that
//! consumers walk instead of naming fields: the store codec, the interval
//! sampler and `exp report`. The memory side declares [`CacheStats`],
//! [`DramStats`] and [`XbarStats`] this way; the simulator declares its
//! per-core `CoreStats` with the same macro.
//!
//! A row reads `field: "since"`, where `since` is the store schema
//! version that introduced the field (fields since `"1.0"` are required
//! when decoding; later ones decode as 0 when absent), then optionally:
//!
//! - `stall(short, "Label")`: a stall-taxonomy category, called `short` in
//!   the simulator's `StallBreakdown` and `Label` in reports; its interval
//!   delta is sampled under the field name;
//! - `sampled`: the interval delta is sampled under the field name;
//! - `sampled per_core(name)`: it is sampled as a per-core, per-cycle mean
//!   under `name`.
//!
//! **Adding a counter** is one row at the end of its table plus the
//! increment at its source; the codec carries it under its name.
//!
//! [`CacheStats`]: crate::CacheStats
//! [`DramStats`]: crate::DramStats
//! [`XbarStats`]: crate::XbarStats

/// How a counter appears in the interval outputs (`intervals.csv` and the
/// JSONL sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sample {
    /// Not sampled.
    No,
    /// The interval's delta, under the counter's name.
    Delta,
    /// The interval's delta divided by cycles × cores, under this name.
    PerCoreMean(&'static str),
}

/// One row of a counter table over the struct `S`.
#[derive(Debug)]
pub struct Counter<S> {
    /// The field name, which is also its store key.
    pub name: &'static str,
    /// Store schema version that introduced the field.
    pub since: &'static str,
    /// How the interval outputs show it.
    pub sample: Sample,
    /// The stall-taxonomy label, for taxonomy rows.
    pub stall: Option<&'static str>,
    /// Reads the field.
    pub get: fn(&S) -> u64,
    /// Borrows the field mutably.
    pub get_mut: fn(&mut S) -> &mut u64,
}

/// `n / d`, or 0 when `d` is 0.
pub fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Declares a counter table, `pub struct Name in TABLE { rows }` after the
/// struct's doc and derives (see the [module docs](self) for the rows).
/// With `in TABLE with callback`, the local macro `callback!` also receives
/// the rewritten rows, so a crate can generate more items from one table.
///
/// The `@rows` rules rewrite each row into one shape,
/// `[attrs] field short since (sample) (stall) [label]`, and `@gen`
/// generates every item from the rewritten rows.
#[macro_export]
macro_rules! counters {
    (@rows $head:tt [$($d:tt)*]) => { $crate::counters!(@gen $head $($d)*); };
    (@rows $head:tt [$($d:tt)*] $(#[$m:meta])* $f:ident: $v:literal, stall($b:ident, $l:literal);
        $($r:tt)*) => {
        $crate::counters!(@rows $head [$($d)* [$(#[$m])*] $f $b $v
            ($crate::counters::Sample::Delta) (Some($l)) [$l]] $($r)*);
    };
    (@rows $head:tt [$($d:tt)*] $(#[$m:meta])* $f:ident: $v:literal, sampled per_core($n:ident);
        $($r:tt)*) => {
        $crate::counters!(@rows $head [$($d)* [$(#[$m])*] $f $f $v
            ($crate::counters::Sample::PerCoreMean(stringify!($n))) (None) []] $($r)*);
    };
    (@rows $head:tt [$($d:tt)*] $(#[$m:meta])* $f:ident: $v:literal, sampled; $($r:tt)*) => {
        $crate::counters!(@rows $head [$($d)* [$(#[$m])*] $f $f $v
            ($crate::counters::Sample::Delta) (None) []] $($r)*);
    };
    (@rows $head:tt [$($d:tt)*] $(#[$m:meta])* $f:ident: $v:literal; $($r:tt)*) => {
        $crate::counters!(@rows $head [$($d)* [$(#[$m])*] $f $f $v
            ($crate::counters::Sample::No) (None) []] $($r)*);
    };
    (@gen ([$($sm:tt)*] $name:ident $table:ident ($cb:ident)) $($rows:tt)*) => {
        $crate::counters!(@gen ([$($sm)*] $name $table ()) $($rows)*);
        $cb! { $($rows)* }
    };
    (@gen ([$(#[$sm:meta])*] $name:ident $table:ident ())
        $([$(#[$m:meta])*] $f:ident $bd:ident $since:literal ($sample:expr) ($stall:expr)
        [$($label:literal)?])*) => {
        $(#[$sm])*
        pub struct $name {
            $($(#[$m])* pub $f: u64,)*
        }

        impl $name {
            /// Adds `other` counter by counter.
            pub fn merge(&mut self, other: &$name) {
                $(self.$f += other.$f;)*
            }

            /// `self + other` counter by counter, or `None` when any sum
            /// overflows (for counters read from outside input).
            pub fn checked_add(&self, other: &$name) -> Option<$name> {
                Some($name { $($f: self.$f.checked_add(other.$f)?,)* })
            }

            /// `self - earlier`, counter by counter.
            pub fn delta(&self, earlier: &$name) -> $name {
                $name { $($f: self.$f - earlier.$f,)* }
            }
        }

        #[doc = concat!("Every [`", stringify!($name), "`] counter, in table order (also the \
            store's field order).")]
        pub const $table: &[$crate::counters::Counter<$name>] = &[$($crate::counters::Counter {
            name: stringify!($f),
            since: $since,
            sample: $sample,
            stall: $stall,
            get: |s| s.$f,
            get_mut: |s| &mut s.$f,
        },)*];
    };
    ($(#[$sm:meta])* pub struct $name:ident in $table:ident $(with $cb:ident)?
        { $($rows:tt)* }) => {
        $crate::counters!(@rows ([$(#[$sm])*] $name $table ($($cb)?)) [] $($rows)*);
    };
}
