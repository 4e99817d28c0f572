//! The metric registry: each metric is declared once in a
//! [`metrics!`](crate::metrics) group — field name (also its `stats`
//! key), [`Kind`], help text — and both renderers, the `stats` reply
//! and the Prometheus exposition, walk the group's [`Readings`] instead
//! of spelling metrics out again. Recording never goes through the
//! registry: an update site is a relaxed atomic op on a named field.
//! The Prometheus family name is `fenestra_<group>_<key>`, plus
//! `_total` for counters; a declaration spells a name out only where it
//! breaks that rule.

use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::{Map, Value as Json};

use crate::histogram::{Histogram, HistogramSnapshot};

/// What a declared metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count: `AtomicU64`, Prometheus `counter`, `_total`.
    Counter,
    /// A point-in-time value: `AtomicU64`, Prometheus `gauge`.
    Gauge,
    /// A latency distribution: a [`Histogram`](crate::Histogram),
    /// shown in `stats` as `{count, p50, p90, p99, max, mean}`.
    Histogram,
    /// A `stats`-only value computed from other metrics of its group.
    /// It has no storage and no Prometheus family.
    Derived,
}

/// One declared metric.
#[derive(Debug)]
pub struct Metric {
    /// The field name, and the metric's key in the `stats` reply.
    pub key: &'static str,
    /// What it measures.
    pub kind: Kind,
    /// The Prometheus `# HELP` text.
    pub help: &'static str,
    /// The `<group>` of `fenestra_<group>_<key>`.
    pub group: &'static str,
    /// The full family name, for a metric whose name breaks the rule.
    pub name: Option<&'static str>,
    /// Whether the `stats` reply shows it (false: Prometheus only).
    pub in_stats: bool,
}

impl Metric {
    /// The Prometheus family name (`None` for a derived value).
    pub fn family(&self) -> Option<String> {
        match (self.kind, self.name) {
            (Kind::Derived, _) => None,
            (_, Some(name)) => Some(name.to_string()),
            (Kind::Counter, None) => Some(format!("fenestra_{}_{}_total", self.group, self.key)),
            _ => Some(format!("fenestra_{}_{}", self.group, self.key)),
        }
    }
}

/// One metric's value, read at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum Reading {
    /// A counter or gauge.
    Value(u64),
    /// A histogram.
    Hist(Box<HistogramSnapshot>),
    /// A derived `stats` value.
    Json(Json),
}

/// A point-in-time read of one declared group: each metric with its
/// value, in declaration order.
#[derive(Debug, Clone, Default)]
pub struct Readings(pub Vec<(&'static Metric, Reading)>);

impl Readings {
    /// Pair each declared metric with its value.
    pub fn new(metrics: &'static [Metric], values: Vec<Reading>) -> Readings {
        debug_assert_eq!(metrics.len(), values.len());
        Readings(metrics.iter().zip(values).collect())
    }

    /// Fold another read of the same group into this one: counters,
    /// gauges and histograms add up; derived values keep this side's.
    pub fn merge(&mut self, other: &Readings) {
        for ((_, mine), (_, theirs)) in self.0.iter_mut().zip(&other.0) {
            match (mine, theirs) {
                (Reading::Value(a), Reading::Value(b)) => *a += b,
                (Reading::Hist(a), Reading::Hist(b)) => a.merge(b),
                _ => {}
            }
        }
    }

    /// Append this group's `stats` entries to `obj`, in declaration
    /// order.
    pub fn write_json(&self, obj: &mut Map<String, Json>) {
        for (metric, reading) in &self.0 {
            if !metric.in_stats {
                continue;
            }
            let value = match reading {
                Reading::Value(v) => Json::from(*v),
                Reading::Hist(h) => h.json_summary(),
                Reading::Json(j) => j.clone(),
            };
            obj.insert(metric.key.into(), value);
        }
    }

    /// The group as its `stats` JSON object.
    pub fn json(&self) -> Json {
        let mut obj = Map::new();
        self.write_json(&mut obj);
        Json::Object(obj)
    }
}

/// How the [`metrics!`] readers read a metric's storage.
#[doc(hidden)]
pub trait Read {
    /// The current value.
    fn read(&self) -> Reading;
}

impl Read for AtomicU64 {
    fn read(&self) -> Reading {
        Reading::Value(self.load(Ordering::Relaxed))
    }
}

impl Read for Histogram {
    fn read(&self) -> Reading {
        Reading::Hist(Box::new(self.snapshot()))
    }
}

/// The storage type of each [`Kind`], named after its variant.
#[doc(hidden)]
pub mod storage {
    pub use crate::Histogram;
    /// A counter's storage.
    pub type Counter = std::sync::atomic::AtomicU64;
    /// A gauge's storage.
    pub type Gauge = std::sync::atomic::AtomicU64;
}

/// Declare a group of metrics once and generate everything that
/// follows from the declaration.
///
/// Three forms. A struct of atomics, read in one or more sections:
///
/// ```
/// fenestra_obs::metrics! {
///     /// Front-door counters.
///     pub struct Door {
///         fn readings in "door" {
///             /// Counted at accept.
///             accepted: Counter "Connections accepted",
///             open: Gauge "Connections currently open",
///             wait_us: Histogram as "fenestra_wait_us" "Time waiting (microseconds)",
///             busy: derived Door::busy,
///         }
///     }
/// }
/// impl Door {
///     fn busy(&self) -> serde_json::Value {
///         (self.open.load(std::sync::atomic::Ordering::Relaxed) > 0).into()
///     }
/// }
/// let door = Door::default();
/// door.accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(
///     door.readings().json().to_string(),
///     r#"{"accepted":1,"open":0,"wait_us":{"count":0,"p50":0,"p90":0,"p99":0,"max":0,"mean":0.0},"busy":false}"#
/// );
/// ```
///
/// Each section `fn name in "group"` becomes a reader method `name`.
/// An entry is `key: Kind "help"`, optionally with `as "family"`
/// before the help for a Prometheus name that breaks the rule, or with
/// `prom_only` to keep the metric out of `stats`. `key: Kind at a.b
/// "help"` reads storage that lives in a nested struct. `key: derived
/// f` computes a `stats`-only value with `f(&self) ->
/// serde_json::Value`. Fields after the sections are carried along.
/// The struct derives `Debug` and `Default`; a field's doc is its help
/// text, then the doc comments written on the entry.
///
/// A struct of plain `u64`s with `merge` and `readings`, plus an
/// atomic mirror with `store(&Plain)` and `load() -> Plain`:
///
/// ```text
/// pub struct Plain in "group" mirrored by Atomic { key: Counter "help", … }
/// ```
///
/// A reader for a plain struct declared elsewhere:
///
/// ```text
/// pub fn reader(Type) in "group" { field: Counter "help", … }
/// ```
#[macro_export]
macro_rules! metrics {
    (
        $(#[$pm:meta])*
        pub struct $plain:ident in $group:literal mirrored by
        $(#[$am:meta])* $mirror:ident {
            $( $(#[$fm:meta])* $f:ident: $kind:ident $help:literal, )*
        }
    ) => {
        $(#[$pm])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $plain {
            $( #[doc = $help] #[doc = ""] $(#[$fm])* pub $f: u64, )*
        }

        impl $plain {
            /// Fold another copy into this one (every field adds).
            pub fn merge(&mut self, other: &$plain) {
                $( self.$f += other.$f; )*
            }

            /// Every declared metric with its value.
            pub fn readings(&self) -> $crate::Readings {
                $crate::Readings::new(
                    &[ $( $crate::__metric!($f $kind $group $help, None, true), )* ],
                    vec![ $( $crate::Reading::Value(self.$f), )* ],
                )
            }
        }

        $(#[$am])*
        #[derive(Debug, Default)]
        pub struct $mirror {
            $( $f: ::std::sync::atomic::AtomicU64, )*
        }

        impl $mirror {
            /// Publish a fresh copy (relaxed stores).
            pub fn store(&self, m: &$plain) {
                $( self.$f.store(m.$f, ::std::sync::atomic::Ordering::Relaxed); )*
            }

            /// The last published copy (relaxed loads).
            pub fn load(&self) -> $plain {
                $plain { $( $f: self.$f.load(::std::sync::atomic::Ordering::Relaxed), )* }
            }
        }
    };

    (
        $(#[$dm:meta])*
        $vis:vis fn $reader:ident($ty:ty) in $group:literal {
            $( $f:ident: $kind:ident $help:literal, )*
        }
    ) => {
        $(#[$dm])*
        $vis fn $reader(m: &$ty) -> $crate::Readings {
            $crate::Readings::new(
                &[ $( $crate::__metric!($f $kind $group $help, None, true), )* ],
                vec![ $( $crate::Reading::Value(m.$f), )* ],
            )
        }
    };

    (
        $(#[$sm:meta])*
        pub struct $name:ident {
            $( fn $sec:ident in $group:literal { $($body:tt)* } )+
            $( $(#[$xm:meta])* pub $xf:ident: $xt:ty, )*
        }
    ) => {
        $crate::__metrics_atomic! {
            @sections [$(#[$sm])*] $name [ $( $(#[$xm])* pub $xf: $xt, )* ] []
            [ $( [$sec $group { $($body)* }] )+ ]
        }
    };
}

/// Internal to [`metrics!`]: builds an atomic struct one section, and
/// within it one entry, at a time. The state is the struct's head and
/// name, its fields so far, its reader methods so far and the sections
/// left; within a section, also the section's name and group and its
/// metrics and their reads so far.
#[doc(hidden)]
#[macro_export]
macro_rules! __metrics_atomic {
    (@sections [$($head:tt)*] $name:ident [$($fields:tt)*] [$($methods:tt)*] []) => {
        $($head)*
        #[derive(Debug, Default)]
        pub struct $name { $($fields)* }

        impl $name { $($methods)* }
    };

    (
        @sections $head:tt $name:ident $fields:tt $methods:tt
        [ [$sec:ident $group:literal { $($body:tt)* }] $($secs:tt)* ]
    ) => {
        $crate::__metrics_atomic! {
            @entries [$head $name $methods [$($secs)*] $sec] $group $fields [] [] $($body)*
        }
    };

    // Section done: add its reader.
    (
        @entries [$head:tt $name:ident [$($methods:tt)*] $secs:tt $sec:ident] $group:literal
        $fields:tt [$($metrics:tt)*] [$( ($($read:tt)*) )*]
    ) => {
        $crate::__metrics_atomic! {
            @sections $head $name $fields [
                $($methods)*
                #[doc = concat!("Read the `", $group, "` metrics, in declaration order.")]
                pub fn $sec(&self) -> $crate::Readings {
                    $crate::Readings::new(
                        &[$($metrics)*],
                        vec![ $( $crate::__read!(self $($read)*), )* ],
                    )
                }
            ] $secs
        }
    };

    (
        @entries $ctx:tt $group:literal $fields:tt [$($metrics:tt)*] [$($reads:tt)*]
        $(#[$m:meta])* $f:ident: derived $fun:path, $($rest:tt)*
    ) => {
        $crate::__metrics_atomic! {
            @entries $ctx $group $fields
            [$($metrics)* $crate::__metric!($f Derived $group "", None, true),]
            [$($reads)* (@ $fun)] $($rest)*
        }
    };

    (
        @entries $ctx:tt $group:literal $fields:tt [$($metrics:tt)*] [$($reads:tt)*]
        $(#[$m:meta])* $f:ident: $kind:ident at $($p:ident).+ $help:literal, $($rest:tt)*
    ) => {
        $crate::__metrics_atomic! {
            @entries $ctx $group $fields
            [$($metrics)* $crate::__metric!($f $kind $group $help, None, true),]
            [$($reads)* ($($p).+)] $($rest)*
        }
    };

    (
        @entries $ctx:tt $group:literal $fields:tt $metrics:tt $reads:tt
        $(#[$m:meta])* $f:ident: $kind:ident prom_only $help:literal, $($rest:tt)*
    ) => {
        $crate::__metrics_atomic! {
            @field $ctx $group $fields $metrics $reads
            [$(#[$m])* $f $kind $help, None, false] $($rest)*
        }
    };

    (
        @entries $ctx:tt $group:literal $fields:tt $metrics:tt $reads:tt
        $(#[$m:meta])* $f:ident: $kind:ident as $fam:literal $help:literal, $($rest:tt)*
    ) => {
        $crate::__metrics_atomic! {
            @field $ctx $group $fields $metrics $reads
            [$(#[$m])* $f $kind $help, Some($fam), true] $($rest)*
        }
    };

    (
        @entries $ctx:tt $group:literal $fields:tt $metrics:tt $reads:tt
        $(#[$m:meta])* $f:ident: $kind:ident $help:literal, $($rest:tt)*
    ) => {
        $crate::__metrics_atomic! {
            @field $ctx $group $fields $metrics $reads
            [$(#[$m])* $f $kind $help, None, true] $($rest)*
        }
    };

    // An entry with a field of its own.
    (
        @field $ctx:tt $group:literal [$($fields:tt)*] [$($metrics:tt)*] [$($reads:tt)*]
        [$(#[$m:meta])* $f:ident $kind:ident $help:literal, $name:expr, $in_stats:expr]
        $($rest:tt)*
    ) => {
        $crate::__metrics_atomic! {
            @entries $ctx $group
            [$($fields)* #[doc = $help] #[doc = ""] $(#[$m])* pub $f: $crate::storage::$kind,]
            [$($metrics)* $crate::__metric!($f $kind $group $help, $name, $in_stats),]
            [$($reads)* ($f)] $($rest)*
        }
    };
}

/// Internal to [`metrics!`]: one [`Metric`] literal.
#[doc(hidden)]
#[macro_export]
macro_rules! __metric {
    ($f:ident $kind:ident $group:literal $help:literal, $name:expr, $in_stats:expr) => {
        $crate::Metric {
            key: stringify!($f),
            kind: $crate::Kind::$kind,
            help: $help,
            group: $group,
            name: $name,
            in_stats: $in_stats,
        }
    };
}

/// Internal to [`metrics!`]: one read, of storage at a path or of a
/// derived value (`@ f`).
#[doc(hidden)]
#[macro_export]
macro_rules! __read {
    ($s:tt @ $fun:path) => {
        $crate::Reading::Json($fun($s))
    };
    ($s:tt $($p:ident).+) => {
        $crate::Read::read(&$s.$($p).+)
    };
}
