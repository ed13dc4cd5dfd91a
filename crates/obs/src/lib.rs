//! Deterministic observability for the AIDE pipeline: metrics and spans.
//!
//! A zero-dependency (std-only, mirroring how `aide_util::sync`
//! replaced parking_lot) registry of **counters**, **gauges**, and
//! fixed-bucket **histograms**, plus lightweight **span** records driven
//! by the repository's virtual clock. It has two jobs:
//!
//! 1. **Cost nothing when off.** Instrumentation sites record through
//!    typed handles ([`Counter`], [`Gauge`], [`Histogram`], usually via
//!    the [`counter!`], [`gauge!`] and [`observe!`] macros) and through
//!    [`span`]. With no subscriber installed each site is a single
//!    relaxed atomic load and an immediate return, and every report,
//!    diff, and experiment output stays byte-identical to an
//!    uninstrumented build.
//! 2. **Be deterministic when on.** All recorded quantities are derived
//!    from deterministic work (token counts, DP cells, retry backoff
//!    computed from seeded jitter, virtual-clock seconds) — never from
//!    wall-clock time — so two same-seed runs produce *identical*
//!    snapshots, and exports are rendered in sorted order so the
//!    serialized form is byte-identical too. This is the same
//!    replayability contract the simulated web and the fault planner
//!    already obey.
//!
//! # Architecture
//!
//! The global subscriber follows the `log`/`tracing` pattern: a process
//! holds at most one [`MetricsRegistry`] installed via [`install`]. A
//! handle resolves its name to a slot in a process-wide table once;
//! every registry is one fixed array of atomics indexed by slot, so a
//! record with a subscriber installed is the enabled load, a
//! thread-local check of the cached registry and one atomic add — no
//! lock, no string hash. Stat structs hold [`CounterCell`]s, which also
//! keep a per-instance total. Tests wanting isolation record into a
//! private registry ([`MetricsRegistry::add`] and friends).
//!
//! Because this crate must sit *below* `aide-util` in the dependency
//! graph (everything links it), it cannot see the virtual `Clock` type;
//! span timestamps are plain `u64` seconds that callers read off their
//! own clock handle (`clock.now_secs()`).
//!
//! # Example
//!
//! ```
//! use aide_obs::MetricsRegistry;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let previous = aide_obs::install(registry.clone());
//! aide_obs::counter!("demo.widgets", 3);
//! aide_obs::observe!("demo.sizes", 42);
//! aide_obs::span("demo.run", 100, 160);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["demo.widgets"], 3);
//! assert_eq!(snap.histograms["demo.sizes"].count, 1);
//! aide_obs::uninstall();
//! # let _ = previous;
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

/// Default histogram bucket upper bounds: roughly exponential, wide
/// enough for token counts, DP cell counts, and backoff seconds alike.
pub const DEFAULT_BOUNDS: &[u64] = &[
    1, 2, 4, 8, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 1_048_576,
];

/// A completed span: a named interval on the virtual timeline.
///
/// Spans nest by dotted name (`aide.run_tracker` contains
/// `w3newer.run`); the hierarchy is a naming convention, not a pointer
/// graph, which keeps recording allocation-light and export trivially
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanEvent {
    /// Dotted span name, e.g. `w3newer.run`.
    pub name: String,
    /// Virtual-clock second the span started at.
    pub start_secs: u64,
    /// Virtual-clock second the span ended at (CPU-only spans end at
    /// their start second — the virtual clock does not advance for
    /// computation, only for simulated waiting).
    pub end_secs: u64,
}

/// A fixed-bucket histogram's storage: monotone upper bounds, one
/// count per bucket plus an overflow bucket, and a running sum. The
/// total count is the buckets' sum, so a record is two atomic adds.
#[derive(Debug)]
struct Buckets {
    /// Strictly increasing bucket upper bounds (inclusive).
    bounds: &'static [u64],
    /// One counter per bound, the overflow bucket, then the sum.
    cells: Box<[AtomicU64]>,
}

impl Buckets {
    fn new(bounds: &'static [u64]) -> Buckets {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let cells = (0..bounds.len() + 2).map(|_| AtomicU64::new(0)).collect();
        Buckets { bounds, cells }
    }

    fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.cells[idx].fetch_add(1, Ordering::Relaxed);
        self.cells[self.bounds.len() + 1].fetch_add(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<u64> = self
            .cells
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let sum = buckets.pop().unwrap_or(0);
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            count: buckets.iter().sum(),
            buckets,
            sum,
        }
    }
}

/// Plain-value view of one histogram, produced by
/// [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Strictly increasing bucket upper bounds (inclusive).
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `buckets.len() == bounds.len() + 1`,
    /// the last entry counting observations above every bound.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// observation (`0.0 ..= 1.0`), zero when empty. Observations in
    /// the overflow bucket report the last finite bound — quantiles
    /// from a bucketed histogram are resolution-limited by
    /// construction, and a saturated top bucket means "at least this".
    /// Deterministic: pure integer walk over the snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // ceil(q * count), clamped to [1, count]: the rank of the
        // observation the quantile names.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return self
                    .bounds
                    .get(i)
                    .or(self.bounds.last())
                    .copied()
                    .unwrap_or(0);
            }
        }
        self.bounds.last().copied().unwrap_or(0)
    }
}

/// Plain-value snapshot of an entire registry: `BTreeMap`s so iteration
/// (and therefore every export) is in sorted, deterministic order, and
/// spans sorted by `(name, start, end)` so worker interleaving cannot
/// perturb the serialized form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Monotone event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins occupancy values, set where they change.
    pub gauges: BTreeMap<String, u64>,
    /// Distributions of per-event quantities.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Completed spans, sorted.
    pub spans: Vec<SpanEvent>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as sorted plain text, one metric per line:
    ///
    /// ```text
    /// counter w3newer.url.changed 3
    /// gauge snapshot.page_cache.entries 17
    /// histogram htmldiff.tokenize.tokens count=4 sum=5120 mean=1280 buckets=[...]
    /// span w3newer.run 100..160
    /// ```
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} sum={} mean={} buckets=[",
                h.count,
                h.sum,
                h.mean()
            ));
            for (i, (bound, n)) in h.bounds.iter().zip(&h.buckets).enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("le{bound}:{n}"));
            }
            if !h.bounds.is_empty() {
                out.push(' ');
            }
            out.push_str(&format!(
                "inf:{}]\n",
                h.buckets.last().copied().unwrap_or(0)
            ));
        }
        for s in &self.spans {
            out.push_str(&format!(
                "span {} {}..{}\n",
                s.name, s.start_secs, s.end_secs
            ));
        }
        out
    }

    /// Renders the snapshot as a deterministic JSON document (sorted
    /// keys, no whitespace dependence on insertion order). Metric names
    /// are dotted identifiers; arbitrary strings are escaped anyway.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_map(
            &mut out,
            self.counters
                .iter()
                .map(|(k, v)| (k.as_str(), v.to_string())),
        );
        out.push_str("},\n  \"gauges\": {");
        push_map(
            &mut out,
            self.gauges.iter().map(|(k, v)| (k.as_str(), v.to_string())),
        );
        out.push_str("},\n  \"histograms\": {");
        push_map(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                let bounds: Vec<String> = h.bounds.iter().map(u64::to_string).collect();
                let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
                (
                    k.as_str(),
                    format!(
                        "{{\"count\": {}, \"sum\": {}, \"bounds\": [{}], \"buckets\": [{}]}}",
                        h.count,
                        h.sum,
                        bounds.join(", "),
                        buckets.join(", ")
                    ),
                )
            }),
        );
        out.push_str("},\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"start\": {}, \"end\": {}}}",
                json_string(&s.name),
                s.start_secs,
                s.end_secs
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, String)>) {
    let mut first = true;
    let mut any = false;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        any = true;
        out.push_str(&format!("\n    {}: {v}", json_string(k)));
    }
    if any {
        out.push_str("\n  ");
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// Slots in every registry: the most distinct metrics one process can
/// record.
const SLOTS: usize = 512;
const UNRESOLVED: u32 = u32::MAX;

/// Process-wide slot table: entry `i` names slot `i` of every registry.
/// Append-only, so a resolved slot never moves.
static NAMES: Mutex<Vec<(&'static str, Kind)>> = Mutex::new(Vec::new());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A metric name and kind plus its slot, resolved on first use.
#[derive(Debug)]
struct Key {
    name: &'static str,
    kind: Kind,
    slot: AtomicU32,
}

impl Key {
    const fn new(name: &'static str, kind: Kind) -> Key {
        let slot = AtomicU32::new(UNRESOLVED);
        Key { name, kind, slot }
    }

    #[inline]
    fn slot(&self) -> usize {
        match self.slot.load(Ordering::Relaxed) {
            UNRESOLVED => self.resolve(),
            slot => slot as usize,
        }
    }

    #[cold]
    fn resolve(&self) -> usize {
        let mut names = lock(&NAMES);
        let entry = (self.name, self.kind);
        let slot = names.iter().position(|&e| e == entry).unwrap_or_else(|| {
            assert!(names.len() < SLOTS, "more than {SLOTS} metric names");
            names.push(entry);
            names.len() - 1
        });
        self.slot.store(slot as u32, Ordering::Relaxed);
        slot
    }
}

/// A named monotone event count, usually declared by [`counter!`].
#[derive(Debug)]
pub struct Counter(Key);

impl Counter {
    /// A handle on the counter `name`.
    pub const fn new(name: &'static str) -> Counter {
        Counter(Key::new(name, Kind::Counter))
    }

    /// Adds `n` on the installed subscriber; no-op without one.
    #[inline]
    pub fn add(&self, n: u64) {
        with(|r| r.add(self, n));
    }
}

/// A named last-write-wins value (occupancy: entries, bytes, workers),
/// usually declared by [`gauge!`].
#[derive(Debug)]
pub struct Gauge(Key);

impl Gauge {
    /// A handle on the gauge `name`.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge(Key::new(name, Kind::Gauge))
    }

    /// Sets the value on the installed subscriber; no-op without one.
    #[inline]
    pub fn set(&self, value: u64) {
        with(|r| r.set(self, value));
    }
}

/// A named fixed-bucket distribution, usually declared by [`observe!`].
#[derive(Debug)]
pub struct Histogram(Key, &'static [u64]);

impl Histogram {
    /// A handle on the histogram `name` with [`DEFAULT_BOUNDS`].
    pub const fn new(name: &'static str) -> Histogram {
        Histogram::with_bounds(name, DEFAULT_BOUNDS)
    }

    /// A handle on the histogram `name` with `bounds`, which must be
    /// strictly increasing. A registry takes a histogram's bounds from
    /// the first handle that records it.
    pub const fn with_bounds(name: &'static str, bounds: &'static [u64]) -> Histogram {
        Histogram(Key::new(name, Kind::Histogram), bounds)
    }

    /// Records `value` on the installed subscriber; no-op without one.
    #[inline]
    pub fn observe(&self, value: u64) {
        with(|r| r.observe(self, value));
    }
}

/// A counter with an instance-local total, the field type of the
/// per-instance stat structs: [`CounterCell::add`] bumps the total that
/// [`CounterCell::get`] reads and the installed registry's counter.
#[derive(Debug)]
pub struct CounterCell(AtomicU64, Counter);

impl CounterCell {
    /// A zeroed cell counting into `name`. A registry installed at
    /// creation lists the counter from then on, at zero until the first
    /// event.
    pub fn new(name: &'static str) -> CounterCell {
        let cell = CounterCell(AtomicU64::new(0), Counter::new(name));
        cell.1.add(0);
        cell
    }

    /// Adds `n` to this instance and to the installed subscriber.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
        self.1.add(n);
    }

    /// This instance's total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// `counter!("name", n)`: adds `n` through a call-site `static`
/// [`Counter`]; `n` is evaluated only while a subscriber is installed.
#[macro_export]
macro_rules! counter {
    ($name:literal, $n:expr $(,)?) => {
        if $crate::enabled() {
            static HANDLE: $crate::Counter = $crate::Counter::new($name);
            HANDLE.add($n);
        }
    };
}

/// `gauge!("name", value)`: sets a call-site `static` [`Gauge`]; the
/// value is evaluated only while a subscriber is installed.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $value:expr $(,)?) => {
        if $crate::enabled() {
            static HANDLE: $crate::Gauge = $crate::Gauge::new($name);
            HANDLE.set($value);
        }
    };
}

/// `observe!("name", value[, bounds])`: records into a call-site
/// `static` [`Histogram`] ([`DEFAULT_BOUNDS`] unless `bounds` is given);
/// the value is evaluated only while a subscriber is installed.
#[macro_export]
macro_rules! observe {
    ($name:literal, $value:expr $(,)?) => {
        $crate::observe!($name, $value, $crate::DEFAULT_BOUNDS)
    };
    ($name:literal, $value:expr, $bounds:expr $(,)?) => {
        if $crate::enabled() {
            static HANDLE: $crate::Histogram = $crate::Histogram::with_bounds($name, $bounds);
            HANDLE.observe($value);
        }
    };
}

/// Declares a stat struct as [`CounterCell`]s plus its plain-value
/// view: each field is a cell counting into the named metric, the cell
/// struct gets a `Default` naming them and a `snapshot()` returning the
/// plain struct, whose `pub u64` fields carry the same names and docs.
#[macro_export]
macro_rules! stat_cells {
    (
        $(#[$plain_meta:meta])*
        $plain_vis:vis struct $plain:ident;
        $(#[$meta:meta])*
        $vis:vis struct $cells:ident {
            $($(#[$field_meta:meta])* $field:ident: $name:literal,)*
        }
    ) => {
        $(#[$plain_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $plain_vis struct $plain {
            $($(#[$field_meta])* pub $field: u64,)*
        }

        $(#[$meta])*
        #[derive(Debug)]
        $vis struct $cells {
            $($(#[$field_meta])* $vis $field: $crate::CounterCell,)*
        }

        impl Default for $cells {
            fn default() -> $cells {
                $cells {
                    $($field: $crate::CounterCell::new($name),)*
                }
            }
        }

        impl $cells {
            /// Plain-value copy of the totals.
            $vis fn snapshot(&self) -> $plain {
                $plain {
                    $($field: self.$field.get(),)*
                }
            }
        }
    };
}

/// One counter or gauge slot of a registry.
#[derive(Debug, Default)]
struct Slot {
    value: AtomicU64,
    /// Recorded in this registry; snapshots list only seen slots.
    seen: AtomicBool,
}

/// A registry of counters, gauges, histograms, and spans.
///
/// One fixed array of slots, indexed by the process-wide slot of each
/// handle's name; snapshots list the slots this registry saw, sorted by
/// name, so exports are independent of recording order. All recording
/// methods take `&self` and are safe to call from many threads.
#[derive(Debug)]
pub struct MetricsRegistry {
    slots: Box<[Slot]>,
    histograms: Box<[OnceLock<Box<Buckets>>]>,
    spans: Mutex<Vec<SpanEvent>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry {
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
            histograms: (0..SLOTS).map(|_| OnceLock::new()).collect(),
            spans: Mutex::default(),
        }
    }
}

fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to `counter` in this registry.
    #[inline]
    pub fn add(&self, counter: &Counter, n: u64) {
        let slot = &self.slots[counter.0.slot()];
        // A non-zero total means an earlier add already marked the slot,
        // so the common case touches the slot's cache line once.
        if slot.value.fetch_add(n, Ordering::Relaxed) == 0 {
            slot.seen.store(true, Ordering::Relaxed);
        }
    }

    /// Sets `gauge` to `value` in this registry (last write wins).
    #[inline]
    pub fn set(&self, gauge: &Gauge, value: u64) {
        let slot = &self.slots[gauge.0.slot()];
        slot.value.store(value, Ordering::Relaxed);
        slot.seen.store(true, Ordering::Relaxed);
    }

    /// Records `value` into `histogram` in this registry.
    ///
    /// # Panics
    ///
    /// Panics if a new histogram's bounds are not strictly increasing.
    #[inline]
    pub fn observe(&self, histogram: &Histogram, value: u64) {
        self.histograms[histogram.0.slot()]
            .get_or_init(|| Box::new(Buckets::new(histogram.1)))
            .observe(value);
    }

    /// Records a completed span. `start_secs`/`end_secs` are virtual
    /// clock readings supplied by the caller.
    pub fn span(&self, name: &str, start_secs: u64, end_secs: u64) {
        lock(&self.spans).push(SpanEvent {
            name: name.to_string(),
            start_secs,
            end_secs,
        });
    }

    /// Takes a plain-value snapshot; spans come back sorted by
    /// `(name, start, end)` so the result is order-independent.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            spans: lock(&self.spans).clone(),
            ..MetricsSnapshot::default()
        };
        snap.spans.sort();
        for (i, &(name, kind)) in lock(&NAMES).iter().enumerate() {
            let slot = &self.slots[i];
            let value = slot.value.load(Ordering::Relaxed);
            let seen = slot.seen.load(Ordering::Relaxed);
            match (kind, self.histograms[i].get()) {
                (Kind::Counter, _) if seen => {
                    snap.counters.insert(name.to_string(), value);
                }
                (Kind::Gauge, _) if seen => {
                    snap.gauges.insert(name.to_string(), value);
                }
                (Kind::Histogram, Some(h)) => {
                    snap.histograms.insert(name.to_string(), h.snapshot());
                }
                _ => {}
            }
        }
        snap
    }

    /// Shorthand for `snapshot().render_text()`.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }

    /// Shorthand for `snapshot().render_json()`.
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SUBSCRIBER: RwLock<Option<Arc<MetricsRegistry>>> = RwLock::new(None);
/// Bumped under the `SUBSCRIBER` write lock on every install/uninstall,
/// so a thread-local cache can validate its `Arc` with one atomic load
/// instead of taking the `RwLock` on every record.
static EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CACHED: std::cell::RefCell<(u64, Option<Arc<MetricsRegistry>>)> =
        const { std::cell::RefCell::new((0, None)) };
}

/// Installs `registry` as the process-wide subscriber, returning any
/// previous one. Instrumentation across the workspace records into it
/// until [`uninstall`] (or another `install`) replaces it.
pub fn install(registry: Arc<MetricsRegistry>) -> Option<Arc<MetricsRegistry>> {
    let mut slot = write_lock(&SUBSCRIBER);
    let prev = slot.replace(registry);
    EPOCH.fetch_add(1, Ordering::Release);
    // The registry itself is published by the SUBSCRIBER lock; the flag
    // only gates the fast path, so Release (pairing with EPOCH) is enough.
    ENABLED.store(true, Ordering::Release);
    prev
}

/// Removes the process-wide subscriber, returning it. After this,
/// instrumentation is back to its single-atomic-load fast path.
pub fn uninstall() -> Option<Arc<MetricsRegistry>> {
    let mut slot = write_lock(&SUBSCRIBER);
    ENABLED.store(false, Ordering::Release);
    EPOCH.fetch_add(1, Ordering::Release);
    slot.take()
}

/// True when a subscriber is installed. This is the fast path every
/// instrumentation site checks first: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The currently installed subscriber, if any. Exporters use this to
/// render the registry that instrumentation has been feeding.
pub fn current() -> Option<Arc<MetricsRegistry>> {
    if !enabled() {
        return None;
    }
    read_lock(&SUBSCRIBER).clone()
}

/// Runs `f` on the installed subscriber, if any. The check is inlined
/// at every site; the thread-local lookup behind it is not.
#[inline]
fn with<F: FnOnce(&MetricsRegistry)>(f: F) {
    if enabled() {
        with_installed(f);
    }
}

fn with_installed<F: FnOnce(&MetricsRegistry)>(f: F) {
    let mut f = Some(f);
    let handled = CACHED
        .try_with(|cache| {
            let Ok(mut cache) = cache.try_borrow_mut() else {
                return false;
            };
            if cache.0 != EPOCH.load(Ordering::Acquire) {
                // Refresh under the read lock; the epoch only moves
                // under the write lock, so re-reading it here pins the
                // epoch of the value we cloned.
                let slot = read_lock(&SUBSCRIBER);
                cache.1 = slot.clone();
                cache.0 = EPOCH.load(Ordering::Acquire);
            }
            if let (Some(r), Some(f)) = (&cache.1, f.take()) {
                f(r);
            }
            true
        })
        .unwrap_or(false);
    if handled {
        return;
    }
    // TLS destructor or reentrancy edge: fall back to the direct path.
    if let (Some(r), Some(f)) = (&*read_lock(&SUBSCRIBER), f.take()) {
        f(r);
    }
}

/// Records a completed span on the installed subscriber; no-op without
/// one. Timestamps are virtual-clock seconds from the caller's clock.
#[inline]
pub fn span(name: &str, start_secs: u64, end_secs: u64) {
    with(|r| r.span(name, start_secs, end_secs));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let r = MetricsRegistry::new();
        let (one, two) = (Counter::new("a.one"), Counter::new("b.two"));
        r.add(&two, 2);
        r.add(&one, 1);
        r.add(&two, 3);
        let s = r.snapshot();
        let names: Vec<&String> = s.counters.keys().collect();
        assert_eq!(names, ["a.one", "b.two"]);
        assert_eq!(s.counters["b.two"], 5);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = MetricsRegistry::new();
        let g = Gauge::new("g");
        r.set(&g, 10);
        r.set(&g, 7);
        assert_eq!(r.snapshot().gauges["g"], 7);
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let r = MetricsRegistry::new();
        let h = Histogram::with_bounds("h", &[1, 10, 1000]);
        for v in [0, 1, 2, 3, 100, 2_000_000] {
            r.observe(&h, v);
        }
        let h = &r.snapshot().histograms["h"];
        assert_eq!(h.buckets, vec![2, 2, 1, 1]);
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 2_000_106);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let r = MetricsRegistry::new();
        r.observe(&Histogram::with_bounds("bad", &[10, 5]), 1);
    }

    #[test]
    fn spans_sort_deterministically() {
        let r = MetricsRegistry::new();
        r.span("z", 5, 6);
        r.span("a", 9, 9);
        r.span("a", 1, 2);
        let spans = r.snapshot().spans;
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[0].start_secs, 1);
        assert_eq!(spans[2].name, "z");
    }

    #[test]
    fn text_and_json_are_deterministic_across_recording_order() {
        let (a, b, h) = (Counter::new("a"), Counter::new("b"), Histogram::new("h"));
        let ab = MetricsRegistry::new();
        ab.add(&a, 1);
        ab.add(&b, 2);
        ab.observe(&h, 3);
        let ba = MetricsRegistry::new();
        ba.observe(&h, 3);
        ba.add(&b, 2);
        ba.add(&a, 1);
        assert_eq!(ab.render_text(), ba.render_text());
        assert_eq!(ab.render_json(), ba.render_json());
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn handles_are_inert_without_subscriber() {
        // Must not panic or record anywhere.
        counter!("x", 1);
        gauge!("x", 1);
        observe!("x", 1);
        CounterCell::new("x").add(1);
        span("x", 0, 1);
        assert!(current().is_none() || enabled());
    }
}
