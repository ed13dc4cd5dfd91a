//! Registry swaps racing with recording threads.
//!
//! Threads record through one static counter handle and one static
//! histogram handle while another thread installs and uninstalls fresh
//! registries. Nothing may panic, no event may be counted in two
//! registries, a registry installed for a whole phase must hold exactly
//! that phase's events, and a snapshot lists only names recorded since
//! its registry was installed. The subscriber is process-wide, so the
//! tests serialize on `GATE`.

use aide_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

static GATE: Mutex<()> = Mutex::new(());
static EVENTS: Counter = Counter::new("swap.events");
static VALUES: Histogram = Histogram::new("swap.values");
const RECORDERS: usize = 2;

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn record(i: u64) {
    EVENTS.add(1);
    VALUES.observe(i);
}

/// `(counter, histogram count)` recorded into `r`.
fn counted(r: &MetricsRegistry) -> (u64, u64) {
    let s = r.snapshot();
    let events = s.counters.get("swap.events").copied().unwrap_or(0);
    (
        events,
        s.histograms.get("swap.values").map_or(0, |h| h.count),
    )
}

#[test]
fn a_registry_installed_for_a_phase_holds_exactly_that_phase() {
    let _gate = gate();
    const PHASES: usize = 20;
    const PER_THREAD: u64 = 5_000;
    let (start, done) = (Barrier::new(RECORDERS + 1), Barrier::new(RECORDERS + 1));
    let phases: Vec<_> = std::thread::scope(|s| {
        for _ in 0..RECORDERS {
            s.spawn(|| {
                for _ in 0..PHASES {
                    start.wait();
                    (0..PER_THREAD).for_each(record);
                    done.wait();
                }
            });
        }
        // Asserting only after the scope keeps a failure from leaving
        // the recorders parked at a barrier.
        (0..PHASES)
            .map(|_| {
                let registry = Arc::new(MetricsRegistry::new());
                aide_obs::install(registry.clone());
                start.wait();
                done.wait();
                aide_obs::uninstall();
                counted(&registry)
            })
            .collect()
    });
    let want = PER_THREAD * RECORDERS as u64;
    assert_eq!(phases, vec![(want, want); PHASES]);
}

/// Runs `PER_THREAD` events on each recorder while the calling thread
/// installs fresh registries (at most 400, a few tens of KB each),
/// uninstalling between swaps when `gaps`. Returns the summed counts
/// over every registry installed.
fn race(gaps: bool) -> (u64, u64) {
    const PER_THREAD: u64 = 100_000;
    let mut registries = vec![Arc::new(MetricsRegistry::new())];
    aide_obs::install(registries[0].clone());
    let finished = AtomicBool::new(false);
    std::thread::scope(|s| {
        let recorders: Vec<_> = (0..RECORDERS)
            .map(|_| s.spawn(|| (0..PER_THREAD).for_each(record)))
            .collect();
        s.spawn(|| {
            for r in recorders {
                r.join().expect("recorder panicked");
            }
            finished.store(true, Ordering::Relaxed);
        });
        while !finished.load(Ordering::Relaxed) && registries.len() < 400 {
            if gaps {
                aide_obs::uninstall();
            }
            registries.push(Arc::new(MetricsRegistry::new()));
            aide_obs::install(registries.last().expect("pushed").clone());
            std::thread::sleep(std::time::Duration::from_micros(20));
        }
    });
    aide_obs::uninstall();
    assert!(registries.len() > 1, "the swapper never swapped");
    let summed = registries
        .iter()
        .map(|r| counted(r))
        .fold((0, 0), |(e, v), (a, b)| (e + a, v + b));
    let total = PER_THREAD * RECORDERS as u64;
    assert!(
        summed.0 <= total && summed.1 <= total,
        "an event counted twice"
    );
    summed
}

#[test]
fn swapping_registries_counts_every_event_exactly_once() {
    let _gate = gate();
    // Never left without a subscriber, so every event lands somewhere.
    let total = 100_000 * RECORDERS as u64;
    assert_eq!(race(false), (total, total));
    // Uninstalled gaps drop events, but `race` still checks none is
    // counted twice.
    race(true);
}

#[test]
fn a_snapshot_lists_only_names_recorded_under_its_registry() {
    let _gate = gate();
    static EARLIER: Counter = Counter::new("swap.earlier_only");
    let first = Arc::new(MetricsRegistry::new());
    aide_obs::install(first.clone());
    EARLIER.add(3);
    record(1);
    let second = Arc::new(MetricsRegistry::new());
    aide_obs::install(second.clone());
    record(2);
    aide_obs::uninstall();
    assert_eq!(first.snapshot().counters["swap.earlier_only"], 3);
    assert!(
        !second.snapshot().counters.contains_key("swap.earlier_only"),
        "a handle resolved under the first registry leaked into the second"
    );
    assert_eq!((counted(&first), counted(&second)), ((1, 1), (1, 1)));
}
