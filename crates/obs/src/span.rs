//! The zero-alloc, lock-free span/event recorder.
//!
//! Each recording thread owns a fixed-capacity SPSC ring buffer of
//! [`Event`]s; a collector (any thread holding the registry lock, or the
//! background [`Collector`] thread) drains every ring and merges the
//! events by global sequence number. Recording never allocates, never
//! takes a lock, and never blocks: a full ring drops the event and bumps
//! a counter instead.
//!
//! Recording is globally gated by an [`AtomicBool`]; when disabled,
//! [`span`] and friends cost one relaxed load and a branch, so the
//! instrumentation can stay compiled into release hot paths.

use crate::threadreg::ThreadRegistry;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventKind {
    /// A completed span: `ts_ns` is the start, `dur_ns` the duration.
    #[default]
    Span,
    /// A point-in-time marker.
    Instant,
    /// A counter sample: `value` is the sampled value at `ts_ns`.
    Counter,
}

/// One recorded event. `Copy` and free of heap data so ring slots can be
/// written without allocation; names are interned `&'static str`s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Event {
    /// Span/marker/counter name (e.g. `"execute"`).
    pub name: &'static str,
    /// Category (e.g. `"service"`, `"swexec"`, `"accel"`).
    pub cat: &'static str,
    /// Event kind.
    pub kind: EventKind,
    /// Recording thread id (small dense ids assigned at first record).
    pub tid: u32,
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// Span duration (0 for instants and counters).
    pub dur_ns: u64,
    /// Counter value (0 for spans and instants).
    pub value: u64,
    /// Causal trace id stamped from the thread's current-trace cell at
    /// record time (0 = no trace). See [`crate::tracectx`].
    pub trace: u128,
}

/// Default per-thread ring capacity (events). Must be a power of two.
const RING_CAPACITY: usize = 1 << 14;

/// A single-producer single-consumer ring. The producer is the owning
/// thread (reached only through its thread-local handle); the consumer is
/// whoever holds the [`ThreadRegistry`] lock in [`drain_events`], which
/// serializes consumers.
struct Ring {
    /// `MaybeUninit` so construction never touches the slots: the OS maps
    /// the (1 MiB-scale) buffer lazily and pages fault in only as events
    /// accumulate, instead of a zero-fill burst on the first event a
    /// thread records.
    slots: Box<[UnsafeCell<MaybeUninit<Event>>]>,
    /// Next write position (producer-owned, consumer reads with Acquire).
    head: AtomicUsize,
    /// Next read position (consumer-owned, producer reads with Acquire).
    tail: AtomicUsize,
    /// Events discarded because the ring was full.
    dropped: AtomicU64,
}

// SAFETY: slot `i` is written only by the producer while `i` lies in
// `[tail, head)`'s complement and read only by the consumer after the
// producer's `head` Release-store publishes it; head/tail form the usual
// SPSC handshake. Producer exclusivity holds because `push` is reachable
// only through the owning thread's thread-local handle, and consumer
// exclusivity because draining requires the global registry lock.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        Ring {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    #[inline]
    fn push(&self, ev: Event) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let idx = head & (self.slots.len() - 1);
        // SAFETY: the slot is outside [tail, head) so the consumer will
        // not read it until the Release store below publishes the write.
        unsafe { (*self.slots[idx].get()).write(ev) };
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    /// Drains everything currently published. Caller must be the unique
    /// consumer (holds the registry lock).
    fn drain_into(&self, out: &mut Vec<Event>) {
        let mut tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        while tail != head {
            let idx = tail & (self.slots.len() - 1);
            // SAFETY: [tail, head) was published by the producer's
            // Release store on `head`, and every slot in that range was
            // initialized by `push`.
            out.push(unsafe { (*self.slots[idx].get()).assume_init() });
            tail = tail.wrapping_add(1);
        }
        self.tail.store(tail, Ordering::Release);
    }
}

/// Global recorder state. Per-thread rings live in [`SPAN_REG`], the
/// shared thread registry.
struct Recorder {
    enabled: AtomicBool,
    epoch: OnceLock<Instant>,
    seq: AtomicU64,
    /// Drop counts carried over from rings of exited threads that were
    /// pruned from the registry.
    retired_dropped: AtomicU64,
}

static RECORDER: Recorder = Recorder {
    enabled: AtomicBool::new(false),
    epoch: OnceLock::new(),
    seq: AtomicU64::new(0),
    retired_dropped: AtomicU64::new(0),
};

static SPAN_REG: ThreadRegistry<Ring> = ThreadRegistry::new();

struct ThreadHandle {
    ring: Arc<Ring>,
    tid: u32,
}

thread_local! {
    static HANDLE: ThreadHandle = {
        let ring = Arc::new(Ring::new(RING_CAPACITY));
        let tid = SPAN_REG.alloc_tid();
        SPAN_REG.insert(Arc::clone(&ring));
        ThreadHandle { ring, tid }
    };
}

fn epoch() -> Instant {
    *RECORDER.epoch.get_or_init(Instant::now)
}

#[inline]
fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Crate-internal clock on the recorder epoch, for subsystems (the flight
/// recorder) that must timestamp even while span recording is disabled.
/// The first call pins the epoch.
#[inline]
pub(crate) fn clock_ns() -> u64 {
    now_ns()
}

/// Turns recording on. The first call pins the trace epoch.
pub fn enable() {
    let _ = epoch();
    RECORDER.enabled.store(true, Ordering::Release);
}

/// Turns recording off. Already-buffered events stay drainable.
pub fn disable() {
    RECORDER.enabled.store(false, Ordering::Release);
}

/// Whether recording is on. One relaxed load — callers may use this to
/// skip argument computation entirely.
#[inline]
pub fn enabled() -> bool {
    RECORDER.enabled.load(Ordering::Relaxed)
}

#[inline]
fn record(mut ev: Event) {
    ev.seq = RECORDER.seq.fetch_add(1, Ordering::Relaxed);
    if ev.trace == 0 {
        ev.trace = crate::tracectx::current_raw();
    }
    HANDLE.with(|h| {
        ev.tid = h.tid;
        h.ring.push(ev);
    });
}

/// Records a point-in-time marker.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) {
    if !enabled() {
        return;
    }
    record(Event {
        name,
        cat,
        kind: EventKind::Instant,
        ts_ns: now_ns(),
        ..Event::default()
    });
}

/// Records a counter sample (rendered as a Chrome counter track).
#[inline]
pub fn counter(cat: &'static str, name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    record(Event {
        name,
        cat,
        kind: EventKind::Counter,
        ts_ns: now_ns(),
        value,
        ..Event::default()
    });
}

/// Records a completed span with an explicit start and duration — used by
/// instrumentation that measures a phase itself (e.g. accumulated
/// predictor time) rather than via a guard.
#[inline]
pub fn span_at(cat: &'static str, name: &'static str, ts_ns: u64, dur_ns: u64) {
    if !enabled() {
        return;
    }
    record(Event {
        name,
        cat,
        kind: EventKind::Span,
        ts_ns,
        dur_ns,
        ..Event::default()
    });
}

/// Nanoseconds since the recorder epoch (0 until first enable). Useful
/// with [`span_at`].
#[inline]
pub fn timestamp_ns() -> u64 {
    if RECORDER.epoch.get().is_some() {
        now_ns()
    } else {
        0
    }
}

/// RAII span: created by [`span`], records a complete event on drop.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    start_ns: u64,
    name: &'static str,
    cat: &'static str,
    armed: bool,
}

impl SpanGuard {
    /// The span's start timestamp (0 when recording was off at entry).
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed || !enabled() {
            return;
        }
        let end = now_ns();
        record(Event {
            name: self.name,
            cat: self.cat,
            kind: EventKind::Span,
            ts_ns: self.start_ns,
            dur_ns: end.saturating_sub(self.start_ns),
            ..Event::default()
        });
    }
}

/// Opens a span covering the guard's lifetime. When recording is off this
/// is a branch and nothing else (no clock read).
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            start_ns: 0,
            name,
            cat,
            armed: false,
        };
    }
    SpanGuard {
        start_ns: now_ns(),
        name,
        cat,
        armed: true,
    }
}

/// Drains every thread's ring into one sequence-ordered vector. Rings of
/// exited threads are drained one last time, their drop counts folded
/// into a retired total, and then pruned by the registry sweep.
pub fn drain_events() -> Vec<Event> {
    let mut out = Vec::new();
    SPAN_REG.sweep(|ring, live| {
        ring.drain_into(&mut out);
        if !live {
            RECORDER
                .retired_dropped
                .fetch_add(ring.dropped.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    });
    out.sort_by_key(|e| e.seq);
    out
}

/// Events [`retain_events`] keeps for dump export; the oldest are trimmed
/// first.
pub const RETAINED_EVENTS: usize = 1 << 16;

/// The process-wide retention buffer behind [`retain_events`].
static RETAINED: Mutex<VecDeque<Event>> = Mutex::new(VecDeque::new());

/// Drains every thread's ring into the process-wide retention buffer,
/// keeping the newest [`RETAINED_EVENTS`].
///
/// The rings are process-global, so their retention is too: every
/// consumer that retains (several servers in one process, say) adds to
/// and reads from the same buffer, and none can take spans another needs
/// for its dump. A private buffer filled by [`drain_events`] would lose
/// to any other drainer the events it raced for.
pub fn retain_events() {
    let batch = drain_events();
    if batch.is_empty() {
        return;
    }
    let mut buf = RETAINED.lock().expect("span retention lock");
    buf.extend(batch);
    let excess = buf.len().saturating_sub(RETAINED_EVENTS);
    buf.drain(..excess);
}

/// A sequence-ordered copy of the retention buffer, after a final
/// [`retain_events`].
pub fn retained_events() -> Vec<Event> {
    retain_events();
    let buf = RETAINED.lock().expect("span retention lock");
    buf.iter().copied().collect()
}

/// Total events dropped to full rings since process start.
pub fn dropped_events() -> u64 {
    let mut live = 0u64;
    SPAN_REG.for_each(|r| live += r.dropped.load(Ordering::Relaxed));
    live + RECORDER.retired_dropped.load(Ordering::Relaxed)
}

/// Background collector: periodically drains the rings so long traces
/// never overflow them, and hands everything back on [`Collector::stop`].
#[derive(Debug)]
pub struct Collector {
    stop: Arc<AtomicBool>,
    collected: Arc<Mutex<Vec<Event>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Collector {
    /// Spawns the collector thread, draining every `period`.
    pub fn start(period: std::time::Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let collected = Arc::new(Mutex::new(Vec::new()));
        let handle = {
            let stop = Arc::clone(&stop);
            let collected = Arc::clone(&collected);
            std::thread::Builder::new()
                .name("copred-obs-collector".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        std::thread::sleep(period);
                        let mut batch = drain_events();
                        collected.lock().expect("collector lock").append(&mut batch);
                    }
                })
                .expect("spawn obs collector")
        };
        Collector {
            stop,
            collected,
            handle: Some(handle),
        }
    }

    /// Stops the thread, performs a final drain, and returns every event
    /// collected, sequence-ordered.
    pub fn stop(mut self) -> Vec<Event> {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let mut events = std::mem::take(&mut *self.collected.lock().expect("collector lock"));
        events.append(&mut drain_events());
        events.sort_by_key(|e| e.seq);
        events
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global; the test runner is multi-threaded.
    // Every test that records or drains takes this lock so no test steals
    // another's events or flips the enable flag under it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn span_records_duration() {
        let _s = serial();
        enable();
        {
            let _g = span("test", "span_records_duration");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let evs = drain_events();
        let ev = evs
            .iter()
            .find(|e| e.name == "span_records_duration")
            .expect("span recorded");
        assert_eq!(ev.kind, EventKind::Span);
        assert!(ev.dur_ns >= 1_000_000, "dur {} too short", ev.dur_ns);
    }

    #[test]
    fn retention_is_shared_by_every_retaining_consumer() {
        let _s = serial();
        enable();
        let _ = drain_events();
        span_at("test", "retained_a", 1, 1);
        // A second consumer's retention pass takes the event off the ring;
        // the first consumer's export still sees it.
        retain_events();
        span_at("test", "retained_b", 2, 1);
        let names: Vec<&str> = retained_events().iter().map(|e| e.name).collect();
        let (a, b) = (
            names.iter().position(|n| *n == "retained_a"),
            names.iter().position(|n| *n == "retained_b"),
        );
        assert!(matches!((a, b), (Some(a), Some(b)) if a < b), "{names:?}");
    }

    #[test]
    fn disabled_recorder_is_silent() {
        let _s = serial();
        enable();
        let _ = drain_events();
        disable();
        {
            let _g = span("test", "disabled_recorder_is_silent");
            instant("test", "disabled_recorder_is_silent");
            counter("test", "disabled_recorder_is_silent", 7);
        }
        let evs = drain_events();
        assert!(!evs.iter().any(|e| e.name == "disabled_recorder_is_silent"));
        enable();
    }

    #[test]
    fn counters_and_instants_carry_values() {
        let _s = serial();
        enable();
        counter("test", "counters_carry_values", 42);
        instant("test", "instants_carry_ts");
        let evs = drain_events();
        let c = evs
            .iter()
            .find(|e| e.name == "counters_carry_values")
            .expect("counter");
        assert_eq!(c.kind, EventKind::Counter);
        assert_eq!(c.value, 42);
        assert!(evs.iter().any(|e| e.name == "instants_carry_ts"));
    }

    #[test]
    fn multithreaded_events_are_sequence_ordered() {
        let _s = serial();
        enable();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..500 {
                        instant("test", "mt_seq");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let evs: Vec<Event> = drain_events()
            .into_iter()
            .filter(|e| e.name == "mt_seq")
            .collect();
        assert_eq!(evs.len(), 2000);
        for w in evs.windows(2) {
            assert!(w[0].seq < w[1].seq, "drain must be sequence-ordered");
        }
        // Distinct producer threads got distinct tids.
        let tids: std::collections::HashSet<u32> = evs.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn full_ring_drops_instead_of_blocking() {
        let _s = serial();
        enable();
        let before = dropped_events();
        std::thread::spawn(|| {
            // Overfill one thread's ring without draining.
            for _ in 0..(RING_CAPACITY + 100) {
                instant("test", "overflow");
            }
        })
        .join()
        .unwrap();
        assert!(dropped_events() >= before + 100);
        let _ = drain_events();
    }

    #[test]
    fn events_are_stamped_with_the_current_trace() {
        let _s = serial();
        enable();
        let _ = drain_events();
        let id = crate::tracectx::TraceId::new(0xABCD_EF01).unwrap();
        {
            let _t = crate::tracectx::TraceScope::enter(Some(id));
            instant("test", "trace_stamped");
            let _g = span("test", "trace_stamped_span");
        }
        instant("test", "trace_unstamped");
        let evs = drain_events();
        let stamped = evs.iter().find(|e| e.name == "trace_stamped").unwrap();
        assert_eq!(stamped.trace, id.raw());
        let span_ev = evs.iter().find(|e| e.name == "trace_stamped_span").unwrap();
        assert_eq!(span_ev.trace, id.raw());
        let bare = evs.iter().find(|e| e.name == "trace_unstamped").unwrap();
        assert_eq!(bare.trace, 0);
    }

    #[test]
    fn collector_thread_gathers_across_drains() {
        let _s = serial();
        enable();
        let collector = Collector::start(std::time::Duration::from_millis(5));
        for _ in 0..50 {
            instant("test", "collector_gathers");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let evs = collector.stop();
        let n = evs.iter().filter(|e| e.name == "collector_gathers").count();
        assert_eq!(n, 50);
    }
}
