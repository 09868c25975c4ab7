//! Decorators around the two trait objects a simulation is assembled from:
//! the [`Mitigation`] and each core's [`TraceSource`].
//!
//! The traced run times every call into the `mitigations` and `workloads`
//! layers from outside the program. Everything the runner does between
//! those calls (the core loop, the controller, the hammer model, action
//! execution) is the remainder, attributed to `sim`/`mem-ctrl`/`dram`
//! together. The untraced run wraps nothing.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use rrs::dram::geometry::RowAddr;
use rrs::dram::timing::Cycle;
use rrs::mem_ctrl::mitigation::MitigationAction;
use rrs::sim::{TraceRecord, TraceSource};
use rrs::telemetry::Telemetry;
use rrs::Mitigation;

/// Calls into one wrapped entry point and the host nanoseconds they took,
/// as read by the timer (calibration not yet subtracted).
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    pub fn merge(&mut self, other: Span) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// What one traced cell's decorators observed.
#[derive(Default)]
pub struct Layers {
    pub next_record: Cell<Span>,
    pub resolve: Cell<Span>,
    pub on_activation: Cell<Span>,
    pub activation_delay: Cell<Span>,
    pub on_epoch_end: Cell<Span>,
    /// Mitigation actions pushed by `on_activation`.
    pub actions: Cell<u64>,
    /// One mark at each `on_epoch_end` call.
    pub epoch_marks: RefCell<Vec<EpochMark>>,
}

/// Where the traced run stood when an epoch ended.
#[derive(Debug, Clone, Copy)]
pub struct EpochMark {
    pub at: Instant,
    /// Activations so far.
    pub acts: u64,
    /// Timed calls so far, over every span.
    pub timed_calls: u64,
}

impl Layers {
    pub fn spans(&self) -> [Span; 5] {
        [
            self.next_record.get(),
            self.resolve.get(),
            self.on_activation.get(),
            self.activation_delay.get(),
            self.on_epoch_end.get(),
        ]
    }
}

/// Runs `f`, adding one call and its duration to `span`.
#[inline(always)]
fn timed<R>(span: &Cell<Span>, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let mut s = span.get();
    s.calls += 1;
    s.ns += ns;
    span.set(s);
    r
}

/// The cost of the timing itself, measured on an empty call.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// What the timer reads around an empty call: subtracted from every
    /// timed call.
    pub inside_ns: f64,
    /// Host time one timed empty call costs in all (timer reads plus
    /// bookkeeping): what tracing adds to the run per wrapped call.
    pub total_ns: f64,
}

impl Calibration {
    /// Median over batches of timed empty calls.
    pub fn measure() -> Calibration {
        const CALLS: u64 = 200_000;
        let mut inside = Vec::new();
        let mut total = Vec::new();
        for _ in 0..9 {
            let span = Cell::new(Span::default());
            let t0 = Instant::now();
            for i in 0..CALLS {
                timed(&span, || black_box(i));
            }
            total.push(t0.elapsed().as_nanos() as f64 / CALLS as f64);
            inside.push(span.get().ns as f64 / CALLS as f64);
        }
        Calibration {
            inside_ns: crate::median(&mut inside),
            total_ns: crate::median(&mut total),
        }
    }
}

/// A [`Mitigation`] whose entry points are timed into [`Layers`].
pub struct TimedMitigation {
    inner: Box<dyn Mitigation>,
    layers: Rc<Layers>,
}

impl TimedMitigation {
    pub fn new(inner: Box<dyn Mitigation>, layers: Rc<Layers>) -> Self {
        TimedMitigation { inner, layers }
    }
}

impl Mitigation for TimedMitigation {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn resolve(&self, row: RowAddr) -> RowAddr {
        timed(&self.layers.resolve, || self.inner.resolve(row))
    }

    fn access_latency(&self) -> Cycle {
        self.inner.access_latency()
    }

    fn activation_delay(&mut self, row: RowAddr, now: Cycle) -> Cycle {
        timed(&self.layers.activation_delay, || {
            self.inner.activation_delay(row, now)
        })
    }

    fn on_activation(&mut self, row: RowAddr, at: Cycle, actions: &mut Vec<MitigationAction>) {
        let before = actions.len();
        timed(&self.layers.on_activation, || {
            self.inner.on_activation(row, at, actions)
        });
        let pushed = actions.len().saturating_sub(before) as u64;
        self.layers.actions.set(self.layers.actions.get() + pushed);
    }

    fn on_epoch_end(&mut self, now: Cycle, actions: &mut Vec<MitigationAction>) {
        let mark = EpochMark {
            at: Instant::now(),
            acts: self.layers.on_activation.get().calls,
            timed_calls: self.layers.spans().iter().map(|s| s.calls).sum(),
        };
        self.layers.epoch_marks.borrow_mut().push(mark);
        timed(&self.layers.on_epoch_end, || {
            self.inner.on_epoch_end(now, actions)
        });
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }
}

/// A [`TraceSource`] whose `next_record` is timed into [`Layers`].
pub struct TimedSource<'a> {
    inner: Box<dyn TraceSource + 'a>,
    layers: Rc<Layers>,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: Box<dyn TraceSource + 'a>, layers: Rc<Layers>) -> Self {
        TimedSource { inner, layers }
    }
}

impl TraceSource for TimedSource<'_> {
    fn next_record(&mut self) -> TraceRecord {
        timed(&self.layers.next_record, || self.inner.next_record())
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
