//! Property test: the fault runner's window faults against a per-kind
//! model.
//!
//! [`FaultRunner`] keeps one list of the window faults open now and sets
//! the runtime's [`NetConditions`] to the baseline with every open
//! window's setting laid over it in opening order. The model below is
//! written without that list: for each of the five kinds (loss, latency,
//! duplication, reorder, partition) it takes the setting of the window
//! with the latest start that is open at the instant asked about — ties
//! going to the later plan index — or else the baseline, which is what
//! one stack of windows per kind computes. Random plans of one to eight
//! windows on a 1-s grid, over a random baseline, must agree with it at
//! every half-second, an instant that never falls on a window boundary.

use proptest::prelude::*;

use verme_sim::fault::{Fault, FaultHooks, FaultPlan, FaultRunner};
use verme_sim::runtime::UniformLatency;
use verme_sim::{
    Addr, Ctx, HostId, NetConditions, Node, Runtime, SeedSource, SimDuration, SimTime, Wire,
};

const HOSTS: usize = 8;

/// A node that never acts: the runner only changes the network.
struct Idle;

#[derive(Clone)]
struct Nothing;

impl Wire for Nothing {
    fn wire_size(&self) -> usize {
        0
    }
}

impl Node for Idle {
    type Msg = Nothing;
    type Timer = ();

    fn on_start(&mut self, _ctx: &mut Ctx<'_, Nothing, ()>) {}
    fn on_message(&mut self, _from: Addr, _msg: Nothing, _ctx: &mut Ctx<'_, Nothing, ()>) {}
    fn on_timer(&mut self, _t: (), _ctx: &mut Ctx<'_, Nothing, ()>) {}
}

/// One generated window: its kind (0–4), its span in whole seconds and
/// every setting a kind might read.
#[derive(Clone, Debug)]
struct Window {
    kind: u8,
    start: u64,
    secs: u64,
    rate: f64,
    factor: f64,
    jitter_ms: u64,
    side: Vec<usize>,
}

impl Window {
    fn fault(&self) -> Fault {
        let (at, duration) =
            (SimTime::ZERO + SimDuration::from_secs(self.start), SimDuration::from_secs(self.secs));
        let rate = self.rate;
        match self.kind {
            0 => Fault::LossBurst { at, duration, rate },
            1 => Fault::LatencySpike { at, duration, factor: self.factor },
            2 => Fault::Duplicate { at, duration, rate },
            3 => Fault::Reorder {
                at,
                duration,
                rate,
                window: SimDuration::from_millis(self.jitter_ms),
            },
            _ => Fault::Partition { at, duration, side: hosts(&self.side) },
        }
    }

    /// Open over `[start, start + secs)`, in milliseconds.
    fn open_at(&self, ms: u64) -> bool {
        self.start * 1000 <= ms && ms < (self.start + self.secs) * 1000
    }
}

fn hosts(side: &[usize]) -> Vec<HostId> {
    side.iter().map(|&h| HostId(h)).collect()
}

/// A latency factor in (0, 10].
fn factor() -> impl Strategy<Value = f64> {
    (1u32..=100).prop_map(|k| f64::from(k) / 10.0)
}

fn window() -> impl Strategy<Value = Window> {
    (
        (0u8..5, 1u64..=30, 1u64..=10),
        any::<f64>(),
        factor(),
        1u64..=2000,
        prop::collection::vec(0..HOSTS, 1..=4),
    )
        .prop_map(|((kind, start, secs), rate, factor, jitter_ms, side)| Window {
            kind,
            start,
            secs,
            rate,
            factor,
            jitter_ms,
            side,
        })
}

fn baseline() -> impl Strategy<Value = NetConditions> {
    (
        (any::<f64>(), any::<f64>()),
        factor(),
        (any::<f64>(), 1u64..=2000),
        prop::collection::vec(0..HOSTS, 0..=3),
    )
        .prop_map(
            |((loss_rate, dup_rate), latency_factor, (reorder_rate, jitter_ms), side)| {
                NetConditions {
                    loss_rate,
                    latency_factor,
                    dup_rate,
                    reorder_rate,
                    reorder_window: SimDuration::from_millis(jitter_ms),
                    partition: hosts(&side).into_iter().collect(),
                }
            },
        )
}

/// The network at `ms`: per kind, the open window with the latest
/// `(start, plan index)`, or else the baseline.
fn model(base: &NetConditions, windows: &[Window], ms: u64) -> NetConditions {
    let mut want = base.clone();
    for kind in 0..5 {
        let latest = windows
            .iter()
            .enumerate()
            .filter(|(_, w)| w.kind == kind && w.open_at(ms))
            .max_by_key(|&(i, w)| (w.start, i));
        let Some((_, w)) = latest else { continue };
        match kind {
            0 => want.loss_rate = w.rate,
            1 => want.latency_factor = w.factor,
            2 => want.dup_rate = w.rate,
            3 => {
                want.reorder_rate = w.rate;
                want.reorder_window = SimDuration::from_millis(w.jitter_ms);
            }
            _ => want.partition = hosts(&w.side).into_iter().collect(),
        }
    }
    want
}

proptest! {
    #[test]
    fn windows_compose_like_one_stack_per_kind(
        base in baseline(),
        windows in prop::collection::vec(window(), 1..=8),
    ) {
        let plan = windows.iter().fold(FaultPlan::new(), |plan, w| plan.with(w.fault()));
        let mut rt: Runtime<Idle, UniformLatency> =
            Runtime::new(UniformLatency::new(HOSTS, SimDuration::from_millis(10)), 1);
        rt.set_net(base.clone());
        let mut runner = FaultRunner::new(plan, FaultHooks::inert(), SeedSource::new(1), Vec::new())
            .expect("generated plans are valid");

        // The last window closes by 40 s.
        for ms in (500..=41_500).step_by(1000) {
            runner.run_until(&mut rt, SimTime::ZERO + SimDuration::from_millis(ms));
            prop_assert_eq!(rt.net(), &model(&base, &windows, ms), "at {} ms", ms);
        }
    }
}
