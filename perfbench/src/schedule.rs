//! Seeded inputs: job orders for the batch workloads and the open-loop request
//! schedule of the `serve` workload.
//!
//! Everything here is integer arithmetic on a ChaCha8 stream, so one seed gives a
//! byte-identical schedule on every platform ([`dump`] renders it for comparison).

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tsc3d_loadgen::mix::{Mix, OpKind};

/// The random stream of `seed` for one purpose (`stream` keeps purposes independent).
pub fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Mean spacing of scheduled requests: the load generator's default open-loop interval
/// (`loadgen --mean-interval-us 1000`), 1000 requests per second.
const INTERVAL_NS: u64 = 1_000_000;
/// One request slot in this many is a fresh flow submission: one every ~3 s. Fresh
/// jobs take ~1.4 s on average and ~2 s at most (outline repair runs once or twice),
/// so with 1 evaluation worker the pool is about half busy, and a fresh job queues
/// behind the one before only when the host runs at well under its usual speed. At
/// ~2.2 s spacing, queueing on a slowed host added its wait to the result latency and
/// made that metric's run-to-run spread about twice the execution time's.
const FRESH_EVERY: u64 = 3_000_000_000 / INTERVAL_NS;
/// A cache-hit repeat only targets a fresh submission sent at least this long before,
/// so the repeated job has finished and the repeat is a hit, not an in-flight dedup.
const REPEAT_AGE_NS: u64 = 5_000_000_000;

/// Weights of the non-fresh request kinds: the read-side weights of the load
/// generator's `mixed` preset (repeat, status poll, `/v1/stats`, `/metrics`). Its
/// submission and event-stream kinds are left out: fresh submissions have their own
/// fixed slot, and one thread holds the event stream throughout.
fn weights() -> Vec<(Kind, u64)> {
    let mixed = Mix::preset("mixed").expect("the load generator has a mixed preset");
    mixed
        .weights
        .iter()
        .filter_map(|&(op, weight)| {
            let kind = match op {
                OpKind::SubmitRepeat => Kind::Repeat,
                OpKind::PollStatus => Kind::Poll,
                OpKind::Stats => Kind::Stats,
                OpKind::Metrics => Kind::Metrics,
                OpKind::SubmitFlow | OpKind::SubmitSca | OpKind::Watch => return None,
            };
            Some((kind, u64::from(weight)))
        })
        .collect()
}

/// The kind of a scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/jobs` of a body never sent before.
    Fresh,
    /// `POST /v1/jobs` repeating a finished fresh body.
    Repeat,
    /// `GET /v1/jobs/{id}` of an earlier fresh submission.
    Poll,
    /// `GET /v1/stats`.
    Stats,
    /// `GET /metrics`.
    Metrics,
}

impl Kind {
    /// Label used in reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Fresh => "submit",
            Kind::Repeat => "hit",
            Kind::Poll => "poll",
            Kind::Stats => "stats",
            Kind::Metrics => "metrics",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Intended send time after the window starts.
    pub offset_ns: u64,
    /// What to send.
    pub kind: Kind,
    /// `Fresh`: the design seed; `Repeat`/`Poll`: the index of the fresh submission
    /// (0-based, in send order) it targets; otherwise 0.
    pub arg: u64,
}

/// The flow submission body of design seed `seed`: the load generator's n100 body
/// (tiny annealing schedule, TSC-aware setup).
pub fn flow_body(seed: u64) -> String {
    format!(
        "{{\"type\":\"flow\",\"benchmark\":\"n100\",\"setup\":\"tsc\",\"seed\":{seed},\
         \"stages\":4,\"moves\":8,\"grid_bins\":10,\"verification_bins\":10,\
         \"activity_samples\":6,\"tsv_budget\":2}}"
    )
}

/// The open-loop schedule of a `window_ns` window: requests at jittered offsets
/// (`INTERVAL_NS/2 + U[0, INTERVAL_NS]` apart), one slot in [`FRESH_EVERY`] a fresh
/// submission (the same count `F` for every seed), the rest drawn from [`weights`].
/// The fresh submissions carry the design seeds `1..=F` in a seeded order, so every
/// seed submits the same designs.
pub fn serve_schedule(seed: u64, window_ns: u64) -> Vec<Request> {
    let mut rng = rng(seed, 3);
    // The same number of fresh submissions in every window of this length: slot
    // `phase + k * FRESH_EVERY` for k < fresh; the jittered slot count never runs short.
    let fresh = window_ns / (FRESH_EVERY * INTERVAL_NS);
    let phase = rng.next_u64() % (FRESH_EVERY / 2);
    let is_fresh = |slot: u64| slot % FRESH_EVERY == phase && slot / FRESH_EVERY < fresh;
    let mut offsets = Vec::new();
    let mut offset = 0u64;
    loop {
        offset += INTERVAL_NS / 2 + rng.next_u64() % (INTERVAL_NS + 1);
        if offset >= window_ns {
            break;
        }
        offsets.push(offset);
    }
    let mut seeds: Vec<u64> = (1..=fresh).collect();
    shuffle(&mut seeds, &mut rng);

    let weights = weights();
    let total_weight: u64 = weights.iter().map(|(_, w)| w).sum();
    let mut fresh_sent: Vec<u64> = Vec::new(); // offsets of fresh submissions so far
    let mut out = Vec::with_capacity(offsets.len());
    for (slot, &offset_ns) in offsets.iter().enumerate() {
        let (kind, arg) = if is_fresh(slot as u64) {
            fresh_sent.push(offset_ns);
            (Kind::Fresh, seeds[fresh_sent.len() - 1])
        } else {
            let mut ticket = rng.next_u64() % total_weight;
            let kind = weights
                .iter()
                .find(|(_, w)| {
                    let hit = ticket < *w;
                    ticket = ticket.saturating_sub(*w);
                    hit
                })
                .map_or(Kind::Stats, |(kind, _)| *kind);
            let pick = rng.next_u64();
            let old = fresh_sent
                .iter()
                .filter(|&&sent| sent + REPEAT_AGE_NS <= offset_ns)
                .count() as u64;
            let any = fresh_sent.len() as u64;
            match kind {
                Kind::Repeat if old > 0 => (Kind::Repeat, pick % old),
                Kind::Repeat | Kind::Poll if any > 0 => (Kind::Poll, pick % any),
                Kind::Repeat | Kind::Poll => (Kind::Stats, 0),
                other => (other, 0),
            }
        };
        out.push(Request {
            offset_ns,
            kind,
            arg,
        });
    }
    out
}

/// Stable text form of a schedule: `offset_ns<TAB>kind<TAB>arg` per line.
#[cfg(test)]
pub fn dump(schedule: &[Request]) -> String {
    schedule
        .iter()
        .map(|r| format!("{}\t{}\t{}\n", r.offset_ns, r.kind.label(), r.arg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_a_byte_identical_schedule() {
        let a = dump(&serve_schedule(7, 20_000_000_000));
        assert_eq!(a, dump(&serve_schedule(7, 20_000_000_000)));
        assert_ne!(a, dump(&serve_schedule(8, 20_000_000_000)));
    }

    #[test]
    fn schedule_is_pinned() {
        let pinned = include_str!("../golden/serve_schedule_seed1.tsv");
        assert_eq!(dump(&serve_schedule(1, 8_000_000_000)), pinned);
    }

    #[test]
    fn fresh_seeds_are_distinct_and_repeats_target_old_submissions() {
        let schedule = serve_schedule(3, 30_000_000_000);
        let fresh: Vec<&Request> = schedule.iter().filter(|r| r.kind == Kind::Fresh).collect();
        let mut seeds: Vec<u64> = fresh.iter().map(|r| r.arg).collect();
        seeds.sort_unstable();
        assert_eq!(seeds, (1..=fresh.len() as u64).collect::<Vec<_>>());
        for request in schedule.iter().filter(|r| r.kind == Kind::Repeat) {
            let target = fresh[request.arg as usize];
            assert!(target.offset_ns + REPEAT_AGE_NS <= request.offset_ns);
        }
    }
}
