//! Host-speed probe: a fixed kernel of the benchmark's own, timed next
//! to every unit of work, so that the gated rates and latencies can be
//! read at a reference host speed.
//!
//! On a shared host the speed of the whole machine drifts, by up to 2×
//! for minutes at a time, and every wall-clock reading of the program
//! moves with it: set-up, engine and daemon alike. The probe shares no
//! code with the program — seeded event-queue churn over a binary heap,
//! each step reading a random word of a 4 MiB table — so a change to the
//! program never moves it, while a slower host slows it much as it slows
//! the program (README.md, "Host-speed probe", records where it does
//! not). A unit's host speed is `NOMINAL_S / probe seconds`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::derive;
use crate::stats::{median, SplitMix64};

/// The reference probe time, about the fastest seen on the shared
/// 2-vCPU x86-64 VM the benchmark was written on: a probe that takes
/// this long means host speed 1, and corrected readings equal raw ones.
pub const NOMINAL_S: f64 = 0.010;

const TABLE_WORDS: usize = 1 << 19;
const HEAP_LEN: usize = 1 << 12;
const STEPS: usize = 100_000;

/// The probe's table, built once.
pub struct Probe {
    table: Vec<u64>,
}

impl Probe {
    pub fn new() -> Self {
        let mut rng = SplitMix64::new(0x9E37);
        Probe {
            table: (0..TABLE_WORDS).map(|_| rng.next_u64()).collect(),
        }
    }

    /// Host seconds of one probe run on `threads` threads at once, the
    /// parallelism of the work it stands beside.
    pub fn time(&self, threads: usize) -> f64 {
        let table = &self.table;
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads.max(1) {
                s.spawn(move || black_box(kernel(t as u64, table)));
            }
        });
        start.elapsed().as_secs_f64()
    }
}

/// Probes on each side of a unit that its host speed is the median of:
/// one probe is a few milliseconds, so a single scheduler hiccup would
/// otherwise move the unit's reading.
const WINDOW: usize = 2;

/// Host speed at each of a run's consecutive probes: `NOMINAL_S` over
/// the median of the probes within `WINDOW` of it (fewer at the ends).
/// Absent where that median is not positive.
pub fn speeds(probe_s: &[f64]) -> Vec<Option<f64>> {
    (0..probe_s.len())
        .map(|i| {
            let window = &probe_s[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(probe_s.len())];
            derive::ratio(Some(NOMINAL_S), median(window))
        })
        .collect()
}

fn kernel(seed: u64, table: &[u64]) -> u64 {
    let mut rng = SplitMix64::new(seed);
    let mut heap: BinaryHeap<Reverse<u64>> = (0..HEAP_LEN)
        .map(|_| Reverse(rng.next_u64() >> 20))
        .collect();
    let mut acc = 0u64;
    for _ in 0..STEPS {
        let Some(Reverse(t)) = heap.pop() else { break };
        let word = table[((t ^ acc) as usize) % table.len()];
        acc = acc.wrapping_add(word).rotate_left(7);
        heap.push(Reverse(t + (word & 0xFFFF)));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let probe = Probe::new();
        assert_eq!(kernel(3, &probe.table), kernel(3, &probe.table));
        assert_ne!(kernel(3, &probe.table), kernel(4, &probe.table));
        assert!(probe.time(2) > 0.0);
    }

    #[test]
    fn speeds_take_the_median_of_neighbouring_probes() {
        let n = NOMINAL_S;
        // One hiccup among steady probes is voted down; a lasting
        // slowdown is followed from its first probe.
        let s = speeds(&[n, 9.0 * n, n, n, n, n, 2.0 * n, 2.0 * n, 2.0 * n]);
        let want = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5];
        for (got, want) in s.iter().zip(want) {
            assert!(got.is_some_and(|g| (g - want).abs() < 1e-12), "{s:?}");
        }
        assert_eq!(speeds(&[0.0]), vec![None]);
    }
}
