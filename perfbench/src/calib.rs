//! Host-speed probe: a fixed amount of work that uses nothing from
//! heapmd, so its time moves with the host alone.
//!
//! On a shared host, neighbours' load slows every CPU-bound run, by up
//! to 2× over minutes. `run.py` times this probe beside each measured
//! round and scales the round's throughput by the probe's slowdown. The
//! work mimics a heap-graph checker on both cores at once: a pointer
//! chase through a 4 MiB table, a hash map of live addresses with
//! inserts and removes, and a histogram of degrees.

use std::collections::HashMap;
use std::time::Instant;

const TABLE: usize = 1 << 20; // u32 slots: 4 MiB per thread
const LIVE: usize = 1 << 15; // hash-map entries kept live
const OPS: u64 = 4_000_000;

/// Runs the probe on both cores at once and returns the wall seconds
/// until the last thread finished.
pub fn run() -> f64 {
    let t0 = Instant::now();
    let sums: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|t| s.spawn(move || work(t + 1)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("probe thread panicked"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    // Keeps the work observable, so it cannot be optimised away.
    assert!(sums.iter().all(|&s| s != 1));
    secs
}

fn work(seed: u64) -> u64 {
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let next = |r: &mut u64| {
        *r ^= *r << 13;
        *r ^= *r >> 7;
        *r ^= *r << 17;
        *r
    };
    // A random single cycle through the table (Sattolo's shuffle).
    let mut table: Vec<u32> = (0..TABLE as u32).collect();
    for i in (1..TABLE).rev() {
        let j = (next(&mut rng) % i as u64) as usize;
        table.swap(i, j);
    }
    let mut live: HashMap<u64, u32> = HashMap::with_capacity(2 * LIVE);
    let mut order: Vec<u64> = Vec::with_capacity(LIVE);
    let mut degree = vec![0u32; 1 << 12];
    let (mut p, mut sum) = (0u32, 0u64);
    for _ in 0..OPS {
        let r = next(&mut rng);
        p = table[p as usize];
        let addr = r & 0xFFFF_FFF8;
        if order.len() < LIVE {
            order.push(addr);
        } else {
            let k = (r >> 40) as usize % LIVE;
            if let Some(v) = live.remove(&order[k]) {
                sum = sum.wrapping_add(v as u64);
            }
            order[k] = addr;
        }
        live.insert(addr, p);
        degree[(p as usize ^ (r >> 52) as usize) & 0xFFF] += 1;
    }
    sum.wrapping_add(degree.iter().map(|&d| d as u64 * d as u64).sum::<u64>())
}
