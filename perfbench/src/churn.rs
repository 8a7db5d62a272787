//! Store-heavy list-churn trace generator.
//!
//! The mutator keeps `queues` FIFO lists of 32-byte nodes behind
//! 16-byte headers (`head` at offset 0, `tail` at 8). One step enters
//! `churn_step`, appends a node (owner pointer, payload scalar, tail
//! link, header tail), cross-links it to a random live node in
//! half the steps, and — once `live` nodes exist —
//! pops the oldest node of a random queue and frees it. A leaky trace
//! skips one free in `leak_every` pops during the second half of the
//! churn phase, so the popped node stays allocated but unreachable.
//!
//! The stream is executed on a real [`SimHeap`] (addresses, object ids
//! and old slot values come from it) and written with
//! [`BinaryTraceWriter`], so it is exactly what a recorded program
//! would produce.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use heapmd::{BinaryTraceWriter, HeapEvent, HeapMdError};
use sim_heap::{Addr, AllocSite, SimHeap, NULL};

/// Shape of one generated trace.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    /// Seed of the deterministic generator.
    pub seed: u64,
    /// Live nodes kept once the fill phase ends.
    pub live: usize,
    /// Steps after the fill phase (each pops one node).
    pub churn_steps: usize,
    /// Number of FIFO queues.
    pub queues: usize,
    /// Skip one free in this many pops in the second half of the churn
    /// phase (0 = no leak).
    pub leak_every: u64,
}

/// Splitmix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

const HEADER: AllocSite = AllocSite(0);
const NODE: AllocSite = AllocSite(1);
const STEP_FN: u32 = 0;
/// Per-mille chance that a step stores a random cross-link.
const AUX_PER_MILLE: u64 = 500;

/// Executes mutator operations on a [`SimHeap`] and writes each one's
/// event to the trace.
struct Recorder<W: Write> {
    heap: SimHeap,
    out: BinaryTraceWriter<W>,
}

impl<W: Write> Recorder<W> {
    fn emit(&mut self, ev: HeapEvent) -> Result<(), HeapMdError> {
        self.out.write_event(&ev)
    }

    fn alloc(&mut self, size: usize, site: AllocSite) -> Result<Addr, HeapMdError> {
        let eff = self.heap.alloc(size, site).map_err(HeapMdError::Heap)?;
        self.emit(HeapEvent::Alloc {
            obj: eff.id,
            addr: eff.addr,
            size: eff.size,
            site,
        })?;
        Ok(eff.addr)
    }

    fn free(&mut self, addr: Addr) -> Result<(), HeapMdError> {
        let eff = self.heap.free(addr).map_err(HeapMdError::Heap)?;
        self.emit(HeapEvent::Free {
            obj: eff.id,
            addr: eff.addr,
            size: eff.size,
        })
    }

    fn write_ptr(&mut self, slot: Addr, value: Addr) -> Result<(), HeapMdError> {
        let w = self
            .heap
            .write_ptr(slot, value)
            .map_err(HeapMdError::Heap)?;
        self.emit(HeapEvent::PtrWrite {
            src: w.src,
            offset: w.offset,
            value,
            old_value: w.old_value,
        })
    }

    fn write_scalar(&mut self, slot: Addr) -> Result<(), HeapMdError> {
        let w = self.heap.write_scalar(slot).map_err(HeapMdError::Heap)?;
        self.emit(HeapEvent::ScalarWrite {
            src: w.src,
            offset: w.offset,
            old_value: w.old_value,
        })
    }
}

/// Writes one churn trace to `path`, returning its event count.
pub fn generate(spec: &ChurnSpec, path: &Path) -> Result<u64, HeapMdError> {
    let file = BufWriter::new(File::create(path)?);
    let mut out = BinaryTraceWriter::new(file)?;
    out.write_functions(&["churn_step".to_string()])?;
    let mut rec = Recorder {
        heap: SimHeap::new(),
        out,
    };
    let mut rng = Rng::new(spec.seed);
    let mut headers = Vec::with_capacity(spec.queues);
    for _ in 0..spec.queues {
        headers.push(rec.alloc(16, HEADER)?);
    }
    let mut queues: Vec<VecDeque<Addr>> = vec![VecDeque::new(); spec.queues];
    let mut live = 0usize;
    let total_steps = spec.live + spec.churn_steps;
    let leak_from = spec.live + spec.churn_steps / 2;
    let mut pops = 0u64;
    for step in 0..total_steps {
        rec.emit(HeapEvent::FnEnter { func: STEP_FN })?;
        let q = rng.below(spec.queues as u64) as usize;
        let hdr = headers[q];
        let node = rec.alloc(32, NODE)?;
        rec.write_ptr(node.offset(8), hdr)?;
        rec.write_scalar(node.offset(24))?;
        match queues[q].back() {
            Some(&tail) => rec.write_ptr(tail, node)?,
            None => rec.write_ptr(hdr, node)?,
        }
        rec.write_ptr(hdr.offset(8), node)?;
        queues[q].push_back(node);
        live += 1;
        if rng.below(1000) < AUX_PER_MILLE {
            let tq = rng.below(spec.queues as u64) as usize;
            if !queues[tq].is_empty() {
                let target = queues[tq][rng.below(queues[tq].len() as u64) as usize];
                rec.write_ptr(node.offset(16), target)?;
            }
        }
        if live > spec.live {
            let pq = rng.below(spec.queues as u64) as usize;
            if let Some(old) = queues[pq].pop_front() {
                let phdr = headers[pq];
                match queues[pq].front() {
                    Some(&next) => rec.write_ptr(phdr, next)?,
                    None => {
                        rec.write_ptr(phdr, NULL)?;
                        rec.write_ptr(phdr.offset(8), NULL)?;
                    }
                }
                pops += 1;
                let leak = spec.leak_every > 0
                    && step >= leak_from
                    && pops.is_multiple_of(spec.leak_every);
                if !leak {
                    rec.free(old)?;
                }
                live -= 1;
            }
        }
        rec.emit(HeapEvent::FnExit { func: STEP_FN })?;
    }
    let events = rec.out.events_written();
    let mut file = rec.out.finish()?;
    file.flush()?;
    Ok(events)
}
