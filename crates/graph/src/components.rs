//! On-demand connectivity analysis.
//!
//! The paper lists "the size and number of connected and strongly
//! connected components" among the alternative metric choices (§2.1).
//! These are too expensive to maintain incrementally under edge
//! deletion, so they are computed on demand by a union-find pass over
//! the resolved edges — suitable for occasional metric computation
//! points, not for every event.

use crate::graph::HeapGraph;
use serde::{Deserialize, Serialize};
use sim_heap::ObjectId;
use std::collections::HashMap;

/// Summary of the graph's weakly-connected component structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ComponentSummary {
    /// Number of weakly-connected components.
    pub count: u64,
    /// Vertexes in the largest component.
    pub largest: u64,
    /// Number of singleton components (isolated vertexes).
    pub singletons: u64,
    /// Mean component size (0 for the empty graph).
    pub mean_size: f64,
}

/// Union-find over vertex ids.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<u64>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

impl HeapGraph {
    /// Computes the weakly-connected component summary of the current
    /// graph (treating edges as undirected).
    ///
    /// O(nodes + edges); intended for metric computation points.
    pub fn components(&self) -> ComponentSummary {
        let ids: Vec<ObjectId> = self.node_ids().collect();
        if ids.is_empty() {
            return ComponentSummary::default();
        }
        let index: HashMap<ObjectId, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut uf = UnionFind::new(ids.len());
        for (src, _, dst) in self.edges() {
            uf.union(index[&src], index[&dst]);
        }
        let mut comp_size: HashMap<usize, u64> = HashMap::new();
        for i in 0..ids.len() {
            let root = uf.find(i);
            *comp_size.entry(root).or_default() += 1;
        }
        let count = comp_size.len() as u64;
        let largest = comp_size.values().copied().max().unwrap_or(0);
        let singletons = comp_size.values().filter(|&&s| s == 1).count() as u64;
        ComponentSummary {
            count,
            largest,
            singletons,
            mean_size: ids.len() as f64 / count as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_heap::{Addr, AllocSite, SimHeap};

    fn rig_with_chain(len: usize, isolated: usize) -> HeapGraph {
        let mut heap = SimHeap::new();
        let mut g = HeapGraph::new();
        let mut addrs: Vec<Addr> = Vec::new();
        for _ in 0..len + isolated {
            let eff = heap.alloc(16, AllocSite(0)).unwrap();
            g.on_alloc(eff.id, eff.addr, eff.size);
            addrs.push(eff.addr);
        }
        for w in addrs[..len].windows(2) {
            let eff = heap.write_ptr(w[0].offset(8), w[1]).unwrap();
            g.on_ptr_write(eff.src, eff.offset, w[1]);
        }
        g
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = HeapGraph::new();
        assert_eq!(g.components(), ComponentSummary::default());
    }

    #[test]
    fn chain_is_one_component() {
        let g = rig_with_chain(5, 0);
        let c = g.components();
        assert_eq!(c.count, 1);
        assert_eq!(c.largest, 5);
        assert_eq!(c.singletons, 0);
        assert_eq!(c.mean_size, 5.0);
    }

    #[test]
    fn isolated_vertexes_are_singletons() {
        let g = rig_with_chain(4, 3);
        let c = g.components();
        assert_eq!(c.count, 4);
        assert_eq!(c.largest, 4);
        assert_eq!(c.singletons, 3);
        assert!((c.mean_size - 7.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn direction_is_ignored_for_weak_connectivity() {
        // a -> b <- c : weakly one component.
        let mut heap = SimHeap::new();
        let mut g = HeapGraph::new();
        let alloc = |g: &mut HeapGraph, heap: &mut SimHeap| {
            let eff = heap.alloc(16, AllocSite(0)).unwrap();
            g.on_alloc(eff.id, eff.addr, eff.size);
            eff.addr
        };
        let a = alloc(&mut g, &mut heap);
        let b = alloc(&mut g, &mut heap);
        let c = alloc(&mut g, &mut heap);
        for (src, dst) in [(a, b), (c, b)] {
            let eff = heap.write_ptr(src, dst).unwrap();
            g.on_ptr_write(eff.src, eff.offset, dst);
        }
        assert_eq!(g.components().count, 1);
    }
}

/// Summary of the graph's strongly-connected component structure —
/// the second alternative metric family the paper names (§2.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SccSummary {
    /// Number of strongly-connected components.
    pub count: u64,
    /// Vertexes in the largest SCC.
    pub largest: u64,
    /// SCCs with more than one vertex (true cycles).
    pub nontrivial: u64,
}

impl HeapGraph {
    /// Computes the strongly-connected component summary (iterative
    /// Tarjan), O(nodes + edges).
    ///
    /// Cyclic structures — rings, doubly-linked lists — form
    /// non-trivial SCCs; trees and singly-linked chains do not, which
    /// makes `nontrivial` a cheap cycle census of the heap.
    pub fn sccs(&self) -> SccSummary {
        let ids: Vec<ObjectId> = self.node_ids().collect();
        if ids.is_empty() {
            return SccSummary::default();
        }
        let index: HashMap<ObjectId, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let n = ids.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (src, _, dst) in self.edges() {
            adj[index[&src]].push(index[&dst]);
        }

        // Iterative Tarjan.
        const UNSET: usize = usize::MAX;
        let mut disc = vec![UNSET; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_disc = 0usize;
        let mut count = 0u64;
        let mut largest = 0u64;
        let mut nontrivial = 0u64;

        // Work stack frames: (vertex, next child index).
        for start in 0..n {
            if disc[start] != UNSET {
                continue;
            }
            let mut work: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some(&mut (v, ref mut ci)) = work.last_mut() {
                if *ci == 0 {
                    disc[v] = next_disc;
                    low[v] = next_disc;
                    next_disc += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if *ci < adj[v].len() {
                    let w = adj[v][*ci];
                    *ci += 1;
                    if disc[w] == UNSET {
                        work.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(disc[w]);
                    }
                } else {
                    // v is finished.
                    if low[v] == disc[v] {
                        let mut size = 0u64;
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            size += 1;
                            if w == v {
                                break;
                            }
                        }
                        count += 1;
                        largest = largest.max(size);
                        if size > 1 {
                            nontrivial += 1;
                        }
                    }
                    work.pop();
                    if let Some(&mut (parent, _)) = work.last_mut() {
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
        SccSummary {
            count,
            largest,
            nontrivial,
        }
    }
}

#[cfg(test)]
mod scc_tests {
    use super::*;
    use sim_heap::{Addr, AllocSite, SimHeap};

    struct Rig {
        heap: SimHeap,
        graph: HeapGraph,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                heap: SimHeap::new(),
                graph: HeapGraph::new(),
            }
        }
        fn alloc(&mut self) -> Addr {
            let eff = self.heap.alloc(16, AllocSite(0)).unwrap();
            self.graph.on_alloc(eff.id, eff.addr, eff.size);
            eff.addr
        }
        fn link(&mut self, src: Addr, dst: Addr) {
            let eff = self.heap.write_ptr(src, dst).unwrap();
            self.graph.on_ptr_write(eff.src, eff.offset, dst);
        }
    }

    #[test]
    fn empty_graph_has_no_sccs() {
        assert_eq!(HeapGraph::new().sccs(), SccSummary::default());
    }

    #[test]
    fn a_chain_is_all_trivial_sccs() {
        let mut r = Rig::new();
        let nodes: Vec<Addr> = (0..6).map(|_| r.alloc()).collect();
        for w in nodes.windows(2) {
            r.link(w[0].offset(8), w[1]);
        }
        let s = r.graph.sccs();
        assert_eq!(s.count, 6);
        assert_eq!(s.largest, 1);
        assert_eq!(s.nontrivial, 0);
    }

    #[test]
    fn a_ring_is_one_nontrivial_scc() {
        let mut r = Rig::new();
        let nodes: Vec<Addr> = (0..5).map(|_| r.alloc()).collect();
        for i in 0..5 {
            r.link(nodes[i].offset(8), nodes[(i + 1) % 5]);
        }
        let s = r.graph.sccs();
        assert_eq!(s.count, 1);
        assert_eq!(s.largest, 5);
        assert_eq!(s.nontrivial, 1);
    }

    #[test]
    fn doubly_linked_pairs_form_cycles() {
        // a <-> b, plus a lone c: two SCCs, one non-trivial.
        let mut r = Rig::new();
        let a = r.alloc();
        let b = r.alloc();
        let _c = r.alloc();
        r.link(a, b);
        r.link(b, a);
        let s = r.graph.sccs();
        assert_eq!(s.count, 2);
        assert_eq!(s.largest, 2);
        assert_eq!(s.nontrivial, 1);
    }

    #[test]
    fn mixed_graph_counts() {
        // ring(3) -> chain(2): SCC count = 3 (ring + 2 singles).
        let mut r = Rig::new();
        let ring: Vec<Addr> = (0..3).map(|_| r.alloc()).collect();
        for i in 0..3 {
            r.link(ring[i].offset(8), ring[(i + 1) % 3]);
        }
        let c1 = r.alloc();
        let c2 = r.alloc();
        r.link(ring[0], c1);
        r.link(c1.offset(8), c2);
        let s = r.graph.sccs();
        assert_eq!(s.count, 3);
        assert_eq!(s.largest, 3);
        assert_eq!(s.nontrivial, 1);
    }
}
