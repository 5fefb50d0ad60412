//! Fanout-free regions of a netlist.
//!
//! A line read by exactly one gate pin, and not itself a primary output,
//! has a *single reader*: every change on the line reaches the rest of the
//! circuit through that one gate.  Every other line is a *stem*: a primary
//! output, or a line read by ≠ 1 gate pins (a gate reading a line on two
//! pins makes it a stem).  Following single readers from any line ends at
//! its stem, and the lines sharing a stem form the stem's fanout-free
//! region.
//!
//! [`RegionMap`] computes this once per netlist from its reader lists.  The
//! PPSFP kernel ([`crate::fault_sim`]) compiles one propagation cone per
//! stem on it, and the OBDD test generator factors every fault through the
//! same regions.

use crate::netlist::{Netlist, SignalId};

/// Marks a line without a single reader (a stem).
const NO_READER: u32 = u32::MAX;

/// Reader lists, single readers and stems of one netlist.
#[derive(Clone, Debug, Default)]
pub struct RegionMap {
    /// `readers[reader_start[s]..reader_start[s + 1]]` are the gates reading
    /// signal `s`, one entry per gate pin, in gate order.
    reader_start: Vec<u32>,
    readers: Vec<u32>,
    /// Gate index of each signal's single reader; [`NO_READER`] for a stem.
    reader: Vec<u32>,
    /// Dense slot of each signal's stem.
    slot: Vec<u32>,
    /// The stems, by slot (in signal order).
    stems: Vec<SignalId>,
}

impl RegionMap {
    /// Computes the regions of `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        let n = netlist.signal_count();
        let gates = netlist.gates();
        let mut reader_start = vec![0u32; n + 1];
        for gate in gates {
            for input in &gate.inputs {
                reader_start[input.index() + 1] += 1;
            }
        }
        for s in 0..n {
            reader_start[s + 1] += reader_start[s];
        }
        let mut fill = reader_start.clone();
        let mut readers = vec![0u32; reader_start[n] as usize];
        for (gi, gate) in gates.iter().enumerate() {
            for input in &gate.inputs {
                readers[fill[input.index()] as usize] = gi as u32;
                fill[input.index()] += 1;
            }
        }
        let mut reader: Vec<u32> = (0..n)
            .map(
                |s| match readers[reader_start[s] as usize..reader_start[s + 1] as usize] {
                    [gi] => gi,
                    _ => NO_READER,
                },
            )
            .collect();
        for po in netlist.primary_outputs() {
            reader[po.index()] = NO_READER;
        }
        // Gates are in topological order, so in reverse every reader of a
        // gate's output is done before the gate: the output's stem is final
        // when it passes to the input the gate singly reads.
        let mut stem: Vec<u32> = (0..n as u32).collect();
        for (gi, gate) in gates.iter().enumerate().rev() {
            for input in &gate.inputs {
                if reader[input.index()] == gi as u32 {
                    stem[input.index()] = stem[gate.output.index()];
                }
            }
        }
        let mut slot = vec![0u32; n];
        let mut stems = Vec::new();
        for s in 0..n {
            if reader[s] == NO_READER {
                slot[s] = stems.len() as u32;
                stems.push(SignalId(s as u32));
            }
        }
        for s in 0..n {
            slot[s] = slot[stem[s] as usize];
        }
        RegionMap {
            reader_start,
            readers,
            reader,
            slot,
            stems,
        }
    }

    /// Gate indices (into [`Netlist::gates`]) reading `signal`, one entry
    /// per gate pin, in gate order.
    pub fn readers(&self, signal: SignalId) -> &[u32] {
        let s = signal.index();
        &self.readers[self.reader_start[s] as usize..self.reader_start[s + 1] as usize]
    }

    /// Gate index of the single reader of `signal`; `None` for a stem.
    pub fn reader(&self, signal: SignalId) -> Option<usize> {
        match self.reader[signal.index()] {
            NO_READER => None,
            gi => Some(gi as usize),
        }
    }

    /// Dense slot (`0..stem_count()`) of the stem closing `signal`'s
    /// region.
    pub fn stem_slot(&self, signal: SignalId) -> usize {
        self.slot[signal.index()] as usize
    }

    /// The stem closing `signal`'s region (a stem's own).
    pub fn stem(&self, signal: SignalId) -> SignalId {
        self.stems[self.stem_slot(signal)]
    }

    /// Number of stems (and of stem slots).
    pub fn stem_count(&self) -> usize {
        self.stems.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks;
    use crate::gate::GateKind;

    #[test]
    fn single_readers_end_at_their_stems() {
        // a → NOT → x, x read by AND and OR (a stem); b read twice by one
        // XOR (a stem); the XOR output y has one reader; z and w are outputs.
        let mut n = Netlist::new("regions");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.gate(GateKind::Not, "x", &[a]);
        let y = n.gate(GateKind::Xor, "y", &[b, b]);
        let z = n.gate(GateKind::And, "z", &[x, y]);
        let w = n.gate(GateKind::Or, "w", &[x, z]);
        n.mark_output(z);
        n.mark_output(w);
        let map = RegionMap::new(&n);
        assert_eq!(map.reader(a), Some(0));
        assert_eq!(map.stem(a), x);
        assert_eq!(map.reader(x), None, "read by two gates");
        assert_eq!(map.reader(b), None, "read on two pins of one gate");
        assert_eq!(map.readers(b), &[1, 1]);
        assert_eq!(map.stem(y), z);
        assert_eq!(map.reader(z), None, "a primary output");
        assert_eq!(map.stem_count(), 4);
        assert_eq!(map.stem_slot(a), map.stem_slot(x));
    }

    #[test]
    fn every_region_is_a_chain_of_single_readers() {
        for netlist in benchmarks::iscas85_suite() {
            let map = RegionMap::new(&netlist);
            for s in netlist.signals() {
                let mut at = s;
                while let Some(gi) = map.reader(at) {
                    assert_eq!(map.readers(at), &[gi as u32]);
                    assert!(!netlist.is_primary_output(at));
                    at = netlist.gates()[gi].output;
                }
                assert_eq!(
                    map.stem(s),
                    at,
                    "{} {}",
                    netlist.name(),
                    netlist.signal_name(s)
                );
            }
        }
    }
}
