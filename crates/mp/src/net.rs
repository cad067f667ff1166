//! Directed message-passing networks.

use simsym_graph::ProcId;
use std::error::Error;
use std::fmt;

/// A directed channel network: processors connected by point-to-point
/// channels. Each processor's channels are *ports*, ordered by insertion —
/// the message-passing counterpart of the named edges of the
/// shared-variable model (§6 analyzes message passing through that lens).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MpNetwork {
    procs: usize,
    /// Channels as `(sender, receiver)` pairs, insertion-ordered.
    channels: Vec<(ProcId, ProcId)>,
}

/// Errors building an [`MpNetwork`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MpError {
    /// A channel endpoint is out of range.
    UnknownProcessor {
        /// The offending id.
        proc: ProcId,
    },
    /// The same directed channel was added twice.
    DuplicateChannel {
        /// The duplicated channel.
        channel: (ProcId, ProcId),
    },
    /// A processor cannot send to itself in this model.
    SelfChannel {
        /// The processor.
        proc: ProcId,
    },
}

impl fmt::Display for MpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpError::UnknownProcessor { proc } => write!(f, "unknown processor {proc}"),
            MpError::DuplicateChannel { channel } => {
                write!(f, "duplicate channel {} -> {}", channel.0, channel.1)
            }
            MpError::SelfChannel { proc } => write!(f, "self channel at {proc}"),
        }
    }
}

impl Error for MpError {}

/// A channel fault policy: per-operation percentages for message loss,
/// duplication, and out-of-order delivery, applied at the send/receive
/// boundaries of the message-passing machine.
///
/// The policy is pure data; the machine draws from its own seeded RNG, so
/// a `(policy, seed, schedule)` triple determines every injected fault —
/// lossy runs replay exactly like fault-free ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelFaults {
    /// Percent (0–100) of sends whose message is silently dropped.
    pub drop_percent: u8,
    /// Percent (0–100) of delivered sends that are enqueued twice.
    pub duplicate_percent: u8,
    /// Percent (0–100) of receives served from a random queue position
    /// instead of the head (only when more than one message is pending).
    pub reorder_percent: u8,
}

impl ChannelFaults {
    /// The fault-free policy.
    pub fn none() -> ChannelFaults {
        ChannelFaults::default()
    }

    /// A policy from explicit percentages.
    ///
    /// # Panics
    ///
    /// Panics if any percentage exceeds 100.
    pub fn new(drop_percent: u8, duplicate_percent: u8, reorder_percent: u8) -> ChannelFaults {
        for (name, p) in [
            ("drop", drop_percent),
            ("duplicate", duplicate_percent),
            ("reorder", reorder_percent),
        ] {
            assert!(p <= 100, "{name} percentage {p} exceeds 100");
        }
        ChannelFaults {
            drop_percent,
            duplicate_percent,
            reorder_percent,
        }
    }

    /// Whether the policy injects nothing.
    pub fn is_none(&self) -> bool {
        self.drop_percent == 0 && self.duplicate_percent == 0 && self.reorder_percent == 0
    }
}

impl MpNetwork {
    /// A network over `procs` processors with no channels yet.
    ///
    /// # Panics
    ///
    /// Panics if `procs == 0`.
    pub fn new(procs: usize) -> MpNetwork {
        assert!(procs > 0, "network needs at least one processor");
        MpNetwork {
            procs,
            channels: Vec::new(),
        }
    }

    /// Adds a directed channel `from → to`.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range endpoints, duplicates, and self-channels.
    pub fn channel(&mut self, from: ProcId, to: ProcId) -> Result<(), MpError> {
        for &p in [&from, &to] {
            if p.index() >= self.procs {
                return Err(MpError::UnknownProcessor { proc: p });
            }
        }
        if from == to {
            return Err(MpError::SelfChannel { proc: from });
        }
        if self.channels.contains(&(from, to)) {
            return Err(MpError::DuplicateChannel {
                channel: (from, to),
            });
        }
        self.channels.push((from, to));
        Ok(())
    }

    /// Number of processors.
    pub fn processor_count(&self) -> usize {
        self.procs
    }

    /// All processors.
    pub fn processors(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.procs).map(ProcId::new)
    }

    /// All channels in insertion order.
    pub fn channels(&self) -> &[(ProcId, ProcId)] {
        &self.channels
    }

    /// The processors that can send to `p`, in port order.
    pub fn in_neighbors(&self, p: ProcId) -> Vec<ProcId> {
        self.channels
            .iter()
            .filter(|&&(_, to)| to == p)
            .map(|&(from, _)| from)
            .collect()
    }

    /// The processors `p` can send to, in port order.
    pub fn out_neighbors(&self, p: ProcId) -> Vec<ProcId> {
        self.channels
            .iter()
            .filter(|&&(from, _)| from == p)
            .map(|&(_, to)| to)
            .collect()
    }

    /// Whether every channel has its reverse — the *bidirectional* case of
    /// §6.
    pub fn is_bidirectional(&self) -> bool {
        self.channels
            .iter()
            .all(|&(a, b)| self.channels.contains(&(b, a)))
    }

    /// Whether the network is strongly connected (every processor reaches
    /// every other along channels).
    pub fn is_strongly_connected(&self) -> bool {
        if self.procs == 1 {
            return true;
        }
        let reach_all = |start: usize, forward: bool| -> bool {
            let mut seen = vec![false; self.procs];
            seen[start] = true;
            let mut stack = vec![start];
            while let Some(i) = stack.pop() {
                for &(a, b) in &self.channels {
                    let (src, dst) = if forward {
                        (a.index(), b.index())
                    } else {
                        (b.index(), a.index())
                    };
                    if src == i && !seen[dst] {
                        seen[dst] = true;
                        stack.push(dst);
                    }
                }
            }
            seen.into_iter().all(|s| s)
        };
        reach_all(0, true) && reach_all(0, false)
    }

    /// A unidirectional ring: `i → i+1 (mod n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn ring_unidirectional(n: usize) -> MpNetwork {
        assert!(n >= 2, "ring needs at least 2 processors");
        let mut net = MpNetwork::new(n);
        for i in 0..n {
            net.channel(ProcId::new(i), ProcId::new((i + 1) % n))
                .expect("ring wiring");
        }
        net
    }

    /// A bidirectional ring.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (and for n = 2 the two directions collapse onto
    /// the same pair, which is fine: two distinct directed channels).
    pub fn ring_bidirectional(n: usize) -> MpNetwork {
        assert!(n >= 2, "ring needs at least 2 processors");
        let mut net = MpNetwork::new(n);
        for i in 0..n {
            net.channel(ProcId::new(i), ProcId::new((i + 1) % n))
                .expect("ring wiring");
        }
        for i in 0..n {
            let (from, to) = (ProcId::new((i + 1) % n), ProcId::new(i));
            if !net.channels.contains(&(from, to)) {
                net.channel(from, to).expect("ring wiring");
            }
        }
        net
    }

    /// A unidirectional chain `0 → 1 → … → n-1` — fair and **not**
    /// strongly connected: the §6 case that behaves like fair S.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn chain(n: usize) -> MpNetwork {
        assert!(n >= 2, "chain needs at least 2 processors");
        let mut net = MpNetwork::new(n);
        for i in 0..n - 1 {
            net.channel(ProcId::new(i), ProcId::new(i + 1))
                .expect("chain wiring");
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn building_and_queries() {
        let mut net = MpNetwork::new(3);
        net.channel(ProcId::new(0), ProcId::new(1)).unwrap();
        net.channel(ProcId::new(2), ProcId::new(1)).unwrap();
        assert_eq!(
            net.in_neighbors(ProcId::new(1)),
            vec![ProcId::new(0), ProcId::new(2)]
        );
        assert_eq!(net.out_neighbors(ProcId::new(0)), vec![ProcId::new(1)]);
        assert!(net.in_neighbors(ProcId::new(0)).is_empty());
        assert!(!net.is_bidirectional());
        assert!(!net.is_strongly_connected());
    }

    #[test]
    fn validation() {
        let mut net = MpNetwork::new(2);
        assert!(matches!(
            net.channel(ProcId::new(0), ProcId::new(5)),
            Err(MpError::UnknownProcessor { .. })
        ));
        assert!(matches!(
            net.channel(ProcId::new(0), ProcId::new(0)),
            Err(MpError::SelfChannel { .. })
        ));
        net.channel(ProcId::new(0), ProcId::new(1)).unwrap();
        assert!(matches!(
            net.channel(ProcId::new(0), ProcId::new(1)),
            Err(MpError::DuplicateChannel { .. })
        ));
    }

    #[test]
    fn ring_topologies() {
        let uni = MpNetwork::ring_unidirectional(4);
        assert!(uni.is_strongly_connected());
        assert!(!uni.is_bidirectional());
        let bi = MpNetwork::ring_bidirectional(4);
        assert!(bi.is_strongly_connected());
        assert!(bi.is_bidirectional());
        assert_eq!(bi.channels().len(), 8);
    }

    #[test]
    fn chain_is_weakly_connected_only() {
        let c = MpNetwork::chain(4);
        assert!(!c.is_strongly_connected());
        assert_eq!(c.in_neighbors(ProcId::new(0)).len(), 0);
        assert_eq!(c.in_neighbors(ProcId::new(3)).len(), 1);
    }

    #[test]
    fn error_display() {
        let e = MpError::SelfChannel {
            proc: ProcId::new(1),
        };
        assert!(e.to_string().contains("self channel"));
    }
}
