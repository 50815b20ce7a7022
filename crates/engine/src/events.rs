//! The deterministic event queue.
//!
//! Serving-time dynamics are expressed as discrete [`Event`]s stamped with a
//! `(tick, seq)` pair. The queue is a min-heap ordered by that pair, so the
//! engine consumes events in exactly the order the workload generator (or
//! any other producer) emitted them — independent of hash state, thread
//! scheduling or wall-clock time. Determinism of the whole serving run
//! reduces to determinism of the event stream.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use idde_model::{DataId, ServerId, UserId};
use idde_net::{EdgeGraph, LinkState, NetworkFaults};

/// One serving-time occurrence: user churn, a request, or an injected
/// infrastructure fault. Faults are ordinary events — a chaos run is just
/// another `(tick, seq)`-ordered stream, so it inherits every determinism
/// guarantee of the healthy serve loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A user slot becomes active (a user enters the edge area).
    Arrive {
        /// The arriving user.
        user: UserId,
    },
    /// An active user leaves the edge area; its channel is released.
    Depart {
        /// The departing user.
        user: UserId,
    },
    /// An active user moves by `(dx, dy)` metres (random-waypoint style,
    /// clamped to the scenario area by the engine).
    Move {
        /// The moving user.
        user: UserId,
        /// Per-axis displacement in metres.
        dx: f64,
        /// Per-axis displacement in metres.
        dy: f64,
    },
    /// An active user requests one data item; the engine serves it under the
    /// current strategy and records the delivery latency.
    Request {
        /// The requesting user.
        user: UserId,
        /// The requested item.
        data: DataId,
    },
    /// The link joining servers `a` and `b` fails: it drops out of the
    /// surviving graph and every lowest-latency path through it is
    /// recomputed (Eq. 7/8 cloud fallback serves items that become
    /// unreachable).
    LinkDown {
        /// One endpoint.
        a: ServerId,
        /// The other endpoint.
        b: ServerId,
    },
    /// The link joining `a` and `b` comes back at full speed.
    LinkRestore {
        /// One endpoint.
        a: ServerId,
        /// The other endpoint.
        b: ServerId,
    },
    /// The link joining `a` and `b` degrades to `factor` of its base speed
    /// (`0 < factor ≤ 1`) without failing outright.
    LinkDegrade {
        /// One endpoint.
        a: ServerId,
        /// The other endpoint.
        b: ServerId,
        /// Speed multiplier in `(0, 1]`.
        factor: f64,
    },
    /// An edge server goes down: its channel occupants are displaced, its
    /// replicas are lost, its links vanish and it leaves the coverage
    /// relation until restored.
    ServerDown {
        /// The failing server.
        server: ServerId,
    },
    /// A downed server comes back (empty-handed: storage and channels are
    /// reclaimed by subsequent repairs).
    ServerRestore {
        /// The recovering server.
        server: ServerId,
    },
    /// A wide-band jammer raises the interference floor at a server's
    /// channels by `floor_w` watts (enters every Eq. 2 denominator there).
    Jam {
        /// The jammed server.
        server: ServerId,
        /// Added interference floor, watts.
        floor_w: f64,
    },
    /// The jammer at `server` stops; the healthy noise model returns.
    Unjam {
        /// The recovering server.
        server: ServerId,
    },
}

impl Event {
    /// The user the event concerns; `None` for infrastructure faults.
    pub fn user(&self) -> Option<UserId> {
        match *self {
            Event::Arrive { user }
            | Event::Depart { user }
            | Event::Move { user, .. }
            | Event::Request { user, .. } => Some(user),
            Event::LinkDown { .. }
            | Event::LinkRestore { .. }
            | Event::LinkDegrade { .. }
            | Event::ServerDown { .. }
            | Event::ServerRestore { .. }
            | Event::Jam { .. }
            | Event::Unjam { .. } => None,
        }
    }

    /// `true` for injected infrastructure faults and restorations.
    pub fn is_fault(&self) -> bool {
        self.user().is_none()
    }

    /// Applies a link or server fault or restoration to `faults`, the
    /// overlay over the healthy `base` graph; returns whether it changed
    /// anything (a link `base` lacks, a factor outside `(0, 1]`, a restated
    /// state and every other kind of event change nothing).
    pub fn apply_to(&self, faults: &mut NetworkFaults, base: &EdgeGraph) -> bool {
        let (a, b, state) = match *self {
            Event::LinkDown { a, b } => (a, b, LinkState::Down),
            Event::LinkRestore { a, b } => (a, b, LinkState::Up),
            Event::LinkDegrade { a, b, factor } if factor > 0.0 && factor <= 1.0 => {
                (a, b, LinkState::Degraded(factor))
            }
            Event::ServerDown { server } | Event::ServerRestore { server } => {
                let up = matches!(self, Event::ServerRestore { .. });
                let changed = faults.server_up(server) != up;
                faults.set_server(server, up);
                return changed;
            }
            _ => return false,
        };
        let Some(index) = base.find_link(a, b).filter(|&i| faults.link_state(i) != state) else {
            return false;
        };
        faults.set_link(index, state);
        true
    }
}

/// An [`Event`] with its position in the global serving order.
#[derive(Clone, Copy, Debug)]
pub struct ScheduledEvent {
    /// The tick the event belongs to.
    pub tick: u64,
    /// Tie-breaking sequence number within the whole run (assigned by the
    /// queue at push time, strictly increasing).
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.tick, self.seq) == (other.tick, other.seq)
    }
}

impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the std max-heap pops the *smallest* (tick, seq).
        (other.tick, other.seq).cmp(&(self.tick, self.seq))
    }
}

/// A deterministic min-queue of [`ScheduledEvent`]s.
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues `event` at `tick`, after everything already enqueued for
    /// that tick.
    pub fn push(&mut self, tick: u64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { tick, seq, event });
    }

    /// Pops the earliest event (smallest `(tick, seq)`).
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_tick_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(2, Event::Arrive { user: UserId(0) });
        q.push(1, Event::Depart { user: UserId(1) });
        q.push(1, Event::Arrive { user: UserId(2) });
        q.push(0, Event::Request { user: UserId(3), data: DataId(0) });
        let order: Vec<(u64, UserId)> =
            std::iter::from_fn(|| q.pop()).map(|e| (e.tick, e.event.user().unwrap())).collect();
        assert_eq!(order, vec![(0, UserId(3)), (1, UserId(1)), (1, UserId(2)), (2, UserId(0))]);
        assert!(q.is_empty());
    }

    #[test]
    fn fault_events_carry_no_user() {
        assert_eq!(Event::Arrive { user: UserId(1) }.user(), Some(UserId(1)));
        assert!(!Event::Arrive { user: UserId(1) }.is_fault());
        for fault in [
            Event::LinkDown { a: ServerId(0), b: ServerId(1) },
            Event::LinkRestore { a: ServerId(0), b: ServerId(1) },
            Event::LinkDegrade { a: ServerId(0), b: ServerId(1), factor: 0.5 },
            Event::ServerDown { server: ServerId(2) },
            Event::ServerRestore { server: ServerId(2) },
            Event::Jam { server: ServerId(2), floor_w: 1e-3 },
            Event::Unjam { server: ServerId(2) },
        ] {
            assert_eq!(fault.user(), None, "{fault:?}");
            assert!(fault.is_fault(), "{fault:?}");
        }
    }

    #[test]
    fn same_tick_preserves_push_order() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.push(7, Event::Arrive { user: UserId(i) });
        }
        for i in 0..50 {
            assert_eq!(q.pop().unwrap().event.user(), Some(UserId(i)));
        }
    }
}
