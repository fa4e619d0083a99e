//! The discrete-event engine: event queue, routing, link delays and the
//! per-node CPU service model that produces throughput saturation and
//! CPU-utilisation curves.
//!
//! # Model
//!
//! * **Events** are packet arrivals and timers, processed in `(time, seq)`
//!   order — fully deterministic for a given seed. A node's re-armable
//!   timeouts ([`Context::set_timeout`]) fire exactly where a timer set in
//!   their place would, and a setting they replace never fires.
//! * **Routing** maps destination IPv4 addresses to nodes: exact addresses
//!   first, then longest-prefix subnets (the guard owns a whole subnet so it
//!   can intercept `COOKIE2` addresses).
//! * **CPU**: each node has a serial CPU. A handler *charges* processing
//!   cost via [`Context::charge`]; charges accumulate into a `next_free`
//!   horizon. A packet arriving when the backlog (`next_free - now`) exceeds
//!   the node's `max_backlog` is dropped at the NIC — this is how an
//!   overloaded server sheds load. Handler outputs are stamped at the time
//!   the charged work completes, so downstream timing reflects queueing.
//! * **Links** between node pairs have a one-way delay and an optional loss
//!   probability; unknown pairs use the default delay.
//! * **Faults**: a [`FaultPlan`] installed on a directed link injects
//!   deterministic, seed-driven duplication, reordering jitter, payload
//!   corruption and extra loss; timed partitions ([`Simulator::partition`],
//!   [`Simulator::isolate`]) cut traffic for a window; and
//!   [`Simulator::crash`]/[`Simulator::restart`] model node failure — a
//!   crash discards in-flight packets, pending timers and unserved CPU
//!   backlog, and a restart re-runs `on_start` so the node can re-register
//!   its protocol state. Links without plans draw no randomness, so
//!   fault-free runs are unchanged.
//!
//! # Data structures
//!
//! The **route table** maps an exact address to its node (subnets are a
//! short list, scanned on a miss). The **link table** holds one record per
//! directed link — delay and loss, fault plan, MTU — whichever of
//! [`Simulator::connect`], [`Simulator::fault_link`] and
//! [`Simulator::set_link_mtu`] wrote it. Both are keyed by integers the
//! simulator made and hashed with one multiply. The **event queue** is a
//! heap of 24-byte `(time, seq, slot)` keys over a slab holding each
//! event's packet or timer, so a sift moves three words; the slot freed
//! last is reused first, and the slab stays at the most events ever in
//! flight. What belongs to one node (its gateway, the fragments planted on
//! it, its **timeouts**) is a field of that node. A timeout keeps its
//! current `(time, seq, tag)` and the keys of its queued entries: one, or
//! two after a re-arm to an earlier time. Re-arming to a later time queues
//! nothing; the entry already queued pops, finds its key stale and is
//! pushed again under the current one, so a timeout re-armed per request
//! costs a pop per deadline it outlives, not per setting. A fault-free
//! routed packet costs two probes (route, link), one clone, one push and
//! one pop; a catchment shift adds a probe of the link actually crossed.

use crate::packet::{Packet, Proto};
use crate::time::SimTime;
use obs::trace::{ComponentTracer, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;

/// Identifies a node within one [`Simulator`].
pub type NodeId = usize;

/// Behaviour plugged into the simulator. Implementors are the servers,
/// guards, resolvers and attackers of the reproduction.
///
/// The `Any` supertrait lets experiments read a node's final state back out
/// of the simulator with [`Simulator::node_ref`].
pub trait Node: Any {
    /// Called once when the simulation starts (or when the node is added to
    /// an already-running simulation).
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called for each packet delivered to one of this node's addresses.
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet);

    /// Called when a timer set via [`Context::set_timer`] or a timeout set
    /// via [`Context::set_timeout`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {}
}

/// Configuration of a node's serial CPU.
#[derive(Debug, Clone, Copy)]
pub struct CpuConfig {
    /// Drop an arriving packet when the CPU backlog exceeds this bound.
    /// Use a small bound (a few ms) for servers with short input queues and
    /// [`SimTime::MAX`] for idealised sinks that never drop.
    pub max_backlog: SimTime,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            // Roughly a few hundred packets of queue at µs-scale costs.
            max_backlog: SimTime::from_millis(2),
        }
    }
}

impl CpuConfig {
    /// A CPU that never drops (infinite queue).
    pub fn unbounded() -> Self {
        CpuConfig {
            max_backlog: SimTime::MAX,
        }
    }
}

/// Counters describing a node's CPU and NIC behaviour during the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Total busy time charged by handlers.
    pub busy: SimTime,
    /// Packets delivered to handlers.
    pub delivered: u64,
    /// Packets dropped at the NIC because the backlog bound was exceeded.
    pub dropped: u64,
}

impl CpuStats {
    /// Busy fraction over `elapsed` (clamped to 1).
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
    }
}

/// Link parameters between a pair of nodes (symmetric).
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// One-way propagation delay.
    pub delay: SimTime,
    /// Probability in `[0, 1]` that a packet on this link is lost.
    pub loss: f64,
}

impl LinkParams {
    /// A lossless link with round-trip time `rtt` (one-way delay `rtt/2`).
    pub fn with_rtt(rtt: SimTime) -> Self {
        LinkParams {
            delay: rtt / 2,
            loss: 0.0,
        }
    }
}

/// A fault-injection plan for one *directed* link, installed with
/// [`Simulator::fault_link`]. All faults are sampled from the simulator's
/// seeded RNG, so runs stay deterministic; a link with no plan draws no
/// randomness and behaves exactly as before.
///
/// Because plans are directional, asymmetric behaviour (e.g. responses lost
/// but requests delivered) is expressed by installing different plans for
/// `(a, b)` and `(b, a)`.
///
/// ```
/// use netsim::engine::FaultPlan;
/// use netsim::time::SimTime;
///
/// let plan = FaultPlan::new()
///     .duplicate(0.1)
///     .reorder(0.2, SimTime::from_millis(5))
///     .corrupt(0.05)
///     .loss(0.01);
/// assert_eq!(plan.duplicate, 0.1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// Probability that a packet is duplicated (one extra copy trails the
    /// original by a microsecond, then takes its own jitter draw).
    pub duplicate: f64,
    /// Probability that a packet's delivery is delayed by a uniform random
    /// amount in `[0, jitter]`, letting later packets overtake it.
    pub reorder: f64,
    /// Upper bound of the reordering jitter window.
    pub jitter: SimTime,
    /// Probability that one random payload byte is XOR-flipped in transit.
    pub corrupt: f64,
    /// Extra loss probability, applied after [`LinkParams::loss`].
    pub loss: f64,
    /// Fraction of *source addresses* whose packets toward this link's
    /// destination are re-routed to [`FaultPlan::shift_to`] instead — a
    /// BGP catchment shift in an anycast deployment. The decision is a
    /// deterministic hash of the source IP, not a per-packet draw: a real
    /// route change moves every packet of an affected prefix, so a shifted
    /// source stays shifted for the plan's lifetime.
    pub shift: f64,
    /// Where catchment-shifted packets land.
    pub shift_to: Option<NodeId>,
}

fn assert_probability(p: f64, what: &str) {
    assert!(
        (0.0..=1.0).contains(&p),
        "{what} probability {p} outside [0, 1]"
    );
}

impl FaultPlan {
    /// A plan that injects nothing (all probabilities zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the duplication probability.
    pub fn duplicate(mut self, p: f64) -> Self {
        assert_probability(p, "duplicate");
        self.duplicate = p;
        self
    }

    /// Sets the reordering probability and jitter window.
    pub fn reorder(mut self, p: f64, jitter: SimTime) -> Self {
        assert_probability(p, "reorder");
        self.reorder = p;
        self.jitter = jitter;
        self
    }

    /// Sets the payload-corruption probability.
    pub fn corrupt(mut self, p: f64) -> Self {
        assert_probability(p, "corrupt");
        self.corrupt = p;
        self
    }

    /// Sets the injected loss probability (on top of any link loss).
    pub fn loss(mut self, p: f64) -> Self {
        assert_probability(p, "loss");
        self.loss = p;
        self
    }

    /// Re-routes a fraction `p` of source addresses to node `to` — an
    /// anycast catchment shift. See [`FaultPlan::shift`].
    pub fn catchment_shift(mut self, p: f64, to: NodeId) -> Self {
        assert_probability(p, "catchment_shift");
        self.shift = p;
        self.shift_to = Some(to);
        self
    }

    /// Whether this plan's catchment shift captures `src`. Deterministic
    /// (splitmix64 of the source address against the shift fraction), so
    /// experiments can predict exactly which sources move.
    pub fn shifts_source(&self, src: Ipv4Addr) -> bool {
        if self.shift <= 0.0 || self.shift_to.is_none() {
            return false;
        }
        // splitmix64 finalizer: well-mixed bits from the raw address.
        let mut z = u64::from(u32::from(src)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % 10_000) < (self.shift * 10_000.0) as u64
    }
}

obs::counters! {
    /// Counters for every fault the simulator injected, from
    /// [`Simulator::fault_stats`].
    pub struct FaultStats;
    /// Live fault accounting: detached counter handles (adopted into a
    /// registry by [`Simulator::attach_obs`]) plus the trace handle fault
    /// injections are reported through.
    struct FaultMetrics: "netsim" {
        /// Packets duplicated (each counts once however many copies resulted).
        duplicated = "fault_duplicated",
        /// Packet copies delayed by reorder jitter.
        reordered = "fault_reordered",
        /// Packet copies with a corrupted payload byte.
        corrupted = "fault_corrupted",
        /// Packets dropped by a [`FaultPlan::loss`] draw.
        injected_loss = "fault_injected_loss",
        /// Packets re-routed to another node by a catchment shift.
        shifted = "catchment_shifted",
        /// Packets dropped because an active partition separated the endpoints.
        partition_dropped = "fault_partition_dropped",
        /// Events (deliveries, timers, starts) discarded because their target
        /// node had crashed, or had crashed and restarted since they were
        /// scheduled.
        crash_dropped = "fault_crash_dropped",
        /// UDP datagrams that exceeded a link MTU and were delivered
        /// network-reassembled (marked [`Packet::fragmented`]).
        fragmented = "fault_fragmented",
        /// Fragmented datagrams whose tail was replaced by a planted spoofed
        /// second fragment ([`Simulator::plant_fragment`]).
        frag_substituted = "fault_frag_substituted",
    }
    fields {
        trace: ComponentTracer,
    }
}

/// A spoofed second fragment planted in a node's reassembly buffer
/// ([`Simulator::plant_fragment`]), modelling "Fragmentation Considered
/// Poisonous": the off-path attacker pre-sends a forged tail fragment so
/// that when the real first fragment of a too-large response arrives, the
/// victim reassembles the attacker's bytes instead of the real ones. The
/// txid, ports and 0x20-cased question all live in the first fragment, so
/// the splice defeats every entropy defense — only refusing reassembled
/// datagrams (or TCP) stops it.
#[derive(Debug, Clone)]
pub struct FragSub {
    /// Source address the planted fragment spoofs; it only combines with
    /// fragmented datagrams genuinely arriving from this address.
    pub src: Ipv4Addr,
    /// Byte offset the planted fragment claims. Reassembly only succeeds
    /// when it equals the actual split point (the link MTU), mirroring the
    /// real attack's need to predict where the sender fragments.
    pub offset: usize,
    /// Payload bytes of the planted second fragment.
    pub payload: Vec<u8>,
}

/// What a timed partition cuts off.
#[derive(Debug, Clone, Copy)]
enum PartitionScope {
    /// Traffic between one specific pair (both directions).
    Pair(NodeId, NodeId),
    /// All traffic to or from one node.
    Node(NodeId),
}

/// A scheduled network partition, active for `from <= t < until`.
#[derive(Debug, Clone, Copy)]
struct Partition {
    scope: PartitionScope,
    from: SimTime,
    until: SimTime,
}

enum EventKind {
    Start(NodeId),
    Deliver(NodeId, Packet),
    Timer(NodeId, u64),
    /// An entry of the node's timeout of this id: it fires only if the
    /// timeout is still set to the entry's key.
    Timeout(NodeId, usize),
}

impl EventKind {
    /// The node this event targets.
    fn target(&self) -> NodeId {
        match *self {
            EventKind::Start(id) => id,
            EventKind::Deliver(id, _) => id,
            EventKind::Timer(id, _) => id,
            EventKind::Timeout(id, _) => id,
        }
    }
}

/// What the heap orders. `seq` is unique, so `slot` never decides.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    time: SimTime,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<EventKey>() <= 24);

/// When a queued event is due: its place in the `(time, seq)` order.
type Due = (SimTime, u64);

/// The rest of a queued event, parked in the slab until its key is popped.
struct Pending {
    kind: EventKind,
    /// Daemon events do not keep [`Simulator::run`] alive; nor does a
    /// timeout's entry, whose setting is counted in its stead.
    daemon: bool,
    /// The target node's crash epoch when the event was scheduled; a
    /// mismatch at pop time means the node crashed in between, so the
    /// event (in-flight packet, pending timer) is discarded.
    epoch: u64,
}

enum EventSlot {
    Held(Pending),
    /// On the free chain; holds the next free slot, or [`NIL`].
    Free(u32),
}

const NIL: u32 = u32::MAX;

/// Events in `(time, seq)` order: a heap of keys over a slab of the rest.
struct EventQueue {
    heap: BinaryHeap<Reverse<EventKey>>,
    slab: Vec<EventSlot>,
    /// Head of the free chain: the slot freed last is reused first.
    free: u32,
    seq: u64,
}

impl EventQueue {
    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(key)| key.time)
    }

    /// Reserves the next sequence number.
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn push(&mut self, time: SimTime, pending: Pending) {
        let seq = self.next_seq();
        self.insert((time, seq), pending);
    }

    /// Queues `pending` under a sequence number reserved earlier.
    fn insert(&mut self, (time, seq): Due, pending: Pending) {
        let held = EventSlot::Held(pending);
        let slot = match self.free {
            NIL => {
                self.slab.push(held);
                self.slab.len() as u32 - 1
            }
            slot => {
                let at = &mut self.slab[slot as usize];
                let EventSlot::Free(next) = std::mem::replace(at, held) else {
                    unreachable!("the free chain threads free slots only");
                };
                self.free = next;
                slot
            }
        };
        self.heap.push(Reverse(EventKey { time, seq, slot }));
    }

    fn pop(&mut self) -> Option<(Due, Pending)> {
        let Reverse(EventKey { time, seq, slot }) = self.heap.pop()?;
        let at = &mut self.slab[slot as usize];
        let EventSlot::Held(pending) = std::mem::replace(at, EventSlot::Free(self.free)) else {
            unreachable!("a queued key owns a held slot");
        };
        self.free = slot;
        Some(((time, seq), pending))
    }

    /// Takes every entry that `ours` picks out of the queue, freeing its
    /// slot. It rebuilds the heap, so it runs only when a timeout would
    /// otherwise queue a third entry.
    fn remove(&mut self, ours: impl Fn(&Pending) -> bool) {
        let EventQueue { heap, slab, free, .. } = self;
        heap.retain(|Reverse(key)| {
            let at = &mut slab[key.slot as usize];
            let EventSlot::Held(pending) = at else {
                unreachable!("a queued key owns a held slot");
            };
            if !ours(pending) {
                return true;
            }
            *at = EventSlot::Free(*free);
            *free = key.slot;
            false
        });
    }
}

/// One re-armable timeout of a node ([`Context::set_timeout`]).
#[derive(Clone, Copy, Default)]
struct Timeout {
    /// The setting in force, if any, and the tag it fires with: it fires
    /// when an entry under exactly its key pops.
    armed: Option<(Due, u64)>,
    /// The keys of this timeout's queued entries, earliest first. While
    /// the timeout is armed the first is at or before its key.
    queued: [Option<Due>; 2],
}

/// Hashes the engine's own keys — a route's `u32` address, a link's packed
/// node pair — with one multiply, folding the product's well-mixed high
/// half onto the bits a table indexes by. Every key is inserted by the
/// experiment that builds the world (a simulated sender can only make the
/// engine look one up), so SipHash's flooding resistance protects nothing.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("engine tables are keyed by u32 and u64");
    }
    fn write_u32(&mut self, key: u32) {
        self.write_u64(u64::from(key));
    }
    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Everything configured on one directed link. [`Simulator::connect`],
/// [`Simulator::fault_link`] and [`Simulator::set_link_mtu`] each write
/// their field; a packet reads all three with one probe. A pair nobody
/// configured reads as the default: default delay, no faults, no MTU.
#[derive(Clone, Copy, Default)]
struct Link {
    params: Option<LinkParams>,
    fault: FaultPlan,
    /// UDP payloads above the MTU arrive network-reassembled
    /// ([`Packet::fragmented`] set).
    mtu: Option<usize>,
}

fn link_key(from: NodeId, to: NodeId) -> u64 {
    (from as u64) << 32 | to as u64
}

struct NodeSlot {
    node: Box<dyn Node>,
    cpu_config: CpuConfig,
    next_free: SimTime,
    stats: CpuStats,
    /// Incremented on every crash; events carry the epoch they were
    /// scheduled under and are discarded on mismatch.
    epoch: u64,
    /// While crashed a node receives no events at all.
    crashed: bool,
    /// Egress tap: everything this node sends is handed to the gateway.
    gateway: Option<NodeId>,
    /// Spoofed second fragments planted in this node's reassembly buffer.
    frag_subs: Vec<FragSub>,
    /// The node's timeouts, indexed by the id [`Context::set_timeout`]
    /// names; a crash clears them.
    timeouts: Vec<Timeout>,
}

/// Deferred actions a handler produced, applied when it returns.
enum Action {
    Send(Packet),
    SendDirect(NodeId, Packet),
    Timer(SimTime, u64, /* daemon */ bool),
    Timeout(usize, SimTime, u64),
    ClaimAddress(Ipv4Addr),
    ClaimSubnet(Ipv4Addr, u8),
}

/// The handler-side view of the simulator.
///
/// Handlers observe time via [`Context::now`] (their CPU service start),
/// account for work with [`Context::charge`], and emit packets/timers that
/// take effect when the charged work completes.
pub struct Context<'a> {
    now: SimTime,
    node: NodeId,
    rng: &'a mut SmallRng,
    charged: SimTime,
    actions: &'a mut Vec<Action>,
}

impl Context<'_> {
    /// Current simulated time (the moment this handler started service).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being invoked.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Adds CPU cost to this handler's execution. Outgoing packets and the
    /// node's next service slot are pushed back by the total charge.
    pub fn charge(&mut self, cost: SimTime) {
        self.charged += cost;
    }

    /// Sends a packet. It leaves the node when the handler's charged work
    /// completes and arrives after the link delay (unless lost).
    pub fn send(&mut self, pkt: Packet) {
        self.actions.push(Action::Send(pkt));
    }

    /// Delivers a packet directly to a specific node, bypassing routing and
    /// any gateway tap. Middleboxes use this to hand intercepted packets to
    /// the host they front without address rewriting.
    pub fn send_direct(&mut self, node: NodeId, pkt: Packet) {
        self.actions.push(Action::SendDirect(node, pkt));
    }

    /// Schedules `on_timer(tag)` on this node after `delay` (measured from
    /// handler completion).
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.actions.push(Action::Timer(delay, tag, false));
    }

    /// Like [`Context::set_timer`], but the timer does not keep the
    /// simulation alive: [`Simulator::run`] returns once only daemon timers
    /// remain. Use for periodic housekeeping (reapers, rate windows) that
    /// re-arms itself forever.
    pub fn set_daemon_timer(&mut self, delay: SimTime, tag: u64) {
        self.actions.push(Action::Timer(delay, tag, true));
    }

    /// Sets this node's timeout `id` to call `on_timer(tag)` after `delay`
    /// (measured from handler completion), replacing whatever the timeout
    /// was set to before. It is exactly a cancel of the old setting
    /// followed by [`Context::set_timer`]`(delay, tag)`: it fires where
    /// that timer would, in the same `(time, seq)` order, and the setting
    /// it replaced never fires. A timeout that fired is unset until set
    /// again; a set timeout keeps [`Simulator::run`] alive like a timer.
    ///
    /// Ids index a table of the node's, so keep them small (a request
    /// slot's number). Use this for a deadline re-armed per request, where
    /// a timer per setting would leave the superseded ones queued.
    pub fn set_timeout(&mut self, id: usize, delay: SimTime, tag: u64) {
        self.actions.push(Action::Timeout(id, delay, tag));
    }

    /// Re-binds an exact address to *this* node when the handler completes,
    /// replacing any previous owner. This is the failover takeover
    /// primitive: a standby that declares its peer dead claims the guarded
    /// address so subsequent packets route to it. In-flight packets already
    /// addressed to the old owner are unaffected (routing happens at send
    /// time).
    pub fn claim_address(&mut self, addr: Ipv4Addr) {
        self.actions.push(Action::ClaimAddress(addr));
    }

    /// Re-binds a whole `base/prefix` subnet to this node when the handler
    /// completes. An existing route for the same `base/prefix` is replaced
    /// rather than shadowed, so repeated claims cannot grow the routing
    /// table.
    pub fn claim_subnet(&mut self, base: Ipv4Addr, prefix: u8) {
        self.actions.push(Action::ClaimSubnet(base, prefix));
    }

    /// Deterministic per-simulation random source.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

/// The discrete-event simulator.
///
/// # Examples
///
/// ```
/// use netsim::engine::{Context, CpuConfig, Node, Simulator};
/// use netsim::packet::{Endpoint, Packet};
/// use netsim::time::SimTime;
/// use std::net::Ipv4Addr;
///
/// struct Echo;
/// impl Node for Echo {
///     fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
///         ctx.send(Packet::udp(pkt.dst, pkt.src, pkt.payload));
///     }
/// }
///
/// struct Probe { replies: u32 }
/// impl Node for Probe {
///     fn on_start(&mut self, ctx: &mut Context<'_>) {
///         let me = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 4000);
///         let echo = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
///         ctx.send(Packet::udp(me, echo, b"ping".to_vec()));
///     }
///     fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {
///         self.replies += 1;
///     }
/// }
///
/// let mut sim = Simulator::new(1);
/// let probe = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::default(), Probe { replies: 0 });
/// sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::default(), Echo);
/// sim.run();
/// assert_eq!(sim.node_ref::<Probe>(probe).unwrap().replies, 1);
/// ```
pub struct Simulator {
    now: SimTime,
    queue: EventQueue,
    nodes: Vec<NodeSlot>,
    /// Exact addresses (as `u32`) to their nodes.
    routes: IntMap<u32, NodeId>,
    subnets: Vec<(u32, u32, NodeId)>, // (base, mask, node), longest prefix wins
    /// Directed links by [`link_key`].
    links: IntMap<u64, Link>,
    default_delay: SimTime,
    rng: SmallRng,
    unrouted: u64,
    /// Non-daemon events currently queued; [`Simulator::run`] stops at 0.
    live_events: usize,
    /// Timed partitions not yet healed, checked at packet departure time.
    partitions: Vec<Partition>,
    fault_metrics: FaultMetrics,
    /// The action buffer every handler fills through its [`Context`], empty
    /// between dispatches: a dispatch that sends or arms a timer does not
    /// allocate one.
    actions: Vec<Action>,
}

impl Simulator {
    /// Creates an empty simulator with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue {
                heap: BinaryHeap::new(),
                slab: Vec::new(),
                free: NIL,
                seq: 0,
            },
            nodes: Vec::new(),
            routes: IntMap::default(),
            subnets: Vec::new(),
            links: IntMap::default(),
            default_delay: SimTime::from_micros(200), // 0.4 ms RTT LAN default
            rng: SmallRng::seed_from_u64(seed),
            unrouted: 0,
            live_events: 0,
            partitions: Vec::new(),
            fault_metrics: FaultMetrics::default(),
            actions: Vec::new(),
        }
    }

    /// Attaches an observability bundle: the fault counters are adopted
    /// into `obs.registry` under component `netsim`, and fault injections
    /// start emitting trace events (component `netsim`, sim-time stamped).
    pub fn attach_obs(&mut self, obs: &obs::Obs) {
        self.fault_metrics.adopt_into(&obs.registry, &[]);
        self.fault_metrics.trace = obs.tracer.component("netsim");
    }

    /// Registers `gateway` as the egress tap for `node`: every packet
    /// `node` sends is delivered to `gateway` (addresses untouched) instead
    /// of being routed. The gateway's own sends route normally, so it can
    /// inspect/modify and forward. This models a transparent middlebox
    /// (like the paper's local DNS guard) sitting in front of a host.
    pub fn set_gateway(&mut self, node: NodeId, gateway: NodeId) {
        assert_ne!(node, gateway, "a node cannot be its own gateway");
        self.nodes[node].gateway = Some(gateway);
    }

    /// Sets the one-way delay used for node pairs without an explicit link.
    pub fn set_default_delay(&mut self, delay: SimTime) {
        self.default_delay = delay;
    }

    /// Adds a node owning one address. More addresses and subnets can be
    /// attached with [`Simulator::add_address`] / [`Simulator::add_subnet`].
    pub fn add_node<N: Node>(&mut self, addr: Ipv4Addr, cpu: CpuConfig, node: N) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(NodeSlot {
            node: Box::new(node),
            cpu_config: cpu,
            next_free: SimTime::ZERO,
            stats: CpuStats::default(),
            epoch: 0,
            crashed: false,
            gateway: None,
            frag_subs: Vec::new(),
            timeouts: Vec::new(),
        });
        self.add_address(addr, id);
        self.push(self.now, EventKind::Start(id));
        id
    }

    /// Routes an additional exact address to `node`.
    pub fn add_address(&mut self, addr: Ipv4Addr, node: NodeId) {
        self.routes.insert(u32::from(addr), node);
    }

    /// Routes a whole `base/prefix` subnet to `node` (exact addresses still
    /// take precedence; among subnets the longest prefix wins). A route
    /// already held for the identical `base/prefix` is replaced, so repeated
    /// registrations and take-overs ([`Context::claim_subnet`]) cannot grow
    /// the table.
    pub fn add_subnet(&mut self, base: Ipv4Addr, prefix: u8, node: NodeId) {
        assert!(prefix <= 32, "invalid prefix {prefix}");
        let mask = if prefix == 0 { 0 } else { u32::MAX << (32 - prefix) };
        let base = u32::from(base) & mask;
        self.subnets.retain(|&(b, m, _)| (b, m) != (base, mask));
        self.subnets.push((base, mask, node));
        // Keep longest prefixes first so the first match wins.
        self.subnets.sort_by_key(|s| Reverse(s.1));
    }

    /// The record of the directed link `from -> to`, made on first write.
    fn link_mut(&mut self, from: NodeId, to: NodeId) -> &mut Link {
        self.links.entry(link_key(from, to)).or_default()
    }

    /// What is configured on `from -> to`; the default if nothing is.
    fn link(&self, from: NodeId, to: NodeId) -> Link {
        self.links
            .get(&link_key(from, to))
            .copied()
            .unwrap_or_default()
    }

    /// Configures the (symmetric) link between two nodes.
    pub fn connect(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.link_mut(a, b).params = Some(params);
        self.link_mut(b, a).params = Some(params);
    }

    /// Convenience: lossless link with the given RTT.
    pub fn connect_rtt(&mut self, a: NodeId, b: NodeId, rtt: SimTime) {
        self.connect(a, b, LinkParams::with_rtt(rtt));
    }

    /// Installs a fault plan on the *directed* link `from -> to` (replacing
    /// any previous plan for that direction). Install different plans per
    /// direction for asymmetric faults; use [`Simulator::fault_link_both`]
    /// for symmetric ones. Faults apply to routed packets; gateway taps and
    /// [`Context::send_direct`] hops model an internal bus and bypass them.
    pub fn fault_link(&mut self, from: NodeId, to: NodeId, plan: FaultPlan) {
        self.link_mut(from, to).fault = plan;
    }

    /// Installs the same fault plan in both directions between `a` and `b`.
    pub fn fault_link_both(&mut self, a: NodeId, b: NodeId, plan: FaultPlan) {
        self.fault_link(a, b, plan);
        self.fault_link(b, a, plan);
    }

    /// Sets the MTU of the *directed* link `from -> to`. UDP datagrams
    /// whose payload exceeds `mtu` still arrive whole (the simulator
    /// reassembles instantly) but are marked [`Packet::fragmented`] — the
    /// state fragmentation-poisoning exploits and hardened receivers
    /// refuse. TCP segments are unaffected (path-MTU discovery keeps
    /// segments under the MTU in real stacks).
    pub fn set_link_mtu(&mut self, from: NodeId, to: NodeId, mtu: usize) {
        assert!(mtu > 0, "zero MTU");
        self.link_mut(from, to).mtu = Some(mtu);
    }

    /// Plants a spoofed second fragment in `at`'s reassembly buffer. Every
    /// subsequent fragmented UDP datagram arriving at `at` from
    /// [`FragSub::src`] whose split point equals [`FragSub::offset`] is
    /// delivered with its tail replaced by the planted payload. The plant
    /// persists until [`Simulator::clear_fragment_plants`] — modelling an
    /// attacker continuously refreshing the poisoned fragment.
    pub fn plant_fragment(&mut self, at: NodeId, sub: FragSub) {
        self.nodes[at].frag_subs.push(sub);
    }

    /// Removes every planted fragment at `at`.
    pub fn clear_fragment_plants(&mut self, at: NodeId) {
        self.nodes[at].frag_subs.clear();
    }

    /// Cuts all traffic between `a` and `b` (both directions) for packets
    /// departing in `[from, until)`. The partition heals by itself.
    pub fn partition(&mut self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) {
        assert!(from < until, "empty partition window");
        self.partitions.push(Partition {
            scope: PartitionScope::Pair(a, b),
            from,
            until,
        });
    }

    /// Cuts all traffic to and from `node` for packets departing in
    /// `[from, until)`.
    pub fn isolate(&mut self, node: NodeId, from: SimTime, until: SimTime) {
        assert!(from < until, "empty partition window");
        self.partitions.push(Partition {
            scope: PartitionScope::Node(node),
            from,
            until,
        });
    }

    /// Crashes a node immediately: every queued event targeting it —
    /// in-flight packets, pending timers and timeouts, unserved CPU
    /// backlog — is discarded, and nothing reaches it until
    /// [`Simulator::restart`].
    /// The node object itself is kept; crash a node and swap its state
    /// with [`Simulator::restart_with`] to model volatile-state loss.
    pub fn crash(&mut self, node: NodeId) {
        let slot = &mut self.nodes[node];
        assert!(!slot.crashed, "node {node} is already crashed");
        slot.crashed = true;
        slot.epoch += 1;
        slot.next_free = SimTime::ZERO; // in-flight CPU work is abandoned
        // The timeouts go with the epoch; their queued entries carry the
        // old one and are dropped when they pop.
        let armed = slot.timeouts.drain(..).filter(|t| t.armed.is_some()).count();
        self.live_events -= armed;
    }

    /// Restarts a crashed node: its `on_start` handler runs again (at the
    /// current time) so it can re-register protocol state and timers.
    /// Packets sent towards the node while it was down arrive only if
    /// still in flight at restart.
    pub fn restart(&mut self, node: NodeId) {
        let slot = &mut self.nodes[node];
        assert!(slot.crashed, "node {node} is not crashed");
        slot.crashed = false;
        slot.next_free = self.now;
        self.push(self.now, EventKind::Start(node));
    }

    /// Like [`Simulator::restart`], but replaces the node object first —
    /// the restarted node comes back with `fresh`'s state, modelling a
    /// process that lost everything volatile.
    pub fn restart_with<N: Node>(&mut self, node: NodeId, fresh: N) {
        self.nodes[node].node = Box::new(fresh);
        self.restart(node);
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[node].crashed
    }

    /// Counters of all injected faults so far (snapshot of the live
    /// registry-backed counters).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_metrics.snapshot()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events in the queue: packets in flight, timers, and the entries of
    /// set timeouts (live or stale).
    pub fn queued_events(&self) -> usize {
        self.queue.heap.len()
    }

    /// Count of packets that matched no route.
    pub fn unrouted(&self) -> u64 {
        self.unrouted
    }

    /// CPU statistics of a node.
    pub fn cpu_stats(&self, node: NodeId) -> CpuStats {
        self.nodes[node].stats
    }

    /// Resets a node's CPU statistics (for measuring over a window) and
    /// returns the previous values.
    pub fn reset_cpu_stats(&mut self, node: NodeId) -> CpuStats {
        std::mem::take(&mut self.nodes[node].stats)
    }

    /// Borrows a node's concrete state.
    pub fn node_ref<N: Node>(&self, id: NodeId) -> Option<&N> {
        let any: &dyn Any = &*self.nodes[id].node;
        any.downcast_ref::<N>()
    }

    /// Mutably borrows a node's concrete state.
    pub fn node_mut<N: Node>(&mut self, id: NodeId) -> Option<&mut N> {
        let any: &mut dyn Any = &mut *self.nodes[id].node;
        any.downcast_mut::<N>()
    }

    /// Injects a packet into the network as if `from_node` had sent it at
    /// the current time (used by test harnesses).
    pub fn inject(&mut self, from_node: NodeId, pkt: Packet) {
        self.route_packet(from_node, self.now, pkt);
    }

    /// Schedules an extra timer on a node from outside (e.g. a harness
    /// kicking a workload at a specific time).
    pub fn schedule_timer(&mut self, node: NodeId, at: SimTime, tag: u64) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.push(at, EventKind::Timer(node, tag));
    }

    /// Runs until no non-daemon events remain. Periodic housekeeping timers
    /// armed with [`Context::set_daemon_timer`] do not keep the run alive.
    pub fn run(&mut self) {
        while self.live_events > 0 && self.step() {}
    }

    /// Runs events with `time <= until`, then advances the clock to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.queue.next_time() {
            if t > until {
                break;
            }
            self.step();
        }
        self.now = self.now.max(until);
    }

    /// Runs for `d` of simulated time from now.
    pub fn run_for(&mut self, d: SimTime) {
        let until = self.now + d;
        self.run_until(until);
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        self.push_with(time, kind, false);
    }

    fn push_with(&mut self, time: SimTime, kind: EventKind, daemon: bool) {
        if !daemon {
            self.live_events += 1;
        }
        let epoch = self.nodes[kind.target()].epoch;
        self.queue.push(
            time,
            Pending {
                kind,
                daemon,
                epoch,
            },
        );
    }

    fn step(&mut self) -> bool {
        let Some((due, ev)) = self.queue.pop() else {
            return false;
        };
        let time = due.0;
        if !ev.daemon {
            self.live_events -= 1;
        }
        debug_assert!(time >= self.now, "event time went backwards");
        self.now = time;
        {
            let slot = &self.nodes[ev.kind.target()];
            if slot.crashed || slot.epoch != ev.epoch {
                self.fault_metrics.crash_dropped.inc();
                self.fault_metrics.trace.event(
                    time.as_nanos(),
                    "crash_dropped",
                    &[("node", Value::U64(ev.kind.target() as u64))],
                );
                return true;
            }
        }
        match ev.kind {
            EventKind::Start(id) => self.dispatch(id, time, |node, ctx| node.on_start(ctx)),
            EventKind::Timer(id, tag) => {
                self.dispatch(id, time, |node, ctx| node.on_timer(ctx, tag))
            }
            EventKind::Timeout(id, timeout) => self.timeout_due(id, timeout, due),
            EventKind::Deliver(id, pkt) => {
                let slot = &mut self.nodes[id];
                let backlog = slot.next_free.saturating_sub(time);
                if backlog > slot.cpu_config.max_backlog {
                    slot.stats.dropped += 1;
                } else {
                    slot.stats.delivered += 1;
                    self.dispatch(id, time, |node, ctx| node.on_packet(ctx, pkt));
                }
            }
        }
        true
    }

    /// Sets `node`'s timeout `id` to fire at `time` with `tag`, under the
    /// next sequence number: where a timer set now would be.
    fn set_timeout(&mut self, node: NodeId, id: usize, time: SimTime, tag: u64) {
        let due = (time, self.queue.next_seq());
        let slot = &mut self.nodes[node];
        let epoch = slot.epoch;
        if slot.timeouts.len() <= id {
            slot.timeouts.resize(id + 1, Timeout::default());
        }
        let timeout = &mut slot.timeouts[id];
        if timeout.armed.replace((due, tag)).is_none() {
            self.live_events += 1;
        }
        match timeout.queued {
            // An entry at or before the new key wakes the timeout in time
            // to move it there.
            [Some(first), _] if first <= due => return,
            [first, None] => timeout.queued = [Some(due), first],
            // A third entry: take the two from the queue instead.
            [_, Some(_)] => {
                timeout.queued = [Some(due), None];
                self.queue.remove(|p| {
                    p.epoch == epoch && matches!(p.kind, EventKind::Timeout(n, i) if (n, i) == (node, id))
                });
            }
        }
        let kind = EventKind::Timeout(node, id);
        self.queue.insert(due, Pending { kind, daemon: true, epoch });
    }

    /// An entry of `node`'s timeout `id` popped under `popped`: fire the
    /// timeout if it is set to that key, else queue its setting again if
    /// no other entry waits at or before it.
    ///
    /// Out of line, so that [`Simulator::step`] holds only the three
    /// handler calls it held before timeouts: a timeout's pop is rare
    /// beside packets.
    #[inline(never)]
    fn timeout_due(&mut self, node: NodeId, id: usize, popped: Due) {
        let slot = &mut self.nodes[node];
        let epoch = slot.epoch;
        let timeout = &mut slot.timeouts[id];
        debug_assert_eq!(timeout.queued[0], Some(popped), "entries pop earliest first");
        let next = timeout.queued[1];
        timeout.queued = [next, None];
        match timeout.armed {
            Some((due, tag)) if due == popped => {
                timeout.armed = None;
                self.live_events -= 1;
                self.dispatch(node, popped.0, |node, ctx| node.on_timer(ctx, tag));
            }
            // Re-armed to a later time since this entry was queued.
            Some((due, _)) if next.is_none_or(|next| next > due) => {
                timeout.queued = [Some(due), next];
                let kind = EventKind::Timeout(node, id);
                self.queue.insert(due, Pending { kind, daemon: true, epoch });
            }
            // Fired already, or the other entry serves the setting.
            _ => {}
        }
    }

    /// Runs one handler with CPU serialisation and applies its actions.
    ///
    /// Inlined at every call: left to the compiler, the copy that delivers
    /// a packet went out of [`Simulator::step`] once timeouts made this
    /// body larger, a call more per packet in every world.
    #[inline(always)]
    fn dispatch<F>(&mut self, id: NodeId, arrival: SimTime, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut Context<'_>),
    {
        // The node, the RNG and the action buffer are three fields of the
        // simulator, borrowed side by side for the handler's run.
        let slot = &mut self.nodes[id];
        let service_start = slot.next_free.max(arrival);
        let mut ctx = Context {
            now: service_start,
            node: id,
            rng: &mut self.rng,
            charged: SimTime::ZERO,
            actions: &mut self.actions,
        };
        f(&mut *slot.node, &mut ctx);
        let charged = ctx.charged;
        let completion = service_start + charged;
        slot.next_free = completion;
        slot.stats.busy += charged;

        if self.actions.is_empty() {
            return;
        }
        // Applying an action needs the whole simulator, so the buffer steps
        // out for the loop and comes back drained, capacity kept.
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Send(pkt) => match self.nodes[id].gateway {
                    Some(gw) => self.send_hop(id, gw, completion, pkt),
                    None => self.route_packet(id, completion, pkt),
                },
                Action::SendDirect(target, pkt) => self.send_hop(id, target, completion, pkt),
                Action::Timer(delay, tag, daemon) => {
                    self.push_with(completion + delay, EventKind::Timer(id, tag), daemon)
                }
                Action::Timeout(timeout, delay, tag) => self.set_timeout(id, timeout, completion + delay, tag),
                Action::ClaimAddress(addr) => self.add_address(addr, id),
                Action::ClaimSubnet(base, prefix) => self.add_subnet(base, prefix, id),
            }
        }
        self.actions = actions;
    }

    /// A hop that bypasses routing and faults (a gateway tap, a
    /// [`Context::send_direct`]): only the link's delay applies.
    fn send_hop(&mut self, from: NodeId, to: NodeId, depart: SimTime, pkt: Packet) {
        let delay = self
            .link(from, to)
            .params
            .map_or(self.default_delay, |p| p.delay);
        self.push(depart + delay, EventKind::Deliver(to, pkt));
    }

    fn lookup(&self, ip: Ipv4Addr) -> Option<NodeId> {
        let ip = u32::from(ip);
        if let Some(&id) = self.routes.get(&ip) {
            return Some(id);
        }
        self.subnets
            .iter()
            .find(|(base, mask, _)| ip & mask == *base)
            .map(|&(_, _, id)| id)
    }

    fn route_packet(&mut self, from: NodeId, depart: SimTime, pkt: Packet) {
        let Some(mut dst_node) = self.lookup(pkt.dst.ip) else {
            self.unrouted += 1;
            return;
        };
        let mut link = self.link(from, dst_node);
        // Catchment shift: re-route before any other fault is sampled, so
        // loss/reorder/corruption apply to the link actually traversed.
        if let (true, Some(to)) = (link.fault.shifts_source(pkt.src.ip), link.fault.shift_to) {
            self.fault_metrics.shifted.inc();
            self.fault_metrics.trace.event(
                depart.as_nanos(),
                "catchment_shift",
                &[
                    ("from", Value::U64(dst_node as u64)),
                    ("to", Value::U64(to as u64)),
                    ("src", Value::Ip(pkt.src.ip)),
                ],
            );
            dst_node = to;
            link = self.link(from, to);
        }
        if self.is_partitioned(from, dst_node, depart) {
            self.fault_metrics.partition_dropped.inc();
            self.trace_link(depart, "partition_dropped", from, dst_node);
            return;
        }
        let Link { params, fault, mtu } = link;
        let params = params.unwrap_or(LinkParams {
            delay: self.default_delay,
            loss: 0.0,
        });
        if params.loss > 0.0 && self.rng.gen::<f64>() < params.loss {
            return; // lost on the wire
        }
        let base_delay = if from == dst_node {
            SimTime::from_micros(1) // loopback
        } else {
            params.delay
        };
        // A link with no fault plan takes no RNG draws here, so fault-free
        // simulations replay identically to pre-fault-injection builds.
        if fault.loss > 0.0 && self.rng.gen::<f64>() < fault.loss {
            self.fault_metrics.injected_loss.inc();
            self.trace_link(depart, "injected_loss", from, dst_node);
            return;
        }
        let copies = if fault.duplicate > 0.0 && self.rng.gen::<f64>() < fault.duplicate {
            self.fault_metrics.duplicated.inc();
            self.trace_link(depart, "duplicated", from, dst_node);
            2
        } else {
            1
        };
        for copy in 0..copies {
            let mut pkt = pkt.clone();
            let mut delay = base_delay;
            if copy > 0 {
                delay += SimTime::from_micros(1); // duplicate trails slightly
            }
            if fault.corrupt > 0.0
                && !pkt.payload.is_empty()
                && self.rng.gen::<f64>() < fault.corrupt
            {
                let idx = self.rng.gen_range(0..pkt.payload.len());
                let mask = self.rng.gen_range(1..=255u8); // non-zero: always changes the byte
                pkt.payload[idx] ^= mask;
                self.fault_metrics.corrupted.inc();
                self.trace_link(depart, "corrupted", from, dst_node);
            }
            if fault.reorder > 0.0
                && fault.jitter > SimTime::ZERO
                && self.rng.gen::<f64>() < fault.reorder
            {
                delay += SimTime::from_nanos(self.rng.gen_range(0..=fault.jitter.as_nanos()));
                self.fault_metrics.reordered.inc();
                self.trace_link(depart, "reordered", from, dst_node);
            }
            // Fragmentation: a UDP payload above the link MTU arrives
            // reassembled-and-marked; a planted spoofed tail whose claimed
            // source and offset line up replaces everything past the split.
            if pkt.proto == Proto::Udp {
                if let Some(mtu) = mtu {
                    if pkt.payload.len() > mtu {
                        pkt.fragmented = true;
                        self.fault_metrics.fragmented.inc();
                        self.fault_metrics.trace.event(
                            depart.as_nanos(),
                            "fragmented",
                            &[
                                ("from", Value::U64(from as u64)),
                                ("to", Value::U64(dst_node as u64)),
                                ("bytes", Value::U64(pkt.payload.len() as u64)),
                            ],
                        );
                        let planted = self.nodes[dst_node]
                            .frag_subs
                            .iter()
                            .find(|s| s.src == pkt.src.ip && s.offset == mtu);
                        if let Some(sub) = planted {
                            pkt.payload.truncate(mtu);
                            pkt.payload.extend_from_slice(&sub.payload);
                            self.fault_metrics.frag_substituted.inc();
                            self.fault_metrics.trace.event(
                                depart.as_nanos(),
                                "frag_substituted",
                                &[
                                    ("from", Value::U64(from as u64)),
                                    ("to", Value::U64(dst_node as u64)),
                                    ("offset", Value::U64(sub.offset as u64)),
                                ],
                            );
                        }
                    }
                }
            }
            self.push(depart + delay, EventKind::Deliver(dst_node, pkt));
        }
    }

    /// Traces a fault injected on the directed link `from -> to`.
    fn trace_link(&self, at: SimTime, kind: &'static str, from: NodeId, to: NodeId) {
        let ends = [
            ("from", Value::U64(from as u64)),
            ("to", Value::U64(to as u64)),
        ];
        self.fault_metrics.trace.event(at.as_nanos(), kind, &ends);
    }

    fn is_partitioned(&mut self, a: NodeId, b: NodeId, t: SimTime) -> bool {
        // No packet departs before `now`: a window that has closed cuts
        // nothing more, and is not scanned again.
        let now = self.now;
        self.partitions.retain(|p| p.until > now);
        self.partitions.iter().any(|p| {
            t >= p.from
                && t < p.until
                && match p.scope {
                    PartitionScope::Pair(x, y) => (x == a && y == b) || (x == b && y == a),
                    PartitionScope::Node(n) => n == a || n == b,
                }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Endpoint;

    fn ep(last: u8, port: u16) -> Endpoint {
        Endpoint::new(Ipv4Addr::new(10, 0, 0, last), port)
    }

    /// Sends `count` packets at a fixed interval to a target.
    struct Blaster {
        target: Endpoint,
        me: Endpoint,
        interval: SimTime,
        remaining: u32,
    }

    impl Node for Blaster {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimTime::ZERO, 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            ctx.send(Packet::udp(self.me, self.target, vec![0u8; 30]));
            ctx.set_timer(self.interval, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
    }

    /// Counts packets, charging a fixed CPU cost per packet.
    struct Sink {
        cost: SimTime,
        received: u64,
        last_arrival: SimTime,
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Context<'_>, _pkt: Packet) {
            ctx.charge(self.cost);
            self.received += 1;
            self.last_arrival = ctx.now();
        }
    }

    fn sink(cost: SimTime) -> Sink {
        Sink {
            cost,
            received: 0,
            last_arrival: SimTime::ZERO,
        }
    }

    /// Stores every received packet for inspection.
    struct CaptureSink {
        got: Vec<Packet>,
    }

    impl Node for CaptureSink {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
            self.got.push(pkt);
        }
    }

    #[test]
    fn oversize_udp_is_marked_fragmented_and_planted_tail_splices() {
        let mut sim = Simulator::new(3);
        let small = Packet::udp(ep(1, 53), ep(2, 4000), vec![7u8; 100]);
        let big = Packet::udp(ep(1, 53), ep(2, 4000), vec![7u8; 900]);
        let src = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::default(), sink(SimTime::ZERO));
        let dst = sim.add_node(
            Ipv4Addr::new(10, 0, 0, 2),
            CpuConfig::default(),
            CaptureSink { got: Vec::new() },
        );
        sim.set_link_mtu(src, dst, 512);

        // Under the MTU: untouched. Over: marked fragmented, payload whole.
        sim.inject(src, small.clone());
        sim.inject(src, big.clone());
        sim.run();
        {
            let cap = sim.node_ref::<CaptureSink>(dst).unwrap();
            assert_eq!(cap.got.len(), 2);
            assert!(!cap.got[0].fragmented);
            assert_eq!(cap.got[0].payload, small.payload);
            assert!(cap.got[1].fragmented);
            assert_eq!(cap.got[1].payload, big.payload);
        }
        assert_eq!(sim.fault_stats().fragmented, 1);
        assert_eq!(sim.fault_stats().frag_substituted, 0);

        // Plant a spoofed tail at the right source + offset: the bytes past
        // the split point are replaced. Wrong-source plants never apply.
        sim.plant_fragment(
            dst,
            FragSub {
                src: Ipv4Addr::new(66, 66, 66, 66), // not the real sender
                offset: 512,
                payload: vec![1u8; 10],
            },
        );
        sim.plant_fragment(
            dst,
            FragSub {
                src: Ipv4Addr::new(10, 0, 0, 1),
                offset: 512,
                payload: vec![9u8; 50],
            },
        );
        sim.inject(src, big.clone());
        sim.run();
        {
            let cap = sim.node_ref::<CaptureSink>(dst).unwrap();
            let spliced = &cap.got[2];
            assert!(spliced.fragmented);
            assert_eq!(spliced.payload.len(), 512 + 50);
            assert_eq!(&spliced.payload[..512], &big.payload[..512]);
            assert!(spliced.payload[512..].iter().all(|&b| b == 9));
        }
        assert_eq!(sim.fault_stats().frag_substituted, 1);

        // Clearing the plants restores clean (marked-only) delivery, and TCP
        // is never fragmented regardless of size.
        sim.clear_fragment_plants(dst);
        sim.inject(src, big.clone());
        sim.inject(src, Packet::tcp(ep(1, 53), ep(2, 4000), vec![7u8; 900]));
        sim.run();
        let cap = sim.node_ref::<CaptureSink>(dst).unwrap();
        assert_eq!(cap.got[3].payload, big.payload);
        assert!(!cap.got[4].fragmented);
        assert_eq!(sim.fault_stats().frag_substituted, 1);
    }

    #[test]
    fn slab_stays_at_the_most_events_ever_in_flight() {
        // Two nodes bounce 32 datagrams between them a million times, each
        // with a housekeeping tick that re-arms forever.
        struct Bouncer {
            me: Endpoint,
            peer: Endpoint,
            serve: u32,
            left: u32,
        }
        impl Node for Bouncer {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_daemon_timer(SimTime::from_millis(1), 0);
                for _ in 0..self.serve {
                    ctx.send(Packet::udp(self.me, self.peer, vec![0u8; 30]));
                }
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                ctx.set_daemon_timer(SimTime::from_millis(1), 0);
            }
            fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send(Packet::udp(self.me, self.peer, pkt.payload));
                }
            }
        }
        let mut sim = Simulator::new(20);
        let bouncer = |me, peer, serve| Bouncer {
            me: ep(me, 7),
            peer: ep(peer, 7),
            serve,
            left: 500_000 - 16,
        };
        let a = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), bouncer(1, 2, 32));
        let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::unbounded(), bouncer(2, 1, 0));
        sim.run(); // returns although both ticks are still queued
        assert_eq!(sim.cpu_stats(a).delivered + sim.cpu_stats(b).delivered, 1_000_000);
        assert_eq!(sim.live_events, 0);
        assert_eq!(sim.queue.heap.len(), 2, "the two daemon ticks");
        assert!(sim.queue.slab.len() <= 64, "slab grew to {}", sim.queue.slab.len());
    }

    /// Sets timeouts as a script says: at each `(offset, id, delay, tag)`
    /// a pacing timer fires and sets timeout `id`; every `on_timer` call is
    /// logged as `(now, tag)`.
    struct Rearmer {
        script: Vec<(SimTime, usize, SimTime, u64)>,
        next: usize,
        starts: u64,
        fired: Vec<(SimTime, u64)>,
    }

    /// The tag of the [`Rearmer`]'s pacing timer.
    const STEP: u64 = u64::MAX;

    impl Rearmer {
        fn new(script: &[(u64, usize, u64, u64)]) -> Self {
            let ms = SimTime::from_millis;
            let script = script.iter().map(|&(at, id, delay, tag)| (ms(at), id, ms(delay), tag)).collect();
            Rearmer { script, next: 0, starts: 0, fired: Vec::new() }
        }

        fn arm_due(&mut self, ctx: &mut Context<'_>) {
            while let Some(&(at, id, delay, tag)) = self.script.get(self.next) {
                if at > ctx.now() {
                    ctx.set_timer(at - ctx.now(), STEP);
                    return;
                }
                ctx.set_timeout(id, delay, tag);
                self.next += 1;
            }
        }
    }

    impl Node for Rearmer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.starts += 1;
            self.next = 0;
            self.arm_due(ctx);
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
            if tag == STEP {
                self.arm_due(ctx);
            } else {
                self.fired.push((ctx.now(), tag));
            }
        }
    }

    fn rearmer(script: &[(u64, usize, u64, u64)]) -> (Simulator, NodeId) {
        let mut sim = Simulator::new(21);
        let node = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::default(), Rearmer::new(script));
        (sim, node)
    }

    fn fired(sim: &Simulator, node: NodeId) -> Vec<(SimTime, u64)> {
        sim.node_ref::<Rearmer>(node).unwrap().fired.clone()
    }

    #[test]
    fn a_timeout_re_armed_to_an_earlier_time_fires_at_the_earlier_time() {
        let ms = SimTime::from_millis;
        // Set for 30 ms at 0, moved to 5 + 5 ms at 5: fires at 10 ms with the
        // second tag, and the first setting never fires.
        let (mut sim, node) = rearmer(&[(0, 0, 30, 1), (5, 0, 5, 2)]);
        sim.run_until(ms(60));
        assert_eq!(fired(&sim, node), [(ms(10), 2)]);
        // Moved earlier still, twice, while both entries wait: the third
        // entry takes the first two out of the queue.
        let (mut sim, node) = rearmer(&[(0, 0, 30, 1), (5, 0, 15, 2), (6, 0, 2, 3), (7, 1, 1, 4)]);
        sim.run_until(ms(6));
        assert_eq!(sim.queued_events(), 2, "the 8 ms entry and the 7 ms step; the 20 and 30 ms entries are gone");
        sim.run_until(ms(60));
        assert_eq!(fired(&sim, node), [(ms(8), 3), (ms(8), 4)]);
        assert_eq!(sim.queued_events(), 0);
    }

    #[test]
    fn a_crash_discards_a_nodes_timeouts_and_a_restart_sets_them_again() {
        let ms = SimTime::from_millis;
        let (mut sim, node) = rearmer(&[(0, 0, 10, 1), (0, 3, 20, 2)]);
        sim.run_until(ms(5));
        sim.crash(node);
        assert_eq!(sim.live_events, 0, "a crashed node's timeouts keep nothing alive");
        sim.run_until(ms(30));
        assert_eq!(fired(&sim, node), []);
        assert_eq!(sim.fault_stats().crash_dropped, 2, "each queued entry is dropped once");
        // `on_start` runs the script again from the restart.
        sim.restart(node);
        sim.run();
        assert_eq!(fired(&sim, node), [(ms(40), 1), (ms(50), 2)]);
        assert_eq!(sim.node_ref::<Rearmer>(node).unwrap().starts, 2);
        assert_eq!(sim.queued_events(), 0);
    }

    #[test]
    fn run_stops_at_the_last_live_deadline() {
        let ms = SimTime::from_millis;
        // Set for 10 ms at 0, moved to 5 + 20 ms at 5. The one queued entry
        // pops at 10 ms and finds its key stale; the timeout alone keeps
        // the run going to 25 ms, as the superseded timer did before.
        let (mut sim, node) = rearmer(&[(0, 0, 10, 1), (5, 0, 20, 2)]);
        sim.run();
        assert_eq!((sim.now(), fired(&sim, node)), (ms(25), vec![(ms(25), 2)]));
        assert_eq!(sim.queued_events(), 0);
        // Moved the other way, the 30 ms entry is left behind stale: it
        // keeps nothing alive, and popping it later fires nothing.
        let (mut sim, node) = rearmer(&[(0, 0, 30, 1), (5, 0, 5, 2)]);
        sim.run();
        assert_eq!((sim.now(), fired(&sim, node)), (ms(10), vec![(ms(10), 2)]));
        assert_eq!(sim.queued_events(), 1);
        sim.run_until(ms(40));
        assert_eq!(fired(&sim, node), [(ms(10), 2)]);
        assert_eq!(sim.queued_events(), 0);
    }

    #[test]
    fn ten_thousand_re_arms_leave_at_most_two_queued_events() {
        struct Churn {
            left: u32,
            fired: Vec<(SimTime, u64)>,
        }
        impl Node for Churn {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                // Ever earlier within one handler: each setting is a new
                // earliest deadline.
                for left in (1..=5_000u64).rev() {
                    ctx.set_timeout(0, SimTime::from_micros(left), left);
                }
                ctx.set_timer(SimTime::ZERO, 0);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
                if tag != 0 {
                    self.fired.push((ctx.now(), tag));
                } else if self.left > 0 {
                    // Then once per 1 µs tick, earlier or later at random.
                    self.left -= 1;
                    let delay = ctx.rng().gen_range(1..=300);
                    ctx.set_timeout(0, SimTime::from_micros(delay), 1_000_000 + delay);
                    ctx.set_timer(SimTime::from_micros(1), 0);
                }
            }
        }
        let mut sim = Simulator::new(22);
        let node = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), Churn { left: 5_000, fired: Vec::new() });
        let mut most = 0;
        for us in 0..6_000 {
            sim.run_until(SimTime::from_micros(us));
            // The pacing timer, and at most two entries of the timeout.
            most = most.max(sim.queued_events());
        }
        sim.run();
        assert!(most <= 3, "{most} events queued");
        let churn = sim.node_ref::<Churn>(node).unwrap();
        // Only a setting that no tick replaced before it came due fired;
        // the last, made by the tick at 4 999 µs, among them.
        assert!(churn.fired.windows(2).all(|w| w[0].0 < w[1].0));
        let &(at, tag) = churn.fired.last().unwrap();
        assert_eq!(at, SimTime::from_micros(4_999 + tag - 1_000_000));
        assert_eq!(sim.queued_events(), 0);
    }

    #[test]
    fn a_link_reads_back_every_writer_in_any_order_and_either_direction() {
        let params = LinkParams {
            delay: SimTime::from_millis(7),
            loss: 0.5,
        };
        let plan = FaultPlan::new().loss(0.25).catchment_shift(0.1, 9);
        type Write<'a> = &'a dyn Fn(&mut Simulator, NodeId, NodeId);
        let writers: [Write<'_>; 3] = [
            &|sim, from, to| sim.connect(from, to, params),
            &|sim, from, to| sim.fault_link(from, to, plan),
            &|sim, from, to| sim.set_link_mtu(from, to, 512),
        ];
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            for (from, to) in [(3, 4), (4, 3)] {
                let mut sim = Simulator::new(1);
                for w in order {
                    writers[w](&mut sim, from, to);
                }
                let link = sim.link(from, to);
                assert_eq!(link.params.map(|p| (p.delay, p.loss)), Some((params.delay, 0.5)));
                assert_eq!(link.fault, plan);
                assert_eq!(link.mtu, Some(512));
                // `connect` is symmetric; plans and MTUs are directed.
                let back = sim.link(to, from);
                assert_eq!(back.params.map(|p| p.delay), Some(params.delay));
                assert_eq!(back.fault, FaultPlan::default());
                assert_eq!(back.mtu, None);
                assert_eq!(sim.links.len(), 2);
            }
        }
    }

    #[test]
    fn unconnected_pair_gets_the_default_delay_as_last_set() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::default(), sink(SimTime::ZERO));
        let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::default(), sink(SimTime::ZERO));
        // A record that no `connect` wrote still has no delay of its own.
        sim.fault_link(a, b, FaultPlan::new());
        sim.set_link_mtu(a, b, 1500);
        let pkt = Packet::udp(ep(1, 4000), ep(2, 53), vec![0u8; 30]);
        sim.inject(a, pkt.clone());
        sim.run();
        let first = sim.node_ref::<Sink>(b).unwrap().last_arrival;
        assert_eq!(first, SimTime::from_micros(200));
        sim.set_default_delay(SimTime::from_millis(3));
        sim.inject(a, pkt);
        sim.run();
        let second = sim.node_ref::<Sink>(b).unwrap().last_arrival;
        assert_eq!(second, first + SimTime::from_millis(3));
    }

    #[test]
    fn packets_arrive_after_link_delay() {
        let mut sim = Simulator::new(7);
        let b = Blaster {
            target: ep(2, 53),
            me: ep(1, 4000),
            interval: SimTime::from_millis(1),
            remaining: 1,
        };
        let blaster = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::default(), b);
        let s = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::default(), sink(SimTime::ZERO));
        sim.connect_rtt(blaster, s, SimTime::from_millis(10));
        sim.run();
        let sink_state = sim.node_ref::<Sink>(s).unwrap();
        assert_eq!(sink_state.received, 1);
        assert_eq!(sink_state.last_arrival, SimTime::from_millis(5));
    }

    #[test]
    fn cpu_saturation_drops_excess_load() {
        // Offered load 1 pkt/µs; service cost 10 µs/pkt → ~10% goodput.
        let mut sim = Simulator::new(1);
        let blaster = Blaster {
            target: ep(2, 53),
            me: ep(1, 4000),
            interval: SimTime::from_micros(1),
            remaining: 10_000,
        };
        let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
        let s = sim.add_node(
            Ipv4Addr::new(10, 0, 0, 2),
            CpuConfig {
                max_backlog: SimTime::from_micros(100),
            },
            sink(SimTime::from_micros(10)),
        );
        sim.connect_rtt(b, s, SimTime::from_micros(10));
        sim.run();
        let stats = sim.cpu_stats(s);
        let received = sim.node_ref::<Sink>(s).unwrap().received;
        assert_eq!(stats.delivered, received);
        assert!(stats.dropped > 8_000, "most packets dropped, got {}", stats.dropped);
        // Delivered ≈ elapsed / cost: 10k µs window / 10 µs ≈ 1000 (±queue).
        assert!((900..=1_200).contains(&received), "received {received}");
    }

    #[test]
    fn claim_address_and_subnet_rebind_routing() {
        // A standby claims the service address (and its subnet) mid-run;
        // packets sent before the claim land on the old owner, packets sent
        // after land on the new one.
        const SERVICE: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 4);
        struct Claimer {
            received: u64,
        }
        impl Node for Claimer {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::from_millis(5), 1);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                ctx.claim_address(SERVICE);
                ctx.claim_subnet(Ipv4Addr::new(198, 51, 100, 0), 24);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {
                self.received += 1;
            }
        }
        let mut sim = Simulator::new(3);
        let blaster = Blaster {
            target: Endpoint::new(SERVICE, 53),
            me: ep(1, 4000),
            interval: SimTime::from_millis(1),
            remaining: 10,
        };
        sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
        let old = sim.add_node(SERVICE, CpuConfig::unbounded(), sink(SimTime::ZERO));
        sim.add_subnet(Ipv4Addr::new(198, 51, 100, 0), 24, old);
        let standby =
            sim.add_node(Ipv4Addr::new(10, 0, 0, 9), CpuConfig::unbounded(), Claimer { received: 0 });
        sim.run();
        let old_got = sim.node_ref::<Sink>(old).unwrap().received;
        let new_got = sim.node_ref::<Claimer>(standby).unwrap().received;
        assert_eq!(old_got + new_got, 10, "every packet routed somewhere");
        assert!(old_got >= 1, "pre-claim traffic hit the old owner");
        assert!(new_got >= 1, "post-claim traffic hit the claimer");
        // A subnet address (COOKIE2-style) also routes to the claimer now.
        assert_eq!(sim.lookup(Ipv4Addr::new(198, 51, 100, 77)), Some(standby));
        // Registering the same base/prefix again replaces, like a claim: the
        // later owner is the one found and nothing shadowed is left behind.
        sim.add_subnet(Ipv4Addr::new(198, 51, 100, 9), 24, old);
        assert_eq!(sim.lookup(Ipv4Addr::new(198, 51, 100, 77)), Some(old));
        assert_eq!(sim.subnets.len(), 1);
    }

    #[test]
    fn utilization_reflects_busy_time() {
        let mut sim = Simulator::new(2);
        let blaster = Blaster {
            target: ep(2, 53),
            me: ep(1, 4000),
            interval: SimTime::from_micros(100),
            remaining: 100,
        };
        let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
        let s = sim.add_node(
            Ipv4Addr::new(10, 0, 0, 2),
            CpuConfig::default(),
            sink(SimTime::from_micros(50)),
        );
        sim.connect_rtt(b, s, SimTime::from_micros(2));
        sim.run();
        let elapsed = sim.now();
        let util = sim.cpu_stats(s).utilization(elapsed);
        assert!((0.4..=0.6).contains(&util), "expected ~50% utilisation, got {util}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let blaster = Blaster {
                target: ep(2, 53),
                me: ep(1, 4000),
                interval: SimTime::from_micros(3),
                remaining: 500,
            };
            let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
            let s = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::default(), sink(SimTime::from_micros(5)));
            sim.connect(
                b,
                s,
                LinkParams {
                    delay: SimTime::from_micros(10),
                    loss: 0.3,
                },
            );
            sim.run();
            (sim.node_ref::<Sink>(s).unwrap().received, sim.now())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds see different losses");
    }

    #[test]
    fn lossy_link_drops_roughly_proportionally() {
        let mut sim = Simulator::new(3);
        let blaster = Blaster {
            target: ep(2, 53),
            me: ep(1, 4000),
            interval: SimTime::from_micros(10),
            remaining: 10_000,
        };
        let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
        let s = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::unbounded(), sink(SimTime::ZERO));
        sim.connect(
            b,
            s,
            LinkParams {
                delay: SimTime::from_micros(5),
                loss: 0.25,
            },
        );
        sim.run();
        let received = sim.node_ref::<Sink>(s).unwrap().received as f64;
        assert!((0.70..0.80).contains(&(received / 10_000.0)), "got {received}");
    }

    #[test]
    fn subnet_routing_longest_prefix() {
        let mut sim = Simulator::new(4);
        let wide = sim.add_node(Ipv4Addr::new(172, 16, 0, 1), CpuConfig::default(), sink(SimTime::ZERO));
        let narrow = sim.add_node(Ipv4Addr::new(172, 16, 1, 1), CpuConfig::default(), sink(SimTime::ZERO));
        sim.add_subnet(Ipv4Addr::new(1, 2, 0, 0), 16, wide);
        sim.add_subnet(Ipv4Addr::new(1, 2, 3, 0), 24, narrow);

        let src = ep(9, 1000);
        sim.inject(wide, Packet::udp(src, Endpoint::new(Ipv4Addr::new(1, 2, 3, 77), 53), vec![]));
        sim.inject(wide, Packet::udp(src, Endpoint::new(Ipv4Addr::new(1, 2, 9, 77), 53), vec![]));
        sim.run();
        assert_eq!(sim.node_ref::<Sink>(narrow).unwrap().received, 1);
        assert_eq!(sim.node_ref::<Sink>(wide).unwrap().received, 1);
    }

    #[test]
    fn exact_route_beats_subnet() {
        let mut sim = Simulator::new(5);
        let subnet_owner = sim.add_node(Ipv4Addr::new(9, 9, 9, 9), CpuConfig::default(), sink(SimTime::ZERO));
        let exact_owner = sim.add_node(Ipv4Addr::new(1, 2, 3, 4), CpuConfig::default(), sink(SimTime::ZERO));
        sim.add_subnet(Ipv4Addr::new(1, 2, 3, 0), 24, subnet_owner);
        sim.inject(
            subnet_owner,
            Packet::udp(ep(1, 1), Endpoint::new(Ipv4Addr::new(1, 2, 3, 4), 53), vec![]),
        );
        sim.run();
        assert_eq!(sim.node_ref::<Sink>(exact_owner).unwrap().received, 1);
        assert_eq!(sim.node_ref::<Sink>(subnet_owner).unwrap().received, 0);
    }

    #[test]
    fn unrouted_packets_counted() {
        let mut sim = Simulator::new(6);
        let a = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::default(), sink(SimTime::ZERO));
        sim.inject(a, Packet::udp(ep(1, 1), Endpoint::new(Ipv4Addr::new(8, 8, 8, 8), 53), vec![]));
        sim.run();
        assert_eq!(sim.unrouted(), 1);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulator::new(8);
        let blaster = Blaster {
            target: ep(2, 53),
            me: ep(1, 4000),
            interval: SimTime::from_millis(1),
            remaining: 100,
        };
        let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
        let s = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::default(), sink(SimTime::ZERO));
        sim.connect_rtt(b, s, SimTime::from_micros(100));
        sim.run_until(SimTime::from_millis(10));
        let received = sim.node_ref::<Sink>(s).unwrap().received;
        assert!(received <= 11, "got {received}");
        assert_eq!(sim.now(), SimTime::from_millis(10));
        sim.run();
        assert_eq!(sim.node_ref::<Sink>(s).unwrap().received, 100);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut sim = Simulator::new(11);
        let blaster = Blaster {
            target: ep(2, 53),
            me: ep(1, 4000),
            interval: SimTime::from_micros(10),
            remaining: 1_000,
        };
        let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
        let s = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::unbounded(), sink(SimTime::ZERO));
        sim.connect_rtt(b, s, SimTime::from_micros(10));
        sim.fault_link(b, s, FaultPlan::new().duplicate(0.5));
        sim.run();
        let received = sim.node_ref::<Sink>(s).unwrap().received;
        let stats = sim.fault_stats();
        assert_eq!(received, 1_000 + stats.duplicated);
        assert!((300..700).contains(&stats.duplicated), "{stats:?}");
    }

    #[test]
    fn corruption_flips_payload_bytes() {
        struct Collect {
            clean: u64,
            dirty: u64,
        }
        impl Node for Collect {
            fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
                if pkt.payload.iter().all(|&b| b == 0xAB) {
                    self.clean += 1;
                } else {
                    self.dirty += 1;
                }
            }
        }
        struct Pusher;
        impl Node for Pusher {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for _ in 0..500 {
                    ctx.send(Packet::udp(ep(1, 4000), ep(2, 53), vec![0xAB; 32]));
                }
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        }
        let mut sim = Simulator::new(12);
        let p = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), Pusher);
        let c = sim.add_node(
            Ipv4Addr::new(10, 0, 0, 2),
            CpuConfig::unbounded(),
            Collect { clean: 0, dirty: 0 },
        );
        sim.fault_link(p, c, FaultPlan::new().corrupt(0.3));
        sim.run();
        let got = sim.node_ref::<Collect>(c).unwrap();
        assert_eq!(got.clean + got.dirty, 500);
        assert_eq!(got.dirty, sim.fault_stats().corrupted);
        assert!((100..200).contains(&got.dirty), "corrupted {}", got.dirty);
    }

    #[test]
    fn reordering_overtakes_within_jitter_window() {
        struct Order {
            seen: Vec<u8>,
        }
        impl Node for Order {
            fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
                self.seen.push(pkt.payload[0]);
            }
        }
        struct Seq;
        impl Node for Seq {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for i in 0..200u8 {
                    ctx.send(Packet::udp(ep(1, 4000), ep(2, 53), vec![i]));
                    ctx.charge(SimTime::from_micros(5)); // space sends apart
                }
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        }
        let mut sim = Simulator::new(13);
        let tx = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), Seq);
        let rx = sim.add_node(
            Ipv4Addr::new(10, 0, 0, 2),
            CpuConfig::unbounded(),
            Order { seen: vec![] },
        );
        sim.fault_link(tx, rx, FaultPlan::new().reorder(0.5, SimTime::from_micros(50)));
        sim.run();
        let seen = &sim.node_ref::<Order>(rx).unwrap().seen;
        assert_eq!(seen.len(), 200, "nothing lost, only shuffled");
        let inversions = seen.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(inversions > 10, "expected reordering, got {inversions} inversions");
        assert!(sim.fault_stats().reordered > 50);
    }

    #[test]
    fn asymmetric_loss_only_hits_configured_direction() {
        // Echo replies back; forward direction lossy, reverse clean.
        struct EchoBack;
        impl Node for EchoBack {
            fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
                ctx.send(Packet::udp(pkt.dst, pkt.src, pkt.payload));
            }
        }
        struct Counter {
            sent: u64,
            replies: u64,
        }
        impl Node for Counter {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::ZERO, 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                if self.sent == 1_000 {
                    return;
                }
                self.sent += 1;
                ctx.send(Packet::udp(ep(1, 4000), ep(2, 7), vec![0]));
                ctx.set_timer(SimTime::from_micros(10), 0);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {
                self.replies += 1;
            }
        }
        let mut sim = Simulator::new(14);
        let c = sim.add_node(
            Ipv4Addr::new(10, 0, 0, 1),
            CpuConfig::unbounded(),
            Counter { sent: 0, replies: 0 },
        );
        let e = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::unbounded(), EchoBack);
        sim.fault_link(c, e, FaultPlan::new().loss(0.4));
        sim.run();
        let counter = sim.node_ref::<Counter>(c).unwrap();
        let stats = sim.fault_stats();
        // Every request that survived the forward direction came back.
        assert_eq!(counter.replies, 1_000 - stats.injected_loss);
        assert!((300..500).contains(&stats.injected_loss), "{stats:?}");
    }

    #[test]
    fn catchment_shift_reroutes_deterministic_source_subset() {
        // Many blasters aim at one sink; a shift plan moves ~half of the
        // *sources* (not packets) to a second sink. Every packet of a
        // shifted source must land at the new site — no per-packet coin.
        let mut sim = Simulator::new(17);
        let site_a = sim.add_node(Ipv4Addr::new(10, 0, 0, 200), CpuConfig::unbounded(), sink(SimTime::ZERO));
        let site_b = sim.add_node(Ipv4Addr::new(10, 0, 0, 201), CpuConfig::unbounded(), sink(SimTime::ZERO));
        sim.add_address(Ipv4Addr::new(10, 0, 0, 2), site_a); // anycast addr at A
        let plan = FaultPlan::new().catchment_shift(0.5, site_b);
        let mut sources = Vec::new();
        let mut expect_b = 0u64;
        for i in 0..40u8 {
            let src = Ipv4Addr::new(10, 0, 1, i + 1);
            let blaster = Blaster {
                target: ep(2, 53),
                me: Endpoint::new(src, 4000),
                interval: SimTime::from_millis(1),
                remaining: 10,
            };
            let n = sim.add_node(src, CpuConfig::unbounded(), blaster);
            sim.fault_link(n, site_a, plan);
            if plan.shifts_source(src) {
                expect_b += 10;
            }
            sources.push(n);
        }
        sim.run();
        let at_a = sim.node_ref::<Sink>(site_a).unwrap().received;
        let at_b = sim.node_ref::<Sink>(site_b).unwrap().received;
        assert_eq!(at_a + at_b, 400, "shift moves packets, never drops them");
        assert_eq!(at_b, expect_b, "shifts_source predicts membership exactly");
        assert!((100..=300).contains(&at_b), "roughly half the sources move: {at_b}");
        assert_eq!(sim.fault_stats().shifted, at_b);
    }

    #[test]
    fn partition_drops_then_heals() {
        let mut sim = Simulator::new(15);
        let blaster = Blaster {
            target: ep(2, 53),
            me: ep(1, 4000),
            interval: SimTime::from_millis(1),
            remaining: 100, // one packet per ms for 100 ms
        };
        let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
        let s = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::unbounded(), sink(SimTime::ZERO));
        sim.partition(b, s, SimTime::from_millis(20), SimTime::from_millis(50));
        sim.run();
        let received = sim.node_ref::<Sink>(s).unwrap().received;
        assert_eq!(sim.fault_stats().partition_dropped, 30);
        assert_eq!(received, 70);
        assert!(sim.partitions.is_empty(), "a healed partition is forgotten");
    }

    #[test]
    fn attach_obs_exports_fault_counters_and_trace() {
        let obs = obs::Obs::new();
        obs.tracer.set_default_level(obs::trace::Level::Info);
        let mut sim = Simulator::new(15);
        sim.attach_obs(&obs);
        let blaster = Blaster {
            target: ep(2, 53),
            me: ep(1, 4000),
            interval: SimTime::from_millis(1),
            remaining: 100,
        };
        let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
        let s = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::unbounded(), sink(SimTime::ZERO));
        sim.partition(b, s, SimTime::from_millis(20), SimTime::from_millis(50));
        sim.run();
        assert_eq!(sim.fault_stats().partition_dropped, 30);
        let dropped = obs
            .registry
            .snapshot()
            .into_iter()
            .find(|m| m.name == "fault_partition_dropped")
            .expect("registered");
        assert!(
            matches!(dropped.value, obs::metrics::SampleValue::Counter(30)),
            "registry sees the same count: {dropped:?}"
        );
        let (events, lost) = obs.tracer.drain();
        assert_eq!(lost, 0);
        let drops: Vec<_> = events
            .iter()
            .filter(|e| e.component == "netsim" && e.kind == "partition_dropped")
            .collect();
        assert_eq!(drops.len(), 30);
        // Sim-time stamped within the partition window, in order.
        assert!(drops
            .windows(2)
            .all(|w| w[0].t_nanos <= w[1].t_nanos));
        assert!(drops[0].t_nanos >= SimTime::from_millis(20).as_nanos());
        assert!(drops[29].t_nanos < SimTime::from_millis(50).as_nanos());
    }

    #[test]
    fn isolate_cuts_all_traffic_for_node() {
        let mut sim = Simulator::new(16);
        let blaster = Blaster {
            target: ep(2, 53),
            me: ep(1, 4000),
            interval: SimTime::from_millis(1),
            remaining: 10,
        };
        sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
        let s = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::unbounded(), sink(SimTime::ZERO));
        sim.isolate(s, SimTime::ZERO, SimTime::from_secs(1));
        sim.run();
        assert_eq!(sim.node_ref::<Sink>(s).unwrap().received, 0);
        assert_eq!(sim.fault_stats().partition_dropped, 10);
    }

    #[test]
    fn crash_discards_inflight_and_restart_rejoins() {
        let mut sim = Simulator::new(17);
        let blaster = Blaster {
            target: ep(2, 53),
            me: ep(1, 4000),
            interval: SimTime::from_millis(1),
            remaining: 100,
        };
        let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
        let s = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::unbounded(), sink(SimTime::ZERO));
        sim.connect_rtt(b, s, SimTime::from_micros(100));
        sim.run_until(SimTime::from_millis(30));
        let before = sim.node_ref::<Sink>(s).unwrap().received;
        sim.crash(s);
        assert!(sim.is_crashed(s));
        sim.run_until(SimTime::from_millis(60));
        // Nothing delivered while down.
        assert_eq!(sim.node_ref::<Sink>(s).unwrap().received, before);
        sim.restart(s);
        assert!(!sim.is_crashed(s));
        sim.run();
        let after = sim.node_ref::<Sink>(s).unwrap().received;
        assert!(after > before, "deliveries resume after restart");
        assert!(sim.fault_stats().crash_dropped > 20, "{:?}", sim.fault_stats());
        assert_eq!(after + sim.fault_stats().crash_dropped, 100);
    }

    #[test]
    fn restart_with_loses_volatile_state() {
        let mut sim = Simulator::new(18);
        let blaster = Blaster {
            target: ep(2, 53),
            me: ep(1, 4000),
            interval: SimTime::from_millis(1),
            remaining: 40,
        };
        sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
        let s = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::unbounded(), sink(SimTime::ZERO));
        sim.run_until(SimTime::from_millis(20));
        assert!(sim.node_ref::<Sink>(s).unwrap().received > 10);
        sim.crash(s);
        sim.restart_with(s, sink(SimTime::ZERO));
        sim.run();
        let fresh = sim.node_ref::<Sink>(s).unwrap().received;
        assert!(fresh < 25, "counter reset by restart_with, got {fresh}");
    }

    #[test]
    fn crashed_node_timers_do_not_survive_restart() {
        // A node that re-arms a timer forever; crash should cancel it and
        // restart should arm a fresh one via on_start.
        struct Ticker {
            ticks: u64,
            starts: u64,
        }
        impl Node for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.starts += 1;
                ctx.set_daemon_timer(SimTime::from_millis(1), 0);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                self.ticks += 1;
                ctx.set_daemon_timer(SimTime::from_millis(1), 0);
            }
        }
        let mut sim = Simulator::new(19);
        let t = sim.add_node(
            Ipv4Addr::new(10, 0, 0, 1),
            CpuConfig::default(),
            Ticker { ticks: 0, starts: 0 },
        );
        sim.run_until(SimTime::from_millis(10));
        sim.crash(t);
        sim.run_until(SimTime::from_millis(30));
        let ticks_down = sim.node_ref::<Ticker>(t).unwrap().ticks;
        sim.restart(t);
        sim.run_until(SimTime::from_millis(40));
        let state = sim.node_ref::<Ticker>(t).unwrap();
        assert_eq!(state.starts, 2, "on_start re-ran at restart");
        assert!(state.ticks > ticks_down, "ticking resumed");
        // While down (20 ms) no timer fired: ticks advanced by ~10 for the
        // 10 ms after restart, not ~30.
        assert!(state.ticks <= ticks_down + 12, "{} vs {}", state.ticks, ticks_down);
    }

    #[test]
    fn faultless_runs_unchanged_by_subsystem() {
        // Same seed with and without a no-op fault plan installed: the
        // plan's zero probabilities must not consume RNG draws.
        let run = |with_noop_plan: bool| {
            let mut sim = Simulator::new(42);
            let blaster = Blaster {
                target: ep(2, 53),
                me: ep(1, 4000),
                interval: SimTime::from_micros(3),
                remaining: 500,
            };
            let b = sim.add_node(Ipv4Addr::new(10, 0, 0, 1), CpuConfig::unbounded(), blaster);
            let s = sim.add_node(Ipv4Addr::new(10, 0, 0, 2), CpuConfig::default(), sink(SimTime::from_micros(5)));
            sim.connect(
                b,
                s,
                LinkParams {
                    delay: SimTime::from_micros(10),
                    loss: 0.3,
                },
            );
            if with_noop_plan {
                sim.fault_link_both(b, s, FaultPlan::new());
            }
            sim.run();
            (sim.node_ref::<Sink>(s).unwrap().received, sim.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn timers_fire_in_order() {
        struct Recorder {
            fired: Vec<u64>,
        }
        impl Node for Recorder {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::from_millis(3), 3);
                ctx.set_timer(SimTime::from_millis(1), 1);
                ctx.set_timer(SimTime::from_millis(2), 2);
                ctx.set_timer(SimTime::from_millis(1), 11); // same time: FIFO by seq
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Context<'_>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulator::new(9);
        let r = sim.add_node(
            Ipv4Addr::new(10, 0, 0, 1),
            CpuConfig::default(),
            Recorder { fired: vec![] },
        );
        sim.run();
        assert_eq!(sim.node_ref::<Recorder>(r).unwrap().fired, vec![1, 11, 2, 3]);
    }
}
