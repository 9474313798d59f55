//! Allocation guard for the NAT device's forwarding path: once warm, a
//! forwarded packet allocates nothing. The device queues the caller's
//! `Deliver` as it is and completes each lookup through one registered
//! kernel handler, so what is left is the kernel's own bucket growth.
//!
//! The counting allocator counts only on the thread that switched it on,
//! so the test harness's own threads cannot disturb the count. This file
//! holds one test for the same reason.

use csprov_game::Middlebox;
use csprov_net::{client_endpoint, server_endpoint, CountingSink, Direction, Packet, PacketKind};
use csprov_router::{EngineConfig, NatDevice, NatTaps};
use csprov_sim::Simulator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so `System`'s conformance to the
// `GlobalAlloc` contract carries over; counting touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Packets per burst: one server tick's snapshots to 20 players, which the
/// default 22-slot LAN queue holds whole.
const BURST: u32 = 20;

/// Forwards `bursts` tick bursts of outbound packets, each drained before
/// the next, with a zero-sized `Deliver` as the world's outbound path uses.
fn forward_bursts(dev: &NatDevice, sim: &mut Simulator, bursts: u32) {
    for _ in 0..bursts {
        for session in 0..BURST {
            let pkt = Packet {
                src: server_endpoint(),
                dst: client_endpoint(session),
                app_len: 120,
                kind: PacketKind::StateUpdate,
                session,
                direction: Direction::Outbound,
                sent_at: sim.now(),
            };
            dev.forward(sim, pkt, Box::new(|_, _| {}));
        }
        sim.run();
    }
}

#[test]
fn a_warm_device_forwards_without_allocating() {
    let sinks: [Rc<RefCell<CountingSink>>; 4] =
        std::array::from_fn(|_| Rc::new(RefCell::new(CountingSink::new())));
    let [a, b, c, d] = &sinks;
    let dev = NatDevice::new(
        EngineConfig::default(),
        NatTaps {
            clients_to_nat: Some(a.clone()),
            nat_to_server: Some(b.clone()),
            server_to_nat: Some(c.clone()),
            nat_to_clients: Some(d.clone()),
        },
    );
    let mut sim = Simulator::new();
    let bursts = 20_000 / BURST;
    // Warm-up: the table maps every session, the FIFO and the kernel's
    // buckets grow to their working size, and the handler registers.
    forward_bursts(&dev, &mut sim, bursts);

    COUNTING.with(|on| on.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    forward_bursts(&dev, &mut sim, bursts);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    COUNTING.with(|on| on.set(false));

    let packets = u64::from(bursts * BURST);
    assert_eq!(dev.stats().forwarded[1].get(), 2 * packets, "all forwarded");
    assert_eq!(d.borrow().total_packets(), 2 * packets);
    assert!(
        allocations * 16 < packets,
        "{allocations} allocations for {packets} forwarded packets"
    );
}
