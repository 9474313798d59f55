use csprov_game::{ScenarioConfig, World, WorldInstruments};
use csprov_net::{Direction, NullSink};
use csprov_router::{EngineConfig, NatDevice, NatTaps};
use csprov_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    // One 30-minute map through the NAT, as in the paper's experiment.
    let mut cfg = ScenarioConfig::new(7, SimDuration::from_mins(35));
    cfg.workload.arrival_rate = 0.15; // warm the server up quickly
    let dev = Rc::new(NatDevice::new(EngineConfig::default(), NatTaps::default()));
    let sink = Rc::new(RefCell::new(NullSink));
    let out = World::run_instrumented(cfg, sink, Some(dev.clone()), WorldInstruments::default());
    let s = dev.stats();
    println!("players avg {:.1}", out.mean_players);
    println!(
        "in: offered {} forwarded {} dropped {} loss {:.3}% (paper 1.3%)",
        s.offered[0].get(),
        s.forwarded[0].get(),
        s.dropped[0].get(),
        100.0 * s.loss_rate(Direction::Inbound)
    );
    println!(
        "out: offered {} forwarded {} dropped {} loss {:.3}% (paper 0.046%)",
        s.offered[1].get(),
        s.forwarded[1].get(),
        s.dropped[1].get(),
        100.0 * s.loss_rate(Direction::Outbound)
    );
}
