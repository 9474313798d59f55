//! The game-server state machine.
//!
//! Pure logic, no event scheduling: the world layer drives it and turns its
//! returned effects into packets. Player slots live in a `Vec` kept in
//! session order, so every iteration (most importantly the per-tick
//! snapshot broadcast) is in deterministic session order, and a binary
//! search over at most `max_players` slots finds a player for the
//! per-packet liveness update.

use crate::config::ServerConfig;
use crate::packets;
use csprov_sim::{RngStream, SimTime};

/// A connected player.
#[derive(Debug, Clone, Copy)]
pub struct PlayerSlot {
    /// Session id (trace flow id).
    pub session: u32,
    /// Client identity.
    pub client: u32,
    /// Join time.
    pub joined: SimTime,
    /// Last time a packet from this client reached the server.
    pub last_heard: SimTime,
    /// Custom snapshot rate in Hz for "l337" clients; `None` means one
    /// snapshot per server tick.
    pub custom_rate: Option<f64>,
}

/// Result of a connection attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectOutcome {
    /// Slot granted.
    Accepted,
    /// Server full; connection refused.
    Refused,
}

/// The server's mutable state.
pub struct ServerState {
    /// Static configuration.
    pub cfg: ServerConfig,
    /// Connected players, in ascending session order.
    players: Vec<PlayerSlot>,
    /// True while the server is loading a new map (no traffic either way).
    pub changing_map: bool,
    /// World-activity multiplier for snapshot sizes (round phase driven).
    pub activity: f64,
    maps_played: u32,
    rng: RngStream,
}

impl ServerState {
    /// Creates a server with its own RNG stream.
    pub fn new(cfg: ServerConfig, rng: RngStream) -> Self {
        ServerState {
            cfg,
            players: Vec::new(),
            changing_map: false,
            activity: 1.0,
            maps_played: 0,
            rng,
        }
    }

    /// Number of connected players.
    pub fn player_count(&self) -> usize {
        self.players.len()
    }

    /// The connected sessions, in ascending session order.
    pub fn sessions(&self) -> impl Iterator<Item = &PlayerSlot> {
        self.players.iter()
    }

    /// Looks up one player.
    pub fn player(&self, session: u32) -> Option<&PlayerSlot> {
        self.position(session).and_then(|i| self.players.get(i))
    }

    /// The position of `session` in `players`, if it is connected.
    #[inline]
    fn position(&self, session: u32) -> Option<usize> {
        self.players
            .binary_search_by_key(&session, |p| p.session)
            .ok()
    }

    /// Total maps played (incremented by [`ServerState::begin_map_change`]).
    pub fn maps_played(&self) -> u32 {
        self.maps_played
    }

    /// Handles a connection attempt; on acceptance the slot is filled.
    pub fn try_connect(
        &mut self,
        now: SimTime,
        session: u32,
        client: u32,
        custom_rate: Option<f64>,
    ) -> ConnectOutcome {
        if self.players.len() >= self.cfg.max_players {
            return ConnectOutcome::Refused;
        }
        let slot = PlayerSlot {
            session,
            client,
            joined: now,
            last_heard: now,
            custom_rate,
        };
        let at = match self.players.binary_search_by_key(&session, |p| p.session) {
            Ok(at) => {
                // A session id connects once; a repeat replaces its slot.
                if let Some(p) = self.players.get_mut(at) {
                    *p = slot;
                }
                return ConnectOutcome::Accepted;
            }
            Err(at) => at,
        };
        self.players.insert(at, slot);
        ConnectOutcome::Accepted
    }

    /// Notes traffic from a client (refreshes its liveness timer).
    /// Returns false if the session is unknown (e.g. already timed out).
    pub fn heard_from(&mut self, now: SimTime, session: u32) -> bool {
        match self.position(session).and_then(|i| self.players.get_mut(i)) {
            Some(p) => {
                p.last_heard = now;
                true
            }
            None => false,
        }
    }

    /// Runs one server tick: returns `(session, snapshot_payload_bytes)` for
    /// every standard-rate player due an update. Players the server has not
    /// heard from within `snapshot_timeout` are skipped (the game-freeze
    /// coupling), as is everyone while a map change is in progress.
    pub fn tick(&mut self, now: SimTime) -> Vec<(u32, u32)> {
        if self.changing_map {
            return Vec::new();
        }
        let n = self.players.len();
        let timeout = self.cfg.snapshot_timeout;
        let (cfg, activity, rng) = (&self.cfg, self.activity, &mut self.rng);
        self.players
            .iter()
            .filter(|p| p.custom_rate.is_none() && now.saturating_since(p.last_heard) <= timeout)
            .map(|p| (p.session, packets::snapshot_size(cfg, n, activity, rng)))
            .collect()
    }

    /// Produces one snapshot for a custom-rate player, if it is live.
    pub fn snapshot_for(&mut self, now: SimTime, session: u32) -> Option<u32> {
        if self.changing_map {
            return None;
        }
        let n = self.players.len();
        let p = self.player(session)?;
        if now.saturating_since(p.last_heard) > self.cfg.snapshot_timeout {
            return None;
        }
        Some(packets::snapshot_size(
            &self.cfg,
            n,
            self.activity,
            &mut self.rng,
        ))
    }

    /// Removes players not heard from within `disconnect_timeout`; returns
    /// the evicted slots.
    pub fn sweep_timeouts(&mut self, now: SimTime) -> Vec<PlayerSlot> {
        let timeout = self.cfg.disconnect_timeout;
        let is_dead = |p: &PlayerSlot| now.saturating_since(p.last_heard) > timeout;
        let dead: Vec<PlayerSlot> = self.players.iter().copied().filter(is_dead).collect();
        if !dead.is_empty() {
            self.players.retain(|p| !is_dead(p));
        }
        dead
    }

    /// Gracefully removes a player; returns its slot if it was connected.
    pub fn disconnect(&mut self, session: u32) -> Option<PlayerSlot> {
        let at = self.position(session)?;
        Some(self.players.remove(at))
    }

    /// Starts a map change: traffic pauses, the map counter increments.
    pub fn begin_map_change(&mut self) {
        self.changing_map = true;
        self.maps_played += 1;
    }

    /// Completes a map change.
    pub fn end_map_change(&mut self) {
        self.changing_map = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;

    fn server() -> ServerState {
        ServerState::new(ServerConfig::default(), RngStream::new(1))
    }

    #[test]
    fn accepts_until_full_then_refuses() {
        let mut s = server();
        let t = SimTime::ZERO;
        for i in 0..22 {
            assert_eq!(s.try_connect(t, i, i, None), ConnectOutcome::Accepted);
        }
        assert_eq!(s.player_count(), 22);
        assert_eq!(s.try_connect(t, 99, 99, None), ConnectOutcome::Refused);
        assert_eq!(s.player_count(), 22);
    }

    #[test]
    fn tick_emits_one_snapshot_per_live_player() {
        let mut s = server();
        let t = SimTime::from_secs(1);
        for i in 0..5 {
            s.try_connect(t, i, i, None);
        }
        let snaps = s.tick(t);
        assert_eq!(snaps.len(), 5);
        // Deterministic session order.
        let order: Vec<u32> = snaps.iter().map(|&(s, _)| s).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        for &(_, size) in &snaps {
            assert!(size >= 8);
        }
    }

    #[test]
    fn stale_players_skipped_by_tick_but_not_disconnected() {
        let mut s = server();
        let t0 = SimTime::ZERO;
        s.try_connect(t0, 1, 1, None);
        s.try_connect(t0, 2, 2, None);
        let t1 = t0 + csprov_sim::SimDuration::from_secs(5);
        s.heard_from(t1, 2);
        // Session 1 silent for 5 s (> 2 s snapshot timeout, < 15 s disconnect).
        let snaps = s.tick(t1);
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].0, 2);
        assert_eq!(s.player_count(), 2);
    }

    #[test]
    fn sweep_disconnects_silent_players() {
        let mut s = server();
        let t0 = SimTime::ZERO;
        s.try_connect(t0, 1, 10, None);
        s.try_connect(t0, 2, 20, None);
        let t1 = t0 + csprov_sim::SimDuration::from_secs(20);
        s.heard_from(t1, 2);
        let dead = s.sweep_timeouts(t1);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].session, 1);
        assert_eq!(dead[0].client, 10);
        assert_eq!(s.player_count(), 1);
    }

    #[test]
    fn map_change_pauses_snapshots_and_counts_maps() {
        let mut s = server();
        let t = SimTime::ZERO;
        s.try_connect(t, 1, 1, None);
        assert_eq!(s.maps_played(), 0);
        s.begin_map_change();
        assert!(s.tick(t).is_empty());
        assert_eq!(s.snapshot_for(t, 1), None);
        assert_eq!(s.maps_played(), 1);
        s.end_map_change();
        assert_eq!(s.tick(t).len(), 1);
    }

    #[test]
    fn custom_rate_players_not_in_tick() {
        let mut s = server();
        let t = SimTime::ZERO;
        s.try_connect(t, 1, 1, Some(60.0));
        s.try_connect(t, 2, 2, None);
        let snaps = s.tick(t);
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].0, 2);
        assert!(s.snapshot_for(t, 1).is_some());
    }

    #[test]
    fn snapshot_for_respects_liveness() {
        let mut s = server();
        let t0 = SimTime::ZERO;
        s.try_connect(t0, 1, 1, Some(60.0));
        let t1 = t0 + csprov_sim::SimDuration::from_secs(5);
        assert_eq!(s.snapshot_for(t1, 1), None);
        s.heard_from(t1, 1);
        assert!(s.snapshot_for(t1, 1).is_some());
        assert_eq!(s.snapshot_for(t1, 42), None, "unknown session");
    }

    #[test]
    fn heard_from_unknown_session() {
        let mut s = server();
        assert!(!s.heard_from(SimTime::ZERO, 7));
    }

    #[test]
    fn graceful_disconnect_frees_slot() {
        let mut s = server();
        let t = SimTime::ZERO;
        for i in 0..22 {
            s.try_connect(t, i, i, None);
        }
        assert!(s.disconnect(5).is_some());
        assert!(s.disconnect(5).is_none());
        assert_eq!(s.try_connect(t, 99, 99, None), ConnectOutcome::Accepted);
    }

    #[test]
    fn out_of_order_joins_keep_session_order() {
        let mut s = server();
        let t = SimTime::ZERO;
        for session in [5, 2, 9, 0, 7] {
            s.try_connect(t, session, session, None);
        }
        let order: Vec<u32> = s.tick(t).iter().map(|&(s, _)| s).collect();
        assert_eq!(order, vec![0, 2, 5, 7, 9]);
        assert!(s.disconnect(2).is_some());
        let t1 = t + csprov_sim::SimDuration::from_secs(1);
        for session in [0, 5, 7, 9] {
            assert!(s.heard_from(t1, session), "session {session}");
            assert_eq!(s.player(session).map(|p| p.last_heard), Some(t1));
        }
        assert!(!s.heard_from(t1, 2), "a departed session is unknown");
        let sessions: Vec<u32> = s.sessions().map(|p| p.session).collect();
        assert_eq!(sessions, vec![0, 5, 7, 9]);
    }

    #[test]
    fn full_server_tick_sends_every_snapshot() {
        let mut s = server();
        let t = SimTime::ZERO;
        for i in 0..22 {
            s.try_connect(t, i, i, None);
        }
        let order: Vec<u32> = s.tick(t).iter().map(|&(s, _)| s).collect();
        assert_eq!(order, (0..22).collect::<Vec<u32>>());
    }

    #[test]
    fn snapshots_reflect_player_count() {
        // With more players, mean snapshot size grows (delta-encoding model).
        let mut s = server();
        let t = SimTime::ZERO;
        s.try_connect(t, 0, 0, None);
        let small: f64 = (0..2000).map(|_| f64::from(s.tick(t)[0].1)).sum::<f64>() / 2000.0;
        for i in 1..20 {
            s.try_connect(t, i, i, None);
        }
        let big: f64 = (0..2000).map(|_| f64::from(s.tick(t)[0].1)).sum::<f64>() / 2000.0;
        assert!(big > small + 60.0, "big {big} vs small {small}");
    }
}
