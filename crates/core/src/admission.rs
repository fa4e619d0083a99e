//! Overload-adaptive admission control.
//!
//! A pressure controller with three tiers, driven by rate-limiter
//! saturation and forward-table fill (the guard's queue-depth analogue):
//!
//! * **Normal** — everything flows through the usual Figure 4 pipeline.
//! * **Surge** — every second *unverified* request is shed before it can
//!   cost a Rate-Limiter1 decision or a cookie response.
//! * **Shed** — all unverified traffic is shed.
//!
//! Cookie-verified sources are **never** shed by any tier: they already
//! proved address ownership, so dropping them would hand the attacker
//! exactly the denial it wants. They remain subject to Rate-Limiter2 as
//! usual.
//!
//! Escalation is immediate (one hot window is enough); de-escalation is
//! hysteretic — the controller steps down one tier only after two
//! consecutive calm windows, so a flood that oscillates around the threshold
//! cannot flap the tier.

/// Pressure tiers, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureTier {
    /// No shedding.
    Normal,
    /// Shed every second unverified request.
    Surge,
    /// Shed all unverified requests.
    Shed,
}

impl PressureTier {
    /// Stable numeric form for the `admission_tier` gauge.
    pub fn as_gauge(self) -> u64 {
        match self {
            PressureTier::Normal => 0,
            PressureTier::Surge => 1,
            PressureTier::Shed => 2,
        }
    }

    /// Stable name for trace events.
    pub fn name(self) -> &'static str {
        match self {
            PressureTier::Normal => "normal",
            PressureTier::Surge => "surge",
            PressureTier::Shed => "shed",
        }
    }
}

/// Rate-limiter reject ratio (per window) at which the controller enters
/// Surge.
const SURGE_REJECT_RATIO: f64 = 0.2;
/// Rate-limiter reject ratio at which the controller enters Shed.
const SHED_REJECT_RATIO: f64 = 0.5;
/// Forward-table fill fraction at which the controller enters Surge.
const SURGE_TABLE_FILL: f64 = 0.7;
/// Forward-table fill fraction at which the controller enters Shed.
const SHED_TABLE_FILL: f64 = 0.9;
/// Minimum rate-limiter decisions per window before its reject ratio is
/// trusted (a 1-of-2 rejection in a quiet window is noise, not surge).
const MIN_WINDOW_EVENTS: u64 = 20;
/// Consecutive calm windows before stepping down one tier.
const DECAY_WINDOWS: u32 = 2;

/// The pressure controller. The guard calls [`observe`] once per
/// housekeeping window with cumulative rate-limiter counters and the
/// current forward-table fill, then consults [`shed_unverified`] on every
/// unverified request.
///
/// [`observe`]: AdmissionController::observe
/// [`shed_unverified`]: AdmissionController::shed_unverified
#[derive(Debug)]
pub struct AdmissionController {
    tier: PressureTier,
    calm_windows: u32,
    last_rl1_admitted: u64,
    last_rl1_rejected: u64,
    last_rl2_admitted: u64,
    last_rl2_rejected: u64,
    surge_toggle: bool,
}

impl AdmissionController {
    /// A controller starting in `Normal`.
    pub(crate) fn new() -> Self {
        AdmissionController {
            tier: PressureTier::Normal,
            calm_windows: 0,
            last_rl1_admitted: 0,
            last_rl1_rejected: 0,
            last_rl2_admitted: 0,
            last_rl2_rejected: 0,
            surge_toggle: false,
        }
    }

    /// Current tier.
    pub fn tier(&self) -> PressureTier {
        self.tier
    }

    /// Feeds one housekeeping window of cumulative counters plus the
    /// current table fill (`0.0..=1.0`); returns the (possibly changed)
    /// tier.
    ///
    /// RL1 saturation and table fill can escalate all the way to `Shed`.
    /// RL2 saturation — verified sources hammering the guard — caps at
    /// `Surge`: it justifies dumping unverified load to protect verified
    /// service, but full Shed on the say-so of already-verified traffic
    /// would let one cookie-holding attacker lock everyone else out of the
    /// cookie exchange forever.
    pub fn observe(
        &mut self,
        rl1_admitted: u64,
        rl1_rejected: u64,
        rl2_admitted: u64,
        rl2_rejected: u64,
        table_fill: f64,
    ) -> PressureTier {
        let rl1_ratio = Self::window_ratio(
            rl1_admitted.saturating_sub(self.last_rl1_admitted),
            rl1_rejected.saturating_sub(self.last_rl1_rejected),
        );
        let rl2_ratio = Self::window_ratio(
            rl2_admitted.saturating_sub(self.last_rl2_admitted),
            rl2_rejected.saturating_sub(self.last_rl2_rejected),
        );
        self.last_rl1_admitted = rl1_admitted;
        self.last_rl1_rejected = rl1_rejected;
        self.last_rl2_admitted = rl2_admitted;
        self.last_rl2_rejected = rl2_rejected;

        let from_rl1 = Self::grade(rl1_ratio, SURGE_REJECT_RATIO, SHED_REJECT_RATIO);
        let from_fill = Self::grade(table_fill, SURGE_TABLE_FILL, SHED_TABLE_FILL);
        let from_rl2 =
            Self::grade(rl2_ratio, SURGE_REJECT_RATIO, SHED_REJECT_RATIO).min(PressureTier::Surge);
        let target = from_rl1.max(from_fill).max(from_rl2);

        if target > self.tier {
            self.tier = target;
            self.calm_windows = 0;
        } else if target < self.tier {
            self.calm_windows += 1;
            if self.calm_windows >= DECAY_WINDOWS {
                self.tier = match self.tier {
                    PressureTier::Shed => PressureTier::Surge,
                    _ => PressureTier::Normal,
                };
                self.calm_windows = 0;
            }
        } else {
            self.calm_windows = 0;
        }
        self.tier
    }

    /// Whether the *next* unverified request should be shed. Mutates the
    /// Surge-tier toggle, so call exactly once per request.
    pub fn shed_unverified(&mut self) -> bool {
        match self.tier {
            PressureTier::Normal => false,
            PressureTier::Surge => {
                self.surge_toggle = !self.surge_toggle;
                self.surge_toggle
            }
            PressureTier::Shed => true,
        }
    }

    fn window_ratio(admitted: u64, rejected: u64) -> f64 {
        let total = admitted + rejected;
        if total < MIN_WINDOW_EVENTS {
            0.0
        } else {
            rejected as f64 / total as f64
        }
    }

    fn grade(signal: f64, surge_at: f64, shed_at: f64) -> PressureTier {
        if signal >= shed_at {
            PressureTier::Shed
        } else if signal >= surge_at {
            PressureTier::Surge
        } else {
            PressureTier::Normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> AdmissionController {
        AdmissionController::new()
    }

    #[test]
    fn starts_normal_and_sheds_nothing() {
        let mut c = ctl();
        assert_eq!(c.tier(), PressureTier::Normal);
        for _ in 0..100 {
            assert!(!c.shed_unverified());
        }
    }

    #[test]
    fn rl1_saturation_escalates_immediately() {
        let mut c = ctl();
        // 30% rejects → Surge in one window.
        assert_eq!(c.observe(70, 30, 0, 0, 0.0), PressureTier::Surge);
        // 80% rejects → straight to Shed.
        assert_eq!(c.observe(100, 180, 0, 0, 0.0), PressureTier::Shed);
        assert!(c.shed_unverified());
        assert!(c.shed_unverified(), "Shed drops every unverified request");
    }

    #[test]
    fn surge_sheds_every_other_request() {
        let mut c = ctl();
        c.observe(70, 30, 0, 0, 0.0);
        assert_eq!(c.tier(), PressureTier::Surge);
        let shed = (0..100).filter(|_| c.shed_unverified()).count();
        assert_eq!(shed, 50);
    }

    #[test]
    fn quiet_windows_are_not_trusted() {
        let mut c = ctl();
        // 1-of-2 rejected is a 50% ratio but below min_window_events.
        assert_eq!(c.observe(1, 1, 0, 0, 0.0), PressureTier::Normal);
    }

    #[test]
    fn table_fill_escalates() {
        let mut c = ctl();
        assert_eq!(c.observe(0, 0, 0, 0, 0.75), PressureTier::Surge);
        assert_eq!(c.observe(0, 0, 0, 0, 0.95), PressureTier::Shed);
    }

    #[test]
    fn rl2_saturation_caps_at_surge() {
        let mut c = ctl();
        // RL2 totally saturated, RL1 quiet: Surge, never Shed.
        assert_eq!(c.observe(0, 0, 10, 990, 0.0), PressureTier::Surge);
        assert_eq!(c.observe(0, 0, 20, 1_980, 0.0), PressureTier::Surge);
    }

    #[test]
    fn deescalation_requires_consecutive_calm_windows() {
        let mut c = ctl();
        c.observe(10, 190, 0, 0, 0.0);
        assert_eq!(c.tier(), PressureTier::Shed);
        // One calm window: still Shed (hysteresis).
        c.observe(210, 190, 0, 0, 0.0);
        assert_eq!(c.tier(), PressureTier::Shed);
        // Second calm window: step down one tier, not straight to Normal.
        c.observe(410, 190, 0, 0, 0.0);
        assert_eq!(c.tier(), PressureTier::Surge);
        // A Surge-level window in between resets the calm streak.
        c.observe(480, 220, 0, 0, 0.0);
        assert_eq!(c.tier(), PressureTier::Surge, "hot window holds the tier");
        c.observe(680, 220, 0, 0, 0.0);
        c.observe(880, 220, 0, 0, 0.0);
        assert_eq!(c.tier(), PressureTier::Normal);
    }
}
