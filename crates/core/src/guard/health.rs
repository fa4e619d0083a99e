//! Liveness of the protected ANS, from the forwards it leaves unanswered,
//! and the exponential back-off of its probes.
//! [`AnsHealth`] is told of each ANS response, each expired forward and each
//! housekeeping window, and answers with what changed: recovered, went
//! down, probe due. It counts and traces nothing; [`super::GuardCore`] does.

use crate::config::GuardConfig;
use netsim::time::SimTime;

/// Upper bound on the gap between two ANS liveness probes.
const ANS_PROBE_MAX: SimTime = SimTime::from_secs(5);

/// An attempt schedule whose interval doubles per attempt up to a cap: the
/// ANS probes.
#[derive(Debug, Default)]
pub(super) struct Backoff {
    interval: SimTime,
    next: SimTime,
}

impl Backoff {
    /// Due at once, then `base` apart.
    pub(super) fn new(base: SimTime) -> Backoff {
        Backoff { interval: base, next: SimTime::ZERO }
    }

    /// Whether an attempt is due at `now`. If so it is taken: the next is
    /// one interval away, and the interval after it twice as long, up to
    /// `max`.
    pub(super) fn due(&mut self, now: SimTime, max: SimTime) -> bool {
        let due = now >= self.next;
        if due {
            self.next = now + self.interval;
            self.interval = (self.interval * 2).min(max);
        }
        due
    }
}

/// Timeout-based liveness tracking for the protected ANS.
#[derive(Debug, Default)]
pub(super) struct AnsHealth {
    /// Forwarded requests expired without a response since the last ANS
    /// response of any kind.
    consecutive_timeouts: u32,
    down: bool,
    /// The probe schedule while down; started when the ANS goes down.
    probe: Backoff,
    /// When the ANS last responded. Expired forwards issued *before* this
    /// are not counted as timeouts — the ANS proved alive after they were
    /// sent, so their loss says nothing new (and requests black-holed
    /// during an outage must not re-trip the monitor after recovery).
    last_response: SimTime,
}

impl AnsHealth {
    /// Whether the ANS is judged down.
    pub(super) fn is_down(&self) -> bool {
        self.down
    }

    /// The ANS responded at `now`. `true` when that ends an outage.
    pub(super) fn on_response(&mut self, now: SimTime) -> bool {
        self.consecutive_timeouts = 0;
        self.last_response = now;
        std::mem::take(&mut self.down)
    }

    /// A forward created at `created` expired unanswered. `true` when it
    /// counts as a timeout: the ANS has not responded since.
    pub(super) fn on_expired(&mut self, created: SimTime) -> bool {
        let counts = created >= self.last_response;
        self.consecutive_timeouts += counts as u32;
        counts
    }

    /// The verdict of a window, after its expiries: the count of unanswered
    /// forwards, when it has just reached the threshold that says "down".
    pub(super) fn went_down(&mut self, config: &GuardConfig) -> Option<u32> {
        let went_down = !self.down && self.consecutive_timeouts >= config.ans_failure_threshold;
        if went_down {
            self.down = true;
            self.probe = Backoff::new(config.ans_probe_interval); // first probe fires immediately
        }
        went_down.then_some(self.consecutive_timeouts)
    }

    /// Whether a liveness probe is due at `now`: only while down.
    pub(super) fn probe_due(&mut self, now: SimTime) -> bool {
        self.down && self.probe.due(now, ANS_PROBE_MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    const fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn backoff_doubles_caps_and_resets() {
        let mut b = Backoff::new(ms(100));
        let mut fired = Vec::new();
        for t in (0..4_000).step_by(50) {
            if b.due(ms(t), ms(800)) {
                fired.push(t);
            }
        }
        // Gaps 100, 200, 400, then 800 for good.
        assert_eq!(fired, [0, 100, 300, 700, 1_500, 2_300, 3_100, 3_900]);
        b = Backoff::new(ms(100));
        assert!(b.due(ms(4_000), ms(800)), "a new one is due at once");
        assert!(!b.due(ms(4_050), ms(800)));
        assert!(b.due(ms(4_100), ms(800)), "and back at the base interval");
    }

    fn config() -> GuardConfig {
        let mut config = GuardConfig::new(Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(10, 0, 0, 1));
        config.ans_failure_threshold = 2;
        config.ans_probe_interval = ms(100);
        config
    }

    #[test]
    fn expired_forwards_older_than_the_last_response_are_not_timeouts() {
        let config = config();
        let mut health = AnsHealth::default();
        assert!(!health.on_response(ms(500)), "was not down");
        assert!(!health.on_expired(ms(400)), "sent before the ANS last answered");
        assert!(!health.on_expired(ms(499)));
        assert_eq!(health.went_down(&config), None);
        assert!(health.on_expired(ms(500)), "sent at or after it: counts");
        assert_eq!(health.went_down(&config), None, "one is under the threshold");
        assert!(!health.probe_due(ms(700)), "no probes while up");
    }

    #[test]
    fn goes_down_at_the_threshold_probes_with_backoff_and_recovers_on_one_response() {
        let config = config();
        let mut health = AnsHealth::default();
        assert!(health.on_expired(ms(10)) && health.on_expired(ms(20)));
        assert_eq!(health.went_down(&config), Some(2));
        assert!(health.is_down() && health.probe_due(ms(100)));
        // Down is reported once; the gaps double from 100 ms to the 5 s cap.
        let probes: Vec<u64> = (2..=170)
            .map(|w| w * 100)
            .filter(|&t| {
                assert_eq!(health.went_down(&config), None);
                health.probe_due(ms(t))
            })
            .collect();
        assert_eq!(probes, [200, 400, 800, 1_600, 3_200, 6_400, 11_400, 16_400]);
        assert!(health.on_response(ms(17_050)), "one response ends the outage");
        assert!(!health.is_down());
        assert!(!health.on_response(ms(17_060)));
        // Forwards black-holed during the outage do not re-trip the monitor.
        assert!(!health.on_expired(ms(16_700)) && !health.on_expired(ms(16_800)));
        assert_eq!(health.went_down(&config), None);
        // The next outage starts probing from the base interval again.
        assert!(health.on_expired(ms(17_100)) && health.on_expired(ms(17_110)));
        assert_eq!(health.went_down(&config), Some(2));
        assert!(health.probe_due(ms(17_200)) && health.probe_due(ms(17_300)));
    }
}
