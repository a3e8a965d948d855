//! Leases over virtual time — etcd-style liveness for the AM (§V-D).
//!
//! The application master is a single point of failure; the paper detects
//! its death through the distributed store. [`LeaseManager`] models the
//! etcd lease primitive: the AM holds a lease it must refresh within the
//! TTL; a scheduler-side watchdog that sees the lease expire starts a
//! replacement AM, which recovers the state machine from the store.

use std::collections::BTreeMap;

use elan_sim::{SimDuration, SimTime};

/// A lease identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaseId(pub u64);

/// The state of one lease at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// Refreshed within the TTL.
    Alive {
        /// When it lapses without a refresh.
        expires_at: SimTime,
    },
    /// TTL elapsed without a refresh.
    Expired {
        /// When it lapsed.
        expired_at: SimTime,
    },
}

/// Manages leases on the simulation clock.
///
/// # Examples
///
/// ```
/// use elan_core::lease::{LeaseManager, LeaseState};
/// use elan_sim::{SimDuration, SimTime};
///
/// let mut leases = LeaseManager::new(SimDuration::from_secs(5));
/// let id = leases.grant(SimTime::ZERO);
/// leases.keep_alive(id, SimTime::from_secs(3)).unwrap();
/// assert!(matches!(
///     leases.state(id, SimTime::from_secs(7)),
///     Some(LeaseState::Alive { .. })
/// ));
/// assert!(matches!(
///     leases.state(id, SimTime::from_secs(9)),
///     Some(LeaseState::Expired { .. })
/// ));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseManager {
    ttl: SimDuration,
    next_id: u64,
    refreshed: BTreeMap<LeaseId, SimTime>,
}

impl LeaseManager {
    /// Creates a manager granting leases with the given TTL.
    ///
    /// # Panics
    ///
    /// Panics if the TTL is zero.
    pub fn new(ttl: SimDuration) -> Self {
        assert!(!ttl.is_zero(), "lease TTL must be positive");
        LeaseManager {
            ttl,
            next_id: 0,
            refreshed: BTreeMap::new(),
        }
    }

    /// Grants a fresh lease at `now`.
    pub fn grant(&mut self, now: SimTime) -> LeaseId {
        let id = LeaseId(self.next_id);
        self.next_id += 1;
        self.refreshed.insert(id, now);
        id
    }

    /// Refreshes a lease.
    ///
    /// # Errors
    ///
    /// Returns the expiry instant if the lease already lapsed (a holder
    /// must not act on an expired lease — another AM may have taken over)
    /// or an error for unknown leases.
    pub fn keep_alive(&mut self, id: LeaseId, now: SimTime) -> Result<(), LeaseError> {
        let last = *self.refreshed.get(&id).ok_or(LeaseError::Unknown(id))?;
        let expires = last + self.ttl;
        if now >= expires {
            return Err(LeaseError::Expired {
                id,
                expired_at: expires,
            });
        }
        self.refreshed.insert(id, now);
        Ok(())
    }

    /// The lease's state as of `now` (None for unknown leases).
    pub fn state(&self, id: LeaseId, now: SimTime) -> Option<LeaseState> {
        let last = *self.refreshed.get(&id)?;
        let expires_at = last + self.ttl;
        Some(if now < expires_at {
            LeaseState::Alive { expires_at }
        } else {
            LeaseState::Expired {
                expired_at: expires_at,
            }
        })
    }

    /// Revokes a lease (clean shutdown); returns true if it existed.
    pub fn revoke(&mut self, id: LeaseId) -> bool {
        self.refreshed.remove(&id).is_some()
    }
}

/// Errors from lease operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseError {
    /// The lease id was never granted (or was revoked).
    Unknown(LeaseId),
    /// The lease lapsed before the refresh.
    Expired {
        /// The lapsed lease.
        id: LeaseId,
        /// When it lapsed.
        expired_at: SimTime,
    },
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::Unknown(id) => write!(f, "unknown lease {id:?}"),
            LeaseError::Expired { id, expired_at } => {
                write!(f, "lease {id:?} expired at {expired_at}")
            }
        }
    }
}

impl std::error::Error for LeaseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> LeaseManager {
        LeaseManager::new(SimDuration::from_secs(10))
    }

    #[test]
    fn lease_stays_alive_with_refreshes() {
        let mut m = mgr();
        let id = m.grant(SimTime::ZERO);
        for t in (5..60).step_by(5) {
            m.keep_alive(id, SimTime::from_secs(t)).unwrap();
        }
        assert!(matches!(
            m.state(id, SimTime::from_secs(60)),
            Some(LeaseState::Alive { .. })
        ));
    }

    #[test]
    fn missing_refresh_expires() {
        let mut m = mgr();
        let id = m.grant(SimTime::ZERO);
        let s = m.state(id, SimTime::from_secs(10)).unwrap();
        assert_eq!(
            s,
            LeaseState::Expired {
                expired_at: SimTime::from_secs(10)
            }
        );
    }

    #[test]
    fn refresh_after_expiry_is_rejected() {
        let mut m = mgr();
        let id = m.grant(SimTime::ZERO);
        let err = m.keep_alive(id, SimTime::from_secs(11)).unwrap_err();
        assert!(matches!(err, LeaseError::Expired { .. }));
    }

    #[test]
    fn revoked_leases_are_unknown() {
        let mut m = mgr();
        let id = m.grant(SimTime::ZERO);
        assert!(m.revoke(id));
        assert!(!m.revoke(id));
        assert_eq!(m.state(id, SimTime::ZERO), None);
        assert_eq!(
            m.keep_alive(id, SimTime::from_secs(1)),
            Err(LeaseError::Unknown(id))
        );
    }

    #[test]
    fn am_failover_scenario() {
        // The AM holds a lease; it crashes at t=12 (stops refreshing).
        // A watchdog polling every 5s notices at t=25 and starts a
        // replacement, which takes a new lease.
        let mut m = LeaseManager::new(SimDuration::from_secs(10));
        let am1 = m.grant(SimTime::ZERO);
        m.keep_alive(am1, SimTime::from_secs(5)).unwrap();
        m.keep_alive(am1, SimTime::from_secs(10)).unwrap();
        // crash: no refresh after t=10; expiry at t=20.
        let mut detected = None;
        for t in (15..40).step_by(5) {
            if matches!(
                m.state(am1, SimTime::from_secs(t)),
                Some(LeaseState::Expired { .. })
            ) {
                detected = Some(t);
                break;
            }
        }
        assert_eq!(detected, Some(20));
        let am2 = m.grant(SimTime::from_secs(20));
        assert_ne!(am1, am2);
        assert!(matches!(
            m.state(am2, SimTime::from_secs(25)),
            Some(LeaseState::Alive { .. })
        ));
    }
}
