// expect: PROTOCOL_UNCONSTRUCTED_ERROR
//
// Known-bad: callers match on `ElanError::LeaseExpired`, but no code path
// ever returns it, so the handling they wrote is dead and the failure it
// names surfaces some other way. Every error variant must be raised on a
// real failing path, or removed.
//
// This file is a checker fixture, not part of the build.

enum ElanError {
    UnknownWorker,
    LeaseExpired,
}

fn lookup(known: bool) -> Result<(), ElanError> {
    if known {
        Ok(())
    } else {
        Err(ElanError::UnknownWorker)
    }
}

fn retryable(e: &ElanError) -> bool {
    matches!(e, ElanError::LeaseExpired)
}
