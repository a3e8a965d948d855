// expect: WIRE_COMPAT
//
// Known-bad: the wire table gives `Proceed` tag 1, which `Coordinate`
// already holds — a new variant was slotted in under a shipped tag
// instead of the next free one. The generated decoder maps tag 1 to
// `Coordinate` only, so every `Proceed` is mis-framed, and a coordinator
// and worker built from different commits disagree on what tag 1 means.
// Wire tags are append-only: shipped tags keep their numbers forever
// (DESIGN.md §16).
//
// This file is a checker fixture, not part of the build.

wire_msgs! {
    0 => Report { worker },
    1 => Coordinate { worker, iteration },
    1 => Proceed { boundary, term },
}
