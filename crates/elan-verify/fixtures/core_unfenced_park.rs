// expect: TERM_FENCED_SEND
//
// Known-bad, in the decision core's shape: work waits on every member
// parking at one boundary, and the core orders the park without first
// probing the fence. A park order stops every member at its boundary, so
// an incarnation a successor already deposed could still park workers
// the successor is about to release, and hold the job in place (DESIGN.md
// §13/§19). The order must sit behind `persist_fenced`.
//
// This file is a checker fixture, not part of the build.

impl AmCore {
    fn order_park(&mut self, boundary: u64, out: &mut Actions) {
        self.park_target = boundary;
        let term = self.durable.term;
        for &w in &self.members {
            out.send(EndpointId::Worker(w), RtMsg::Park { boundary, term });
        }
    }
}
