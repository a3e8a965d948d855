// expect: PERSIST_BEFORE_ACT
//
// Known-bad, in the decision core's shape: a helper prunes an evicted
// joiner from the durable record's queued target, and the caller orders
// the joiner's `Leave` onto its action list before it orders the
// persist. The driver runs actions in order, so a crash between the two
// leaves a replacement AM recovering a target that still holds a worker
// it already dismissed (§V-D). The persist must come first.
//
// This file is a checker fixture, not part of the build.

impl AmCore {
    fn prune(&mut self, w: WorkerId) {
        if let Some(p) = &mut self.durable.pending {
            p.target.retain(|x| *x != w);
        }
    }

    fn evict(&mut self, w: WorkerId, out: &mut Actions) {
        self.prune(w);
        let term = self.durable.term;
        out.send(EndpointId::Worker(w), RtMsg::Leave { term });
        if !self.persist_fenced(out) {
            return;
        }
    }
}
