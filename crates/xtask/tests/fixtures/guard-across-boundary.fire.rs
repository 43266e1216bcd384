//@ lint-as: crates/argolite/src/fixture.rs
impl Connector {
    fn submit_locked(&self, ring: &Ring) {
        let st = self.state.lock();
        let id = ring.submit(self.job.clone()); //~ guard-across-boundary
        drop(st);
        record(id);
    }

    fn wait_locked(&self) {
        let g = self.meta.read();
        self.handle.wait(); //~ guard-across-boundary
        drop(g);
    }
}
