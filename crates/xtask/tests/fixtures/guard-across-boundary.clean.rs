//@ lint-as: crates/argolite/src/fixture.rs
impl Connector {
    fn submit_unlocked(&self, ring: &Ring) {
        let job = {
            let st = self.state.lock();
            st.next_job.clone()
        };
        let id = ring.submit(job);
        record(id);
    }

    fn wait_done(&self) {
        let mut st = self.state.lock();
        while !st.done {
            self.done_cv.wait(&mut st);
        }
    }
}
