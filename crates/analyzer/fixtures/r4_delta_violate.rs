// lint-fixture: path=crates/index/src/delta.rs
// R4 in the delta module: applying a record to the store's rows without a
// same-body WAL append (and without a waiver naming the log the record was
// derived from) is a violation — the delta stream's whole soundness
// argument is that every mutation is already durable somewhere.

impl Fixture {
    pub fn apply_unlogged(&mut self, delta: &Delta) {
        let rec = record_of(delta);
        self.apply_record(&rec); //~ wal-order
        Store::apply_record(&mut self.rows, &rec); //~ wal-order
    }
}
