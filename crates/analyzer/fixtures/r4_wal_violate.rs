// lint-fixture: path=crates/index/src/durable.rs
// R4: a record applied to the store's rows with no preceding WAL append
// in the same function.

impl Fixture {
    pub fn apply_unlogged(&mut self, rec: &WalRecord) {
        Self::apply_record(&mut self.entries, rec); //~ wal-order
    }

    pub fn append_too_late(&mut self, rec: &WalRecord) -> Result<(), StorageError> {
        self.apply_record(rec); //~ wal-order
        // Logging *after* the apply inverts the durability contract: the
        // call above is still a violation.
        self.wal.append(rec)?;
        Ok(())
    }

    pub fn logged_in_another_fn(&mut self) {
        self.log_first();
        // The append lives in a different function body; call order is
        // checked structurally *within* one body.
        Self::apply_record(&mut self.entries, &self.pending); //~ wal-order
    }

    fn log_first(&mut self) {
        let _ = self.wal.append(&self.pending);
    }
}
