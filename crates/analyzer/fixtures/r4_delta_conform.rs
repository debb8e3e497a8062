// lint-fixture: path=crates/index/src/delta.rs
// R4 conforming in the delta module: an apply site either appends to the
// WAL in the same body or carries an inventoried waiver stating the
// record is already durable.

impl Fixture {
    pub fn apply_logged(&mut self, rec: &WalRecord) -> Result<(), StorageError> {
        self.wal.append(rec)?;
        self.apply_record(rec);
        Ok(())
    }

    fn apply_derived(&mut self, rec: &WalRecord) {
        // domd-lint: allow(wal-order) — applies a record already durable in the serving layer's WAL //~waiver wal-order
        self.apply_record(rec);
    }
}
