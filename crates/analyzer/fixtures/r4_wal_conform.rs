// lint-fixture: path=crates/index/src/durable.rs
// R4 conforming: every live write appends its record before it applies
// it, in the same function, whether the apply is a `Self::` path call or
// a method call.

impl Fixture {
    fn log_and_apply(&mut self, rec: WalRecord) -> Result<bool, StorageError> {
        self.wal.append(&rec)?;
        Self::apply_record(&mut self.entries, &rec).map_err(refused)?;
        Ok(true)
    }

    fn log_then_apply(&mut self, rec: &WalRecord) -> Result<(), StorageError> {
        self.wal.append(rec)?;
        self.apply_record(rec);
        Ok(())
    }

    // Replay is exempt only through an inventoried waiver: the records it
    // applies are already durable in the log.
    fn replay(entries: &mut Rows, records: &[WalRecord]) {
        for rec in records {
            // domd-lint: allow(wal-order) — replays a record already durable in the WAL //~waiver wal-order
            if Self::apply_record(entries, rec).is_err() {
                break;
            }
        }
    }
}
