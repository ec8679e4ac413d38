//! The benchmark's own copy of the database, which every reconstructed
//! record is checked against. It starts from the same seeded database the
//! replicas build and is advanced by each acknowledged update batch, one
//! epoch per batch.

use impir_core::{Database, PirError};

/// The records and epoch the fleet should be serving.
#[derive(Debug)]
pub struct ExpectedDb {
    db: Database,
    epoch: u64,
}

impl ExpectedDb {
    /// The seed database at epoch 0.
    #[must_use]
    pub fn new(db: Database) -> Self {
        ExpectedDb { db, epoch: 0 }
    }

    /// The epoch every replica should answer at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The record every replica should hold at `index`.
    #[must_use]
    pub fn record(&self, index: u64) -> &[u8] {
        self.db.record(index)
    }

    /// Applies one acknowledged update batch, in order (a later entry for
    /// the same index wins, as on the servers), and moves to the next
    /// epoch.
    ///
    /// # Errors
    ///
    /// Returns the database's error for an entry out of range or of the
    /// wrong size; the copy is then left unchanged.
    pub fn apply(&mut self, updates: &[(u64, Vec<u8>)]) -> Result<(), PirError> {
        for (index, bytes) in updates {
            self.db.try_record(*index)?;
            if bytes.len() != self.db.record_size() {
                return Err(PirError::RecordSizeMismatch {
                    expected: self.db.record_size(),
                    actual: bytes.len(),
                });
            }
        }
        for (index, bytes) in updates {
            self.db.set_record(*index, bytes)?;
        }
        self.epoch += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_records_and_epochs_across_an_update_sequence() {
        let seed = Database::random(64, 8, 5).unwrap();
        let mut expected = ExpectedDb::new(seed.clone());
        assert_eq!(expected.epoch(), 0);
        expected
            .apply(&[(3, vec![1; 8]), (9, vec![2; 8]), (3, vec![4; 8])])
            .unwrap();
        expected.apply(&[(9, vec![5; 8])]).unwrap();
        assert_eq!(expected.epoch(), 2);
        assert_eq!(
            expected.record(3),
            &[4; 8],
            "the last entry for an index wins"
        );
        assert_eq!(expected.record(9), &[5; 8], "a later batch overwrites");
        for index in (0..64).filter(|i| ![3, 9].contains(i)) {
            assert_eq!(expected.record(index), seed.record(index));
        }
    }

    #[test]
    fn a_bad_batch_changes_nothing() {
        let seed = Database::random(16, 4, 1).unwrap();
        let mut expected = ExpectedDb::new(seed.clone());
        assert!(expected
            .apply(&[(2, vec![9; 4]), (16, vec![0; 4])])
            .is_err());
        assert!(expected.apply(&[(2, vec![9; 3])]).is_err());
        assert_eq!(expected.epoch(), 0);
        assert_eq!(expected.record(2), seed.record(2));
    }
}
