//! The one hand-written report-row codec: a [`HistogramRow`] on the wire
//! (counter and gauge rows derive theirs in [`crate::report`]). Buckets
//! travel as `(pow2 bucket index u8, count u64)`: one byte per bound, and
//! `u64::MAX` (the overflow bucket's bound) needs no special case. Two
//! range checks run on encode and on decode: at most [`HIST_BUCKETS`]
//! buckets, each index below [`HIST_BUCKETS`] — a bound that closes no
//! bucket has no index in range.

use crate::metrics::{bucket_bound, bucket_index, HIST_BUCKETS};
use crate::report::HistogramRow;
use swt_wire::{ensure, Cursor, Wire, WireError};

/// The bucket `bound` closes, or `HIST_BUCKETS` (out of range) for none.
fn index_of(bound: u64) -> u8 {
    let i = bucket_index(bound);
    (if bucket_bound(i) == bound { i } else { HIST_BUCKETS }) as u8
}

fn check(buckets: &[(u8, u64)]) -> Result<(), WireError> {
    ensure(buckets.len() <= HIST_BUCKETS, "histogram bucket count out of range")?;
    ensure(
        buckets.iter().all(|&(i, _)| (i as usize) < HIST_BUCKETS),
        "histogram bucket index out of range",
    )
}

/// `name String, count u64, sum u64, buckets Vec (bucket index u8, count
/// u64)`.
impl Wire for HistogramRow {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let buckets: Vec<(u8, u64)> =
            self.buckets.iter().map(|&(bound, n)| (index_of(bound), n)).collect();
        check(&buckets)?;
        self.name.put(out)?;
        self.count.put(out)?;
        self.sum.put(out)?;
        buckets.put(out)
    }

    fn get(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        let (name, count, sum) = (String::get(c)?, u64::get(c)?, u64::get(c)?);
        let buckets = Vec::<(u8, u64)>::get(c)?;
        check(&buckets)?;
        let buckets = buckets.into_iter().map(|(i, n)| (bucket_bound(i as usize), n)).collect();
        Ok(HistogramRow { name, count, sum, buckets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{CounterRow, GaugeRow};

    fn encode<T: Wire>(value: &T) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        value.put(&mut out)?;
        Ok(out)
    }

    fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
        let mut c = Cursor::new(bytes);
        let value = T::get(&mut c)?;
        c.finish()?;
        Ok(value)
    }

    fn refusal<T>(got: Result<T, WireError>) -> Option<&'static str> {
        match got {
            Err(WireError::Malformed(what)) => Some(what),
            _ => None,
        }
    }

    #[test]
    fn histogram_bounds_round_trip_through_bucket_indices() -> Result<(), WireError> {
        // Bounds travel as bucket indices; `u64::MAX` (the overflow bucket)
        // must survive the trip both ways.
        let row = HistogramRow {
            name: "ckpt.save_ns".into(),
            count: 3,
            sum: 900,
            buckets: vec![(bucket_bound(8), 2), (u64::MAX, 1)],
        };
        let bytes = encode(&row)?;
        let tail = [2, 0, 0, 0, 8, 2, 0, 0, 0, 0, 0, 0, 0, 31, 1, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(bytes[bytes.len() - tail.len()..], tail);
        assert_eq!(decode::<HistogramRow>(&bytes)?, row);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);

        let counter = CounterRow { name: "ckpt.cache.hits".into(), value: u64::MAX };
        assert_eq!(decode::<CounterRow>(&encode(&counter)?)?, counter);
        let gauge = GaugeRow { name: "ckpt.cache.resident_bytes".into(), value: -1, max: 4 };
        assert_eq!(decode::<GaugeRow>(&encode(&gauge)?)?, gauge);
        Ok(())
    }

    #[test]
    fn histogram_rows_with_bad_bucket_fields_error_cleanly() -> Result<(), WireError> {
        // The row ends with the bucket list: [u32 count] then (u8 index,
        // u64 count) per bucket.
        let hist = |buckets| HistogramRow { name: "h".into(), count: 1, sum: 1, buckets };
        let index_out = Some("histogram bucket index out of range");
        let count_out = Some("histogram bucket count out of range");

        // Bucket index out of range: a bound that closes no bucket does not
        // encode, and an index past the last bucket does not decode.
        assert_eq!(refusal(encode(&hist(vec![(5, 1)]))), index_out);
        let mut bad = encode(&hist(vec![(1, 1)]))?;
        let n = bad.len();
        bad[n - 9] = HIST_BUCKETS as u8; // first invalid index
        assert_eq!(refusal(decode::<HistogramRow>(&bad)), index_out);

        // Bucket count beyond HIST_BUCKETS: refused on encode, and on
        // decode with every bucket really present.
        assert_eq!(refusal(encode(&hist(vec![(1, 1); HIST_BUCKETS + 1]))), count_out);
        let mut bad = encode(&hist(vec![(1, 1); HIST_BUCKETS]))?;
        let count_at = bad.len() - 9 * HIST_BUCKETS - 4;
        bad[count_at] = HIST_BUCKETS as u8 + 1; // the u32 count's low byte
        bad.extend_from_slice(&[0u8; 9]);
        assert_eq!(refusal(decode::<HistogramRow>(&bad)), count_out);

        // A name longer than the bytes behind it ends the row early.
        assert!(refusal(decode::<HistogramRow>(&[0xff; 4])).is_some());
        Ok(())
    }
}
