//! One encoding: the wire frame, the ledger record and the cached blobs
//! of one seeded round are the same bytes the shared record codec
//! (`flstore_fl::codec`) emits — not three encoders that happen to agree.

use std::sync::Arc;

use flstore_core::api::Request;
use flstore_core::durable::LedgerEvent;
use flstore_durability::records::{encode_event, TAG_INGEST};
use flstore_fl::codec::{
    put_aggregate, put_hyperparams, put_job, put_record, put_round, put_round_metrics,
    put_sim_time, put_update, put_varint, Reader,
};
use flstore_fl::ids::JobId;
use flstore_fl::job::{FlJobConfig, FlJobSim};
use flstore_fl::metadata::round_entries;
use flstore_net::codec::encode_request;
use flstore_sim::time::SimTime;

fn encoded<T: ?Sized>(put: impl FnOnce(&mut Vec<u8>, &T), value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    put(&mut buf, value);
    buf
}

#[test]
fn wire_ledger_and_blobs_carry_the_shared_record_bytes() {
    let job = FlJobConfig::quick_test(JobId::new(7));
    let record = Arc::new(FlJobSim::new(job.clone()).next().expect("one round"));
    let now = SimTime::from_micros(1_234_567);
    let shared = encoded(put_record, &*record);

    // Wire: `[now][job][record]`.
    let (_, wire) = encode_request(
        now,
        &Request::Ingest {
            job: job.job,
            record: record.clone(),
        },
    );
    let mut prefix = Vec::new();
    put_sim_time(&mut prefix, now);
    put_job(&mut prefix, job.job);
    assert_eq!(
        wire.strip_prefix(prefix.as_slice()),
        Some(shared.as_slice())
    );

    // Ledger: `[tag][len][time][record]`.
    let ledger = encode_event(&LedgerEvent::Ingest {
        now,
        record: &record,
    });
    let mut r = Reader::new(&ledger);
    assert_eq!(r.u8(), Ok(TAG_INGEST));
    let len = r.len_prefix().expect("payload length");
    let payload = r.bytes(len).expect("payload");
    r.finish().expect("one record");
    assert_eq!(
        payload.strip_prefix(encoded(|b, t| put_sim_time(b, *t), &now).as_slice()),
        Some(shared.as_slice())
    );

    // Blobs: `[kind tag][value]`, and the values laid end to end (with
    // the round number and the update count) *are* the record.
    let bodies: Vec<Vec<u8>> = record
        .updates
        .iter()
        .map(|u| encoded(put_update, u))
        .chain([
            encoded(put_aggregate, &record.aggregate),
            encoded(put_hyperparams, &record.hyperparams),
            encoded(put_round_metrics, &record.metrics),
        ])
        .collect();
    let entries = round_entries(&record, job.job, &job.model);
    assert_eq!(entries.len(), bodies.len());
    let n = record.updates.len();
    for (i, (entry, body)) in entries.iter().zip(&bodies).enumerate() {
        // Updates carry kind tag 0; aggregate, hyper, metrics follow as 1, 2, 3.
        let kind_tag = if i < n { 0 } else { (i - n + 1) as u8 };
        let payload: &[u8] = entry.blob.payload();
        assert_eq!(payload.split_first(), Some((&kind_tag, body.as_slice())));
    }
    let mut laid_out = Vec::new();
    put_round(&mut laid_out, record.round);
    laid_out.extend_from_slice(&bodies[n + 1]); // hyperparameters
    put_varint(&mut laid_out, n as u64);
    laid_out.extend(bodies[..=n].iter().flatten()); // updates, aggregate
    laid_out.extend_from_slice(&bodies[n + 2]); // metrics
    assert_eq!(laid_out, shared);
}
