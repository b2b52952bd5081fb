//! Wire golden over the committed CPRDLOG workloads: every recorded
//! request must parse and re-encode to exactly the bytes that went on the
//! wire. The request encoder (and the motion-block float formatting inside
//! it) may change how it produces those bytes, never which bytes.

use copred_replay::format::read_log_file;
use copred_service::protocol::Request;
use std::path::PathBuf;

#[test]
fn committed_requests_reencode_to_their_recorded_bytes() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../workloads");
    let mut logs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("workloads dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "cprlog"))
        .collect();
    logs.sort();
    assert!(
        !logs.is_empty(),
        "no committed logs under {}",
        dir.display()
    );
    let mut checked = 0;
    for path in &logs {
        let log = read_log_file(path).expect("committed log reads");
        assert!(log.complete, "{} has a torn tail", path.display());
        for rec in &log.records {
            let req = Request::from_text(&rec.request)
                .unwrap_or_else(|e| panic!("{} record {}: {e}", path.display(), rec.idx));
            assert_eq!(
                req.to_text(),
                rec.request,
                "{} record {} ({}) re-encodes differently",
                path.display(),
                rec.idx,
                rec.verb
            );
            checked += 1;
        }
    }
    assert!(checked > 0);
}
