//! Cache admission. A pass-local cache stores a parsed schema only when
//! its blob repeats, so it hits from a blob's third sighting on; a
//! `WarmCaches` stores on first sighting, so a second pass over the
//! same candidates hits on every lookup. Neither changes what is mined.

use schevo_pipeline::funnel::CandidateHistory;
use schevo_pipeline::{
    ExecStats, MiningEngine, MiningOutput, SliceSource, StudyOptions, WarmCaches,
};
use schevo_vcs::history::FileVersion;
use schevo_vcs::sha1::sha1;
use schevo_vcs::timestamp::Timestamp;

const SHARED: &str = "CREATE TABLE shared (id INT, PRIMARY KEY (id));";

fn candidate(idx: usize, blobs: &[String]) -> CandidateHistory {
    let versions = blobs
        .iter()
        .enumerate()
        .map(|(i, content)| FileVersion {
            commit: sha1(format!("{idx}/{i}").as_bytes()),
            timestamp: Timestamp(i as i64 * 86_400 * 30),
            author: "dev".into(),
            message: format!("v{i}"),
            content: content.clone(),
        })
        .collect();
    CandidateHistory {
        name: format!("admission/p{idx}"),
        ddl_path: "schema.sql".into(),
        versions,
        pup_months: 24,
        total_commits: 10,
    }
}

fn unique(idx: usize) -> String {
    format!("CREATE TABLE shared (id INT, PRIMARY KEY (id));\nCREATE TABLE own{idx} (v INT);")
}

fn mine(candidates: &[CandidateHistory], cache: bool, warm: Option<&WarmCaches>) -> MiningOutput {
    let mut engine = MiningEngine::new(StudyOptions {
        workers: 1,
        cache,
        ..StudyOptions::default()
    });
    if let Some(w) = warm {
        engine = engine.with_warm(w);
    }
    engine.mine(&SliceSource::new(candidates)).expect("mines")
}

fn counts(e: &ExecStats) -> (u64, u64, u64, u64) {
    (e.parse_hits, e.parse_misses, e.diff_hits, e.diff_misses)
}

#[test]
fn a_blob_hits_from_its_third_sighting_and_warm_passes_hit_every_lookup() {
    // `SHARED` opens all three histories; every other blob is unique.
    let candidates: Vec<CandidateHistory> = (0..3)
        .map(|i| candidate(i, &[SHARED.to_string(), unique(i)]))
        .collect();
    let uncached = mine(&candidates, false, None);
    assert_eq!(counts(&uncached.exec), (0, 6, 0, 3));

    // Two sightings: the second one is stored but nothing hits yet.
    let two = mine(&candidates[..2], true, None);
    assert_eq!(counts(&two.exec), (0, 4, 0, 2));
    // The third sighting is the first hit; the lookups are unchanged.
    let three = mine(&candidates, true, None);
    assert_eq!(counts(&three.exec), (1, 5, 0, 3));
    assert_eq!(three.mined, uncached.mined);

    // A warm cache stores on first sighting, so `SHARED` hits twice in
    // the first pass, and the second pass is all hits.
    let warm = WarmCaches::new();
    let first = mine(&candidates, true, Some(&warm));
    assert_eq!(counts(&first.exec), (2, 4, 0, 3));
    let second = mine(&candidates, true, Some(&warm));
    assert_eq!(counts(&second.exec), (6, 0, 3, 0));
    assert_eq!(first.mined, uncached.mined);
    assert_eq!(second.mined, uncached.mined);
}

#[test]
fn a_transition_is_stored_once_both_its_blobs_are() {
    // The same two-version history, three times over: its blobs are
    // stored at their second sighting, and so is the transition.
    let blobs = [SHARED.to_string(), unique(9)];
    let candidates: Vec<CandidateHistory> = (0..3).map(|i| candidate(i, &blobs)).collect();
    let cached = mine(&candidates, true, None);
    assert_eq!(counts(&cached.exec), (2, 4, 1, 2));
    assert_eq!(cached.mined, mine(&candidates, false, None).mined);
}
