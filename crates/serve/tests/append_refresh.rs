//! A resident daemon serves the store as it is now: after `schevo
//! append` republishes the manifest, the next study mines the appended
//! records and its run manifest reports the digest in `MANIFEST.json`.

use schevo_corpus::store::{append_into_store, generate_into_store, ShardStore};
use schevo_corpus::universe::{generate_appendix, UniverseConfig};
use schevo_serve::proto::{Request, Response};
use schevo_serve::{Server, ServerConfig};
use std::path::Path;

fn study(server: &Server, id: &str) -> Response {
    let (response, _) = server.dispatch(Request {
        id: Some(id.to_string()),
        op: "study".to_string(),
        ..Request::default()
    });
    assert_eq!(response.status, "ok", "{:?}", response.error);
    response
}

fn served_digest(response: &Response) -> String {
    let manifest: serde_json::Value = serde_json::from_str(
        response
            .manifest_json
            .as_deref()
            .expect("manifest in response"),
    )
    .expect("manifest parses");
    manifest
        .get_field("corpus_digest")
        .and_then(serde_json::Value::as_str)
        .expect("corpus_digest")
        .to_string()
}

fn published_digest(dir: &Path) -> String {
    ShardStore::open(dir)
        .expect("store opens")
        .manifest()
        .corpus_digest
        .clone()
}

#[test]
fn study_after_append_reports_the_appended_store() {
    let dir = std::env::temp_dir().join(format!("schevo_append_refresh_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = UniverseConfig::small(7, 40);
    generate_into_store(config, &dir, 2).expect("store");
    let server = Server::new(ServerConfig::new(dir.clone())).expect("server opens");

    let before = study(&server, "before");
    assert_eq!(served_digest(&before), published_digest(&dir));

    let appendix = generate_appendix(config, 1, 6, 0);
    append_into_store(&dir, &appendix.records).expect("append");
    assert_eq!(
        server
            .store_manifest()
            .expect("manifest")
            .appended_records(),
        6
    );

    let after = study(&server, "after");
    assert_ne!(served_digest(&after), served_digest(&before));
    assert_eq!(served_digest(&after), published_digest(&dir));
    // The same study a daemon started on the appended store serves.
    let fresh = Server::new(ServerConfig::new(dir.clone())).expect("server reopens");
    assert_eq!(after.study_json, study(&fresh, "fresh").study_json);
    assert_ne!(after.study_json, before.study_json);
    let _ = std::fs::remove_dir_all(&dir);
}
