//! The daemon keeps only its most recent 64 study responses for
//! `result` lookups; an evicted id gets the ordinary unknown-id error.

use schevo_corpus::store::generate_into_store;
use schevo_corpus::universe::UniverseConfig;
use schevo_serve::proto::{Request, Response};
use schevo_serve::{Server, ServerConfig};

fn request(op: &str, id: &str) -> Request {
    Request {
        id: Some(id.to_string()),
        op: op.to_string(),
        ..Request::default()
    }
}

fn result(server: &Server, id: &str) -> Response {
    server.dispatch(request("result", id)).0
}

#[test]
fn only_the_most_recent_64_results_are_kept() {
    let dir = std::env::temp_dir().join(format!("schevo_results_kept_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    generate_into_store(UniverseConfig::small(7, 200), &dir, 1).expect("store");
    let server = Server::new(ServerConfig::new(dir.clone())).expect("server opens");

    let mut first = None;
    for i in 0..66 {
        let (response, _) = server.dispatch(request("study", &format!("s{i}")));
        assert_eq!(response.status, "ok", "{:?}", response.error);
        first.get_or_insert(response);
    }
    // A repeated id replaces its entry instead of taking a second slot.
    server.dispatch(request("study", "s65"));

    for evicted in ["s0", "s1"] {
        let gone = result(&server, evicted);
        assert_eq!(gone.status, "error");
        assert_eq!(
            gone.error.as_deref(),
            Some(format!("no result for id `{evicted}`").as_str())
        );
    }
    for kept in ["s2", "s40", "s65"] {
        let stored = result(&server, kept);
        assert_eq!(stored.status, "ok", "{kept}: {:?}", stored.error);
        assert_eq!(stored.id.as_deref(), Some(kept));
        assert_eq!(
            stored.study_json,
            first.as_ref().and_then(|r| r.study_json.clone())
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
