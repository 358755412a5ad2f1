//! The `rayflex-server` binary end to end: spawn it on an ephemeral port, parse its
//! `listening on` line, send one request of every kind through [`WireClient`] and check each
//! answer against the direct [`ExecPolicy::fused`] library call (the contract
//! `bit_identity.rs` pins for the in-process server), then shut it down with a protocol
//! shutdown frame and check the ack, the clean exit and the `drained:` summary.

use std::io::{BufRead, BufReader, Lines};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use rayflex_core::PipelineConfig;
use rayflex_rtunit::{
    Bvh4, ExecPolicy, HierarchicalSearch, KnnEngine, KnnMetric, QueryOutcome, Scene, TraceRequest,
    TraversalEngine,
};
use rayflex_workloads::wire::{
    catalog, encode_response, RequestBody, RequestFrame, ResponseBody, ResponseFrame, WireClient,
    WireHit, WireNeighbor,
};

/// Kills the child if the test fails before the server exits on its own.
struct ServerProcess {
    child: Child,
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns the binary on `127.0.0.1:0` and returns it with its bound address and the rest of
/// its stdout.
fn spawn_server() -> (ServerProcess, String, Lines<BufReader<ChildStdout>>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rayflex-server"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server binary spawns");
    let stdout = child.stdout.take().expect("stdout is piped");
    let server = ServerProcess { child };
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("the server prints its address before exiting")
            .expect("stdout is readable");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    (server, addr, lines)
}

fn request(request_id: u64, scene: &str, body: RequestBody) -> RequestFrame {
    RequestFrame {
        request_id,
        tenant: 0,
        deadline_us: 0,
        scene: scene.into(),
        body,
    }
}

fn complete<T>(outcome: QueryOutcome<T>) -> T {
    match outcome {
        QueryOutcome::Complete(output) => output,
        QueryOutcome::Partial(_) => panic!("uncapped fused runs always complete"),
    }
}

fn hits(hits: Vec<Option<rayflex_rtunit::TraversalHit>>) -> ResponseBody {
    ResponseBody::Hits {
        hits: hits
            .into_iter()
            .map(|hit| {
                hit.map(|hit| WireHit {
                    primitive: hit.primitive as u64,
                    t: hit.t,
                })
            })
            .collect(),
    }
}

fn neighbors(neighbors: Vec<rayflex_rtunit::Neighbor>) -> ResponseBody {
    ResponseBody::Neighbors {
        neighbors: neighbors
            .into_iter()
            .map(|neighbor| WireNeighbor {
                index: neighbor.index as u64,
                distance: neighbor.distance,
            })
            .collect(),
    }
}

/// One trace, any-hit, kNN and radius request with the library's answer to each.
fn requests_with_library_answers() -> Vec<(RequestFrame, ResponseBody)> {
    let policy = ExecPolicy::fused();
    let scene_name = catalog::SCENES[0];
    let triangles = catalog::scene_triangles(scene_name).expect("catalog scene");
    let scene = Scene::from_parts(Bvh4::build(&triangles), triangles);
    let mut engine = TraversalEngine::with_config(PipelineConfig::extended_unified());

    let trace_rays = catalog::sample_rays(scene_name, 11, 6).expect("catalog rays");
    let trace = complete(
        engine
            .try_trace(&TraceRequest::closest_hit(&scene, &trace_rays), &policy)
            .expect("valid trace"),
    );
    let any_rays = catalog::sample_rays(scene_name, 12, 5).expect("catalog rays");
    let any = complete(
        engine
            .try_trace(&TraceRequest::any_hit(&scene, &any_rays), &policy)
            .expect("valid any-hit"),
    );

    let dataset_name = catalog::DATASETS[0];
    let dataset = catalog::dataset_vectors(dataset_name).expect("catalog dataset");
    let query = catalog::sample_queries(dataset_name, 13, 1).expect("catalog queries")[0].clone();
    let knn = KnnEngine::new()
        .try_k_nearest(&query, &dataset, 4, KnnMetric::Euclidean, &policy)
        .expect("valid knn");

    let cloud_name = catalog::CLOUDS[0];
    let points = catalog::cloud_points(cloud_name).expect("catalog cloud");
    let (center, radius) = catalog::sample_centers(cloud_name, 14, 1).expect("catalog centers")[0];
    let mut search = HierarchicalSearch::build(points, 0.05, PipelineConfig::extended_unified());
    let radius_hits = complete(
        search
            .try_radius_queries(&[(center, radius)], &policy)
            .expect("valid radius"),
    );

    vec![
        (
            request(1, scene_name, RequestBody::Trace { rays: trace_rays }),
            hits(trace.into_closest()),
        ),
        (
            request(2, scene_name, RequestBody::AnyHit { rays: any_rays }),
            hits(any.into_any()),
        ),
        (
            request(3, dataset_name, RequestBody::Knn { k: 4, query }),
            neighbors(knn),
        ),
        (
            request(
                4,
                cloud_name,
                RequestBody::Radius {
                    center: [center.x, center.y, center.z],
                    radius,
                },
            ),
            neighbors(radius_hits.into_iter().next().unwrap_or_default()),
        ),
    ]
}

#[test]
fn the_server_binary_answers_like_the_library_and_drains_on_shutdown() {
    let (mut server, addr, mut stdout) = spawn_server();
    let mut client = WireClient::connect(&addr).expect("client connects");
    client
        .stream_mut()
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout set");

    let cases = requests_with_library_answers();
    for (request, body) in &cases {
        let got = client.request(request).expect("request round-trips");
        let want = ResponseFrame {
            request_id: request.request_id,
            body: body.clone(),
        };
        assert_eq!(
            encode_response(&got),
            encode_response(&want),
            "request {} served differently from the library",
            request.request_id
        );
    }

    let ack = client
        .request(&request(u64::MAX, "", RequestBody::Shutdown))
        .expect("shutdown round-trips");
    assert!(
        matches!(ack.body, ResponseBody::ShutdownAck),
        "expected a shutdown ack, got {:?}",
        ack.body
    );
    drop(client);

    let status = server.child.wait().expect("server exits");
    assert!(
        status.success(),
        "server must drain and exit 0, got {status}"
    );
    let drained = stdout
        .find_map(|line| line.ok().filter(|line| line.starts_with("drained: ")))
        .expect("the server prints a drained summary");
    // The shutdown frame is counted as served alongside the four queries.
    let served = format!("served={} ", cases.len() + 1);
    assert!(
        drained.contains(&served),
        "expected {served:?} in {drained:?}"
    );
}
