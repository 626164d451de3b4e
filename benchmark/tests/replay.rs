//! The layer replay stands in for the server only if it answers as the
//! server answers. Its cloud is built by the calls `SkuteServer::bind`
//! makes and its status and header mapping is a copy of the server's
//! private handler; this test holds both copies to the original by sending
//! one seeded request stream to a wire server and to the replay and
//! comparing every response — status, every header, body.

use std::io::BufReader;
use std::path::PathBuf;

use skute_benchmark::loadgen::{Conn, Op, OpStream, Planned};
use skute_benchmark::report::RunArgs;
use skute_benchmark::serve::{self, Replay, RunningServer, ServeSpec, CONNECTIONS};
use skute_server::http::{self, Response};

/// Smoke-sized: 400 resp. 480 keys.
fn args(workload: &str) -> RunArgs {
    RunArgs {
        workload: workload.to_string(),
        seed: 11,
        seconds: 1.0,
        trace: true,
        shrink: 50,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("replay"),
    }
}

fn over_the_wire(
    conn: &mut Conn,
    spec: &ServeSpec,
    stream: &OpStream,
    planned: Planned,
) -> Response {
    let (method, body) = match planned.op {
        Op::Get => ("GET", Vec::new()),
        Op::Put => ("PUT", stream.value(planned.slot, planned.seq)),
        Op::Delete => ("DELETE", Vec::new()),
    };
    let mut headers = vec![("X-Country", stream.country(planned.country))];
    if let (Op::Get, Some(c)) = (planned.op, spec.consistency) {
        headers.push(("X-Consistency", c));
    }
    let target = format!("/kv/{}", stream.key(planned.slot));
    conn.request(method, &target, &headers, &body)
        .expect("the request completes")
}

fn parsed(bytes: &[u8]) -> Response {
    http::read_response(&mut BufReader::new(bytes)).expect("the replay writes a whole response")
}

fn same_responses(workload: &str) {
    let spec = serve::spec(workload).expect("a serving workload");
    let args = args(workload);
    // No tick thread: both clouds stay where the warm-up left them.
    let server =
        RunningServer::start(serve::server_config(&spec, args.seed, 0)).expect("the server binds");
    let mut conn = Conn::connect(&server.addr).expect("the server accepts");
    let mut streams: Vec<OpStream> = (0..CONNECTIONS)
        .map(|c| serve::op_stream(&spec, &args, c))
        .collect();

    // The preload `Replay::new` makes, made over the wire.
    let mut replay = Replay::new(&spec, &args).expect("the replay cloud builds");
    for (index, stream) in streams.iter_mut().enumerate() {
        for slot in 0..stream.owned() {
            let planned = stream.plan_at(Op::Put, slot);
            let response = over_the_wire(&mut conn, &spec, stream, planned);
            assert_eq!(response.status, 204, "preload of connection {index}");
            stream.settle(&planned, true);
        }
    }

    let mut seen = std::collections::BTreeMap::new();
    let mut servers = std::collections::BTreeSet::new();
    for i in 0..1_000 {
        let index = i % CONNECTIONS;
        let planned = streams[index].plan(spec.mix);
        assert_eq!(replay.step(index, &mut None), planned, "request {i}");
        let wire = over_the_wire(&mut conn, &spec, &streams[index], planned);
        let acknowledged = wire.status == 204;
        streams[index].settle(&planned, acknowledged);
        let ours = parsed(replay.last_response());
        let what = format!(
            "request {i}: {} {}",
            planned.op.name(),
            streams[index].key(planned.slot)
        );
        assert_eq!(ours.status, wire.status, "{what}");
        assert_eq!(ours.headers, wire.headers, "{what}");
        assert_eq!(ours.body, wire.body, "{what}");
        *seen.entry((planned.op.name(), wire.status)).or_insert(0) += 1;
        if let Some(server) = wire.header("x-served-by") {
            servers.insert(server.to_string());
        }
    }
    // The sample covered what the workload does: found and (where the mix
    // deletes) missing reads, acknowledged writes, many replicas.
    assert!(seen[&("get", 200)] > 100, "{seen:?}");
    if spec.mix.put > 0 {
        assert!(seen[&("put", 204)] > 10, "{seen:?}");
    }
    if spec.mix.delete > 0 {
        assert!(seen[&("delete", 204)] > 10, "{seen:?}");
        assert!(seen[&("get", 404)] > 0, "{seen:?}");
    }
    assert!(servers.len() > 20, "the reads spread over the fleet");
    assert_eq!(replay.tally().1, 0, "the replay's own checks held");
    drop(conn);
    server.stop().expect("the server shuts down");
}

#[test]
fn the_replay_answers_reads_of_the_mem_store_like_the_wire_server() {
    same_responses("serve_read_mem");
}

#[test]
fn the_replay_answers_writes_and_quorum_reads_of_the_lsm_like_the_wire_server() {
    same_responses("serve_write_lsm");
}
