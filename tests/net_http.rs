//! End-to-end tests for the wire front end: a real `TcpListener`, real
//! sockets, and hostile clients. The mined-result contract is checked
//! bit-for-bit against the in-process path.

use sirum::json::{mining_result_to_json, parse_json, JsonValue};
use sirum::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn spawn_server_with(configure: impl FnOnce(ServiceBuilder) -> ServiceBuilder) -> Server {
    let service = configure(SirumService::builder())
        .build()
        .expect("service builds");
    service.register_demo("flights").expect("demo registers");
    let router = Router::new(
        service,
        Arc::new(NetMetrics::new()),
        RouterConfig::default(),
    );
    let config = ServerConfig {
        read_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", router, config).expect("bind ephemeral port")
}

fn spawn_server() -> Server {
    spawn_server_with(|b| b)
}

fn client(server: &Server) -> HttpClient {
    HttpClient::new(server.local_addr()).timeout(Duration::from_secs(30))
}

/// Send raw bytes, read whatever comes back until the server closes.
fn raw_exchange(server: &Server, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(bytes).expect("write");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    reply
}

fn json_body(response: &ClientResponse) -> JsonValue {
    response.json().expect("JSON body")
}

#[test]
fn mined_result_over_tcp_is_bit_identical_to_in_process() {
    let server = spawn_server();
    let mut http = client(&server);

    // Upload a table over the wire…
    let csv = b"city,color,n\nparis,red,3\nparis,blue,4\nlyon,red,5\nlyon,blue,2\nnice,red,7\n";
    let uploaded = http
        .post("/tables/trips", csv, "text/csv")
        .expect("upload succeeds");
    assert_eq!(uploaded.status, 200, "{}", uploaded.text());

    // …and register the identical bytes in a separate in-process service.
    let local = SirumService::in_memory().expect("local service");
    local
        .register_csv("trips", &csv[..])
        .expect("local register");

    // Mine over HTTP.
    let response = http
        .post_json("/tables", "{}") // wrong usage first: typed 422, keep-alive survives
        .expect("bad request still answered");
    assert_eq!(response.status, 422);
    let response = http
        .post_json(
            "/mine",
            r#"{"table":"trips","k":2,"sample_size":5,"seed":7}"#,
        )
        .expect("mine over the wire");
    assert_eq!(response.status, 200, "{}", response.text());
    let wire = json_body(&response);
    assert_eq!(wire.get("state").and_then(|s| s.as_str()), Some("done"));

    // Mine the same request in process and render through the same
    // serializer: the wire payload must match bit for bit.
    let output = local
        .mine("trips")
        .k(2)
        .sample_size(5)
        .seed(7)
        .run()
        .expect("local mine");
    let table = local.table("trips").expect("table");
    let expected = mining_result_to_json(&output.result, &table);
    let got = wire.get("result").expect("result attached").render();
    // Strip the one run-dependent field (wall-clock timings); everything
    // else — rules, gains, KL trace, scaling iterations — must be
    // bit-identical between the wire and in-process paths.
    let strip = |rendered: &str| -> Vec<(String, JsonValue)> {
        parse_json(rendered)
            .expect("result parses")
            .entries()
            .expect("result is an object")
            .iter()
            .filter(|(k, _)| k != "timings")
            .cloned()
            .collect()
    };
    assert_eq!(
        strip(&expected),
        strip(&got),
        "wire result diverges from the in-process path"
    );
    server.shutdown();
}

#[test]
fn async_jobs_explain_stream_and_stats_work_over_tcp() {
    let server = spawn_server();
    let mut http = client(&server);

    // Async submit: wait_ms=0 on an uncached request answers 202 with a job id.
    let response = http
        .post_json(
            "/mine",
            r#"{"table":"flights","k":2,"sample_size":14,"wait_ms":0}"#,
        )
        .expect("submit");
    assert_eq!(response.status, 202, "{}", response.text());
    let id = json_body(&response)
        .get("job")
        .and_then(|j| j.as_u64())
        .expect("job id");

    // Poll to completion with a server-side wait.
    let response = http
        .get(&format!("/jobs/{id}?wait_ms=30000"))
        .expect("poll job");
    assert_eq!(response.status, 200, "{}", response.text());
    let body = json_body(&response);
    assert_eq!(body.get("state").and_then(|s| s.as_str()), Some("done"));
    assert!(body.get("result").is_some(), "finished job carries result");

    // Explain is read-only planning.
    let response = http
        .get("/explain?table=flights&k=3&sample_size=14")
        .expect("explain");
    assert_eq!(response.status, 200);
    let plan = json_body(&response);
    assert_eq!(plan.get("cached").and_then(|c| c.as_bool()), Some(false));
    // A plan of decisions: no priced member, every other member as it was.
    let members: Vec<&str> = plan
        .entries()
        .expect("plan object")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(
        members.join(" "),
        "table rows dims k gain_sweep packed_bits estimated_iterations estimated_lca_pairs cached rendered"
    );
    let number = |name: &str| plan.get(name).and_then(|v| v.as_u64());
    assert_eq!(number("rows"), Some(14));
    assert_eq!(number("packed_bits"), Some(64));
    assert_eq!(number("estimated_iterations"), Some(3));
    assert_eq!(number("estimated_lca_pairs"), Some(196));
    // 14 rows over 16 partitions never amortise a slot table…
    let rendered = |plan: &JsonValue| {
        plan.get("rendered")
            .and_then(|r| r.as_str().map(String::from))
    };
    let text = rendered(&plan).expect("rendered plan");
    assert!(text.contains("hash-probe combine"), "{text}");
    // …512 rows of 3 dimensions (32 a partition against 2^3) do, and the
    // plan names the combine the sweep will actually run.
    let mut csv = String::from("a,b,c,m\n");
    for i in 0..512 {
        csv.push_str(&format!("a{},b{},c{},{}\n", i % 4, i % 3, i % 5, 1 + i % 7));
    }
    let response = http
        .post("/tables/grid", csv.as_bytes(), "text/csv")
        .expect("upload");
    assert_eq!(response.status, 200, "{}", response.text());
    let response = http
        .get("/explain?table=grid&k=2&sample_size=8")
        .expect("explain grid");
    assert_eq!(response.status, 200, "{}", response.text());
    let text = rendered(&json_body(&response)).expect("rendered plan");
    assert!(text.contains("slot-table combine"), "{text}");

    // The retired representation knobs are rejected by name on the wire,
    // not silently ignored.
    for knob in ["columnar", "packed"] {
        let response = http
            .post_json("/mine", &format!(r#"{{"table":"flights","{knob}":false}}"#))
            .expect("mine with a retired knob");
        assert_eq!(response.status, 422, "{}", response.text());
        assert!(
            response.text().contains("unknown field") && response.text().contains(knob),
            "{}",
            response.text()
        );
        let response = http
            .get(&format!("/explain?table=flights&{knob}=false"))
            .expect("explain with a retired knob");
        assert_eq!(response.status, 422, "{}", response.text());
        assert!(
            response.text().contains("unknown query parameter") && response.text().contains(knob),
            "{}",
            response.text()
        );
    }

    // Stream rows into the incremental model.
    let table_rows = {
        let response = http.get("/tables").expect("tables");
        json_body(&response)
            .get("tables")
            .and_then(|t| t.as_array())
            .and_then(|t| t.first().cloned())
            .and_then(|t| t.get("rows").and_then(|r| r.as_u64()))
            .expect("row count")
    };
    let response = http
        .post_json("/stream/flights", r#"{"rows":[],"mine_more":1}"#)
        .expect("stream");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(
        json_body(&response).get("rows").and_then(|r| r.as_u64()),
        Some(table_rows)
    );

    // Metrics + stats reflect the traffic above.
    let response = http.get("/metrics").expect("metrics");
    let metrics = json_body(&response);
    let mine_count = metrics
        .get("endpoints")
        .and_then(|e| e.get("mine"))
        .and_then(|m| m.get("latency"))
        .and_then(|l| l.get("count"))
        .and_then(|c| c.as_u64())
        .expect("mine histogram count");
    assert!(
        mine_count >= 1,
        "mine endpoint recorded {mine_count} samples"
    );
    let response = http.get("/stats").expect("stats");
    let stats = json_body(&response);
    assert!(
        stats
            .get("job_latency")
            .and_then(|l| l.get("count"))
            .and_then(|c| c.as_u64())
            .expect("job latency count")
            >= 1
    );
    server.shutdown();
}

#[test]
fn hostile_wire_inputs_get_clean_4xx_not_hangs() {
    let server = spawn_server();

    // Binary garbage → 400.
    let reply = raw_exchange(&server, b"\x00\xff\x00\xff\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    // Unsupported version → 400.
    let reply = raw_exchange(&server, b"GET /health HTTP/0.9\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    // Bad Content-Length → 400.
    let reply = raw_exchange(
        &server,
        b"POST /mine HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    // Truncated body (declares 50 bytes, sends 5) → 400.
    let reply = raw_exchange(
        &server,
        b"POST /mine HTTP/1.1\r\ncontent-length: 50\r\n\r\n{\"t\":",
    );
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    // Chunked encoding is out of scope → 501.
    let reply = raw_exchange(
        &server,
        b"POST /mine HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 501"), "{reply}");

    // Oversized declared body → 413 without reading it.
    let reply = raw_exchange(
        &server,
        b"POST /mine HTTP/1.1\r\ncontent-length: 999999999999\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");

    // A huge header block → 431.
    let mut big = b"GET /health HTTP/1.1\r\n".to_vec();
    for i in 0..2000 {
        big.extend_from_slice(format!("x-pad-{i}: {:0>32}\r\n", i).as_bytes());
    }
    big.extend_from_slice(b"\r\n");
    let reply = raw_exchange(&server, &big);
    assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");

    // Malformed JSON body → 400 from the router, not a panic.
    let reply = raw_exchange(
        &server,
        b"POST /mine HTTP/1.1\r\ncontent-length: 9\r\n\r\n{\"table\":",
    );
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

    // The server survived all of it.
    let reply = raw_exchange(&server, b"GET /health HTTP/1.1\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    server.shutdown();
}

#[test]
fn slow_loris_is_cut_off_by_the_read_timeout() {
    let server = spawn_server(); // 500 ms read timeout
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // Dribble a request head and then stall forever.
    stream.write_all(b"GET /hea").expect("partial write");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    // The server must answer 408 (or at minimum close the socket) rather
    // than holding the connection open indefinitely.
    assert!(
        reply.is_empty() || reply.starts_with("HTTP/1.1 408"),
        "unexpected slow-loris reply: {reply}"
    );
    // And the accept loop never stalled behind the loris.
    let reply = raw_exchange(&server, b"GET /health HTTP/1.1\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    server.shutdown();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = spawn_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(
            b"GET /health HTTP/1.1\r\n\r\n\
              GET /tables HTTP/1.1\r\n\r\n\
              GET /health HTTP/1.1\r\nconnection: close\r\n\r\n",
        )
        .expect("pipelined write");
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    // Responses have no trailing CRLF after the body, so a pipelined
    // successor's status line is glued to the previous body: count
    // occurrences rather than lines.
    assert_eq!(reply.matches("HTTP/1.1 200 OK\r\n").count(), 3, "{reply}");
    assert!(reply.contains("\"tables\""), "{reply}");
    server.shutdown();
}

#[test]
fn overload_sheds_with_429_and_the_server_stays_responsive() {
    // One worker, queue of one: the second concurrent mine must shed.
    let server = spawn_server_with(|b| b.pool_workers(1).queue_capacity(1));
    let mut http = client(&server);

    // Saturate the single worker and its one queue slot with submits that
    // return immediately (`wait_ms: 0`). Distinct seeds keep the requests
    // from coalescing or hitting the cache, so each one needs the worker.
    let mut saw_429 = false;
    let mut submitted = 0_u64;
    for seed in 0..200 {
        let body = format!(
            "{{\"table\":\"flights\",\"k\":4,\"sample_size\":14,\"seed\":{seed},\"wait_ms\":0}}"
        );
        let response = http.post_json("/mine", &body).expect("submit");
        match response.status {
            202 => submitted += 1,
            429 => {
                saw_429 = true;
                assert_eq!(
                    response.header("retry-after"),
                    Some("1"),
                    "429 must carry Retry-After"
                );
            }
            other => panic!("unexpected status {other}: {}", response.text()),
        }
        if saw_429 && submitted >= 1 {
            break;
        }
    }
    assert!(saw_429, "queue of 1 never shed load across 50 submits");

    // The server still answers cheap endpoints while overloaded.
    let response = http.get("/health").expect("health during overload");
    assert_eq!(response.status, 200);
    let response = http.get("/stats").expect("stats during overload");
    let stats = json_body(&response);
    assert!(
        stats
            .get("jobs_rejected")
            .and_then(|r| r.as_u64())
            .expect("jobs_rejected")
            >= 1
    );
    server.shutdown();
}

#[test]
fn identical_concurrent_mines_coalesce_over_the_wire() {
    let server = spawn_server();
    server
        .router()
        .service()
        .register_demo_with("income", Some(1_500), 3)
        .expect("income registers");
    let addr = server.local_addr();
    let n = 6;
    let barrier = std::sync::Barrier::new(n);
    let replies: Vec<ClientResponse> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..n)
            .map(|_| {
                scope.spawn(|| {
                    let mut http = HttpClient::new(addr).timeout(Duration::from_secs(60));
                    // Connect before the barrier so the posts land together.
                    http.get("/health").expect("connect");
                    barrier.wait();
                    http.post_json("/mine", r#"{"table":"income","k":3,"seed":7}"#)
                        .expect("mine")
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    // One execution answered everyone: its followers and any late cache hit
    // share the leader's result, wall-clock timings included.
    let first = json_body(&replies[0]).get("result").map(JsonValue::render);
    assert!(first.is_some(), "{}", replies[0].text());
    for reply in &replies {
        assert_eq!(reply.status, 200, "{}", reply.text());
        assert_eq!(json_body(reply).get("result").map(JsonValue::render), first);
    }
    let stats = json_body(&client(&server).get("/stats").expect("stats"));
    let stat = |key: &str| stats.get(key).and_then(|v| v.as_u64()).expect("counter");
    assert_eq!(
        stat("jobs_executed") + stat("jobs_coalesced") + stat("cache_hits"),
        n as u64,
        "every request accounted for: {}",
        stats.render()
    );
    assert!(stat("jobs_executed") < n as u64, "{}", stats.render());
    server.shutdown();
}

#[test]
fn graceful_drain_finishes_inflight_work_then_closes() {
    let server = spawn_server();
    let mut http = client(&server);
    let response = http
        .post_json("/mine", r#"{"table":"flights","k":1,"sample_size":14}"#)
        .expect("mine before drain");
    assert_eq!(response.status, 200);
    let addr = server.local_addr();
    server.shutdown();
    // After drain the port no longer serves.
    let alive = TcpStream::connect(addr).is_ok_and(|mut s| {
        let _ = s.write_all(b"GET /health HTTP/1.1\r\n\r\n");
        let mut out = String::new();
        let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = s.read_to_string(&mut out);
        !out.is_empty()
    });
    assert!(!alive, "server answered after shutdown");
}
