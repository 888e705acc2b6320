//! Endpoint dispatch: maps the HTTP surface onto the in-process
//! [`SirumService`] API. Pure request→response logic — no sockets — so the
//! whole routing layer is unit-testable without a listener.

use crate::json::{self, parse_json, JsonValue};
use crate::net::http::{Request, Response};
use crate::net::metrics::{Endpoint, NetMetrics};
use crate::service::{FieldError, IngestHandle, JobOutput, JobState, JobStatus, SirumService};
use parking_lot::Mutex;
use sirum_core::{Evaluation, SirumError};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving knobs for the router (the server adds socket-level ones).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// How long `POST /mine` waits inline for the job before answering
    /// `202 Accepted` with a job id (overridable per request via
    /// `wait_ms`). Default 15 s.
    pub default_wait: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            default_wait: Duration::from_secs(15),
        }
    }
}

/// The wire front end's dispatcher: owns the service handle, the
/// per-endpoint metrics and the server-held ingest streams.
pub struct Router {
    service: SirumService,
    metrics: Arc<NetMetrics>,
    // Two-level locking: the outer map lock is only ever held to look up
    // or insert an entry, never across ingest/mining work; each stream
    // serializes its own operations behind its own mutex, so a slow
    // `mine_more` on one table cannot stall `POST /stream` on another.
    streams: Mutex<HashMap<String, Arc<Mutex<IngestHandle>>>>,
    started: Instant,
    config: RouterConfig,
}

/// Map a service error to its wire status: unknown names are `404`,
/// shed load is `429`, internal serving trouble is `500`, and every
/// bad-input shape is `400`.
fn error_status(e: &SirumError) -> u16 {
    match e {
        SirumError::UnknownTable { .. } | SirumError::UnknownDemo { .. } => 404,
        SirumError::Overloaded { .. } => 429,
        SirumError::Service { .. } => 500,
        _ => 400,
    }
}

fn service_error(e: &SirumError) -> Response {
    let status = error_status(e);
    let response = Response::error(status, &e.to_string());
    if status == 429 {
        // Shed-load contract: tell closed-loop clients when to retry.
        response.with_header("retry-after", "1")
    } else {
        response
    }
}

/// The message of a field whose value has the wrong JSON shape.
fn wrong_shape(key: &str, shape: &str) -> String {
    format!("field {key:?} must be {shape}")
}

impl Router {
    /// Build a router over a service handle.
    pub fn new(service: SirumService, metrics: Arc<NetMetrics>, config: RouterConfig) -> Self {
        Router {
            service,
            metrics,
            streams: Mutex::new(HashMap::new()),
            started: Instant::now(),
            config,
        }
    }

    /// The shared metrics registry (exported by `GET /metrics`).
    pub fn metrics(&self) -> &Arc<NetMetrics> {
        &self.metrics
    }

    /// The underlying service handle.
    pub fn service(&self) -> &SirumService {
        &self.service
    }

    /// Dispatch one parsed request. Never panics; every outcome is a
    /// response paired with the endpoint label it is accounted under.
    pub fn handle(&self, request: &Request) -> (Endpoint, Response) {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let method = request.method.as_str();
        match (method, segments.as_slice()) {
            ("GET", ["health"]) => (Endpoint::Health, self.health()),
            ("GET", ["tables"]) => (Endpoint::Tables, self.list_tables()),
            ("POST", ["tables"]) => match request.query_value("name") {
                Some(name) => (Endpoint::Tables, self.register_table(name, &request.body)),
                None => (
                    Endpoint::Tables,
                    Response::error(422, "POST /tables needs ?name=… (or use /tables/{name})"),
                ),
            },
            ("POST", ["tables", name]) => {
                (Endpoint::Tables, self.register_table(name, &request.body))
            }
            ("DELETE", ["tables", name]) => (Endpoint::Tables, self.unregister_table(name)),
            ("POST", ["mine"]) => (Endpoint::Mine, self.mine(request).unwrap_or_else(|e| e)),
            ("GET", ["jobs"]) => (Endpoint::Jobs, self.list_jobs()),
            ("GET", ["jobs", id]) => (Endpoint::Jobs, self.job(id, request)),
            ("DELETE", ["jobs", id]) => (Endpoint::Jobs, self.cancel_job(id)),
            ("GET", ["explain"]) => (
                Endpoint::Explain,
                self.explain(request).unwrap_or_else(|e| e),
            ),
            ("POST", ["stream", table]) => (Endpoint::Stream, self.stream(table, &request.body)),
            ("GET", ["metrics"]) => (Endpoint::Metrics, self.metrics_snapshot()),
            ("GET", ["stats"]) => (Endpoint::Stats, self.stats()),
            (
                _,
                ["health" | "tables" | "mine" | "jobs" | "explain" | "stream" | "metrics" | "stats", ..],
            ) => (
                Endpoint::Other,
                Response::error(
                    405,
                    &format!("{method} is not supported on {}", request.path),
                ),
            ),
            _ => (
                Endpoint::Other,
                Response::error(404, &format!("no route for {}", request.path)),
            ),
        }
    }

    fn health(&self) -> Response {
        Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"uptime_ms\":{}}}",
                self.started.elapsed().as_millis()
            ),
        )
    }

    fn list_tables(&self) -> Response {
        let tables: Vec<String> = self
            .service
            .table_names()
            .iter()
            .filter_map(|name| {
                // None when unregistered between listing and lookup.
                let table = self.service.table(name).ok()?;
                Some(format!(
                    "{{\"name\":{},\"rows\":{},\"dims\":{},\"fingerprint\":\"{:016x}\"}}",
                    json::json_string(name),
                    table.num_rows(),
                    table.num_dims(),
                    table.fingerprint(),
                ))
            })
            .collect();
        Response::json(200, format!("{{\"tables\":[{}]}}", tables.join(",")))
    }

    fn register_table(&self, name: &str, body: &[u8]) -> Response {
        if name.is_empty() {
            return Response::error(422, "table name must be non-empty");
        }
        let csv = match std::str::from_utf8(body) {
            Ok(csv) => csv,
            Err(_) => return Response::error(400, "CSV body must be UTF-8"),
        };
        match self.service.register_csv(name, csv.as_bytes()) {
            Ok(table) => {
                // A replaced table takes its server-held ingest stream with
                // it, as a deleted one does: the next POST /stream/{name}
                // re-seeds from the new rows and dictionaries.
                self.streams.lock().remove(name);
                Response::json(
                    200,
                    format!(
                        "{{\"table\":{},\"rows\":{},\"dims\":{},\"fingerprint\":\"{:016x}\"}}",
                        json::json_string(name),
                        table.num_rows(),
                        table.num_dims(),
                        table.fingerprint(),
                    ),
                )
            }
            Err(e) => service_error(&e),
        }
    }

    fn unregister_table(&self, name: &str) -> Response {
        // Drop any server-held ingest stream seeded from the table too.
        self.streams.lock().remove(name);
        match self.service.unregister(name) {
            Some(_) => Response::json(200, format!("{{\"removed\":{}}}", json::json_string(name))),
            None => Response::error(404, &format!("unknown table {name:?}")),
        }
    }

    /// `Err` is the response of a request that was refused.
    fn mine(&self, request: &Request) -> Result<Response, Response> {
        let body = match std::str::from_utf8(&request.body) {
            Ok(s) if !s.trim().is_empty() => s,
            _ => return Err(Response::error(400, "POST /mine needs a JSON body")),
        };
        let parsed = parse_json(body)
            .map_err(|e| Response::error(400, &format!("invalid JSON body: {e}")))?;
        let entries = parsed
            .entries()
            .ok_or_else(|| Response::error(422, "mine request body must be a JSON object"))?;
        let table = parsed
            .get("table")
            .ok_or_else(|| Response::error(422, "mine request needs a string \"table\" field"))?
            .as_str()
            .ok_or_else(|| Response::error(422, &wrong_shape("table", "a string")))?;
        let millis = |key: &str, value: &JsonValue| {
            let ms = value
                .as_u64()
                .ok_or_else(|| Response::error(422, &wrong_shape(key, "a nonnegative integer")))?;
            Ok(Duration::from_millis(ms))
        };
        let mut req = self.service.mine(table);
        let mut wait = self.config.default_wait;
        for (i, (key, value)) in entries.iter().enumerate() {
            // A repeated key's first value is the field, as `JsonValue::get`
            // reads a body.
            if entries[..i].iter().any(|(earlier, _)| earlier == key) {
                continue;
            }
            req = match key.as_str() {
                "table" => req,
                "timeout_ms" => req.deadline(millis(key, value)?),
                "wait_ms" => {
                    wait = millis(key, value)?;
                    req
                }
                _ => req.set(key, value).map_err(|e| match e {
                    FieldError::Unknown => Response::error(422, &format!("unknown field {key:?}")),
                    FieldError::Invalid(message) => Response::error(422, &message),
                })?,
            };
        }

        // Non-blocking admission: a full queue sheds with 429 instead of
        // stalling this connection thread (and the accept loop behind it).
        let mut handle = req.try_submit().map_err(|e| service_error(&e))?;
        // Wait on the handle itself: the registry is bounded (and may be
        // disabled), so the answer must not depend on re-finding the job
        // by id once it has finished. A zero wait hands the id over for
        // polling instead — unless the registry does not know it (an answer
        // from the result cache, or no registry): what is finished is then
        // delivered here, the only place it can be.
        let poll_by_id = wait.is_zero() && self.service.job_status(handle.id()).is_some();
        if !poll_by_id {
            if let Some(outcome) = handle.wait_timeout(wait) {
                let output = outcome.map_err(|e| service_error(&e))?;
                let status = JobStatus {
                    id: handle.id(),
                    table: table.to_string(),
                    state: JobState::Done {
                        from_cache: output.from_cache,
                        cancelled: output.result.cancelled,
                    },
                    cancel_requested: handle.cancellation_token().is_cancelled(),
                };
                return Ok(Response::json(200, self.job_json(&status, Some(&output))));
            }
        }
        Ok(Response::json(
            202,
            format!("{{\"job\":{},\"state\":\"queued\"}}", handle.id()),
        ))
    }

    fn list_jobs(&self) -> Response {
        let ids = self.service.job_ids();
        let rendered: Vec<String> = ids.iter().map(u64::to_string).collect();
        Response::json(200, format!("{{\"jobs\":[{}]}}", rendered.join(",")))
    }

    fn parse_job_id(&self, id: &str) -> Result<u64, Response> {
        id.parse::<u64>()
            .map_err(|_| Response::error(400, &format!("job id {id:?} must be an integer")))
    }

    fn job(&self, id: &str, request: &Request) -> Response {
        let id = match self.parse_job_id(id) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        if let Some(ms) = request.query_value("wait_ms") {
            match ms.parse::<u64>() {
                Ok(ms) => {
                    // Only the wait matters; job_response below re-reads the outcome non-consumingly.
                    let _ = self.service.wait_job(id, Duration::from_millis(ms));
                }
                Err(_) => {
                    return Response::error(
                        400,
                        "wait_ms must be an integer number of milliseconds",
                    )
                }
            }
        }
        self.job_response(id)
    }

    /// Render a job's status (and, when finished, its full result) by id.
    fn job_response(&self, id: u64) -> Response {
        let Some(status) = self.service.job_status(id) else {
            return Response::error(
                404,
                &format!("unknown job {id} (never submitted or evicted)"),
            );
        };
        let output = match status.state {
            JobState::Done { .. } => self.service.job_output(id).and_then(Result::ok),
            _ => None,
        };
        Response::json(200, self.job_json(&status, output.as_ref()))
    }

    /// Render `status`; a finished job's `output` rides along as its full
    /// result while the table (for dictionary decoding) is still
    /// registered.
    fn job_json(&self, status: &JobStatus, output: Option<&JobOutput>) -> String {
        let mut out = format!(
            "{{\"job\":{},\"table\":{},\"cancel_requested\":{}",
            status.id,
            json::json_string(&status.table),
            status.cancel_requested,
        );
        match &status.state {
            JobState::Queued => out.push_str(",\"state\":\"queued\""),
            JobState::Consumed => out.push_str(",\"state\":\"consumed\""),
            JobState::Failed { reason } => {
                out.push_str(",\"state\":\"failed\",\"reason\":");
                out.push_str(&json::json_string(reason));
            }
            JobState::Done {
                from_cache,
                cancelled,
            } => {
                out.push_str(&format!(
                    ",\"state\":\"done\",\"from_cache\":{from_cache},\"cancelled\":{cancelled}"
                ));
                if let (Some(output), Ok(table)) = (output, self.service.table(&status.table)) {
                    out.push_str(",\"result\":");
                    out.push_str(&json::mining_result_to_json(&output.result, &table));
                }
            }
        }
        out.push('}');
        out
    }

    fn cancel_job(&self, id: &str) -> Response {
        let id = match self.parse_job_id(id) {
            Ok(id) => id,
            Err(resp) => return resp,
        };
        if self.service.cancel_job(id) {
            Response::json(200, format!("{{\"job\":{id},\"cancel_requested\":true}}"))
        } else {
            Response::error(404, &format!("unknown job {id}"))
        }
    }

    /// `Err` is the response of a request that was refused.
    fn explain(&self, request: &Request) -> Result<Response, Response> {
        let table = request
            .query_value("table")
            .ok_or_else(|| Response::error(422, "GET /explain needs ?table=…"))?;
        let mut req = self.service.mine(table);
        for (key, text) in &request.query {
            if key == "table" {
                continue;
            }
            req = req.set_text(key, text).map_err(|e| {
                let message = match e {
                    FieldError::Unknown => format!("unknown query parameter {key:?}"),
                    FieldError::Invalid(_) => format!("query parameter {key}={text:?} is invalid"),
                };
                Response::error(422, &message)
            })?;
        }
        let plan = req.explain().map_err(|e| service_error(&e))?;
        let packed_bits = match plan.packed_bits {
            Some(bits) => bits.to_string(),
            None => "null".to_string(),
        };
        Ok(Response::json(
            200,
            format!(
                "{{\"table\":{},\"rows\":{},\"dims\":{},\"k\":{},\"gain_sweep\":{},\
                 \"packed_bits\":{},\"estimated_iterations\":{},\
                 \"estimated_lca_pairs\":{},\"cached\":{},\"rendered\":{}}}",
                json::json_string(&plan.table),
                plan.rows,
                plan.dims,
                plan.k,
                plan.evaluation == Evaluation::Sweep,
                packed_bits,
                plan.estimated_iterations,
                plan.estimated_lca_pairs,
                plan.cached,
                json::json_string(&plan.to_string()),
            ),
        ))
    }

    fn stream(&self, table: &str, body: &[u8]) -> Response {
        let parsed = match std::str::from_utf8(body)
            .map_err(|_| ())
            .and_then(|s| parse_json(s).map_err(|_| ()))
        {
            Ok(v) => v,
            Err(()) => return Response::error(400, "POST /stream needs a JSON body"),
        };
        let mut rows: Vec<(Vec<u32>, f64)> = Vec::new();
        if let Some(list) = parsed.get("rows") {
            let Some(list) = list.as_array() else {
                return Response::error(422, "field \"rows\" must be an array");
            };
            for row in list {
                let codes = row.get("codes").and_then(|c| c.as_array());
                let measure = row.get("measure").and_then(|m| m.as_f64());
                let (Some(codes), Some(measure)) = (codes, measure) else {
                    return Response::error(
                        422,
                        "each row needs {\"codes\": [dictionary codes], \"measure\": number}",
                    );
                };
                let mut decoded = Vec::with_capacity(codes.len());
                for code in codes {
                    match code.as_u64().filter(|c| *c < u64::from(u32::MAX)) {
                        Some(c) => decoded.push(c as u32),
                        None => return Response::error(422, "codes must be u32 dictionary codes"),
                    }
                }
                rows.push((decoded, measure));
            }
        }
        let mine_more = match parsed.get("mine_more") {
            None => None,
            Some(v) => match v.as_usize() {
                Some(k) => Some(k),
                None => {
                    return Response::error(
                        422,
                        "field \"mine_more\" must be a nonnegative integer",
                    )
                }
            },
        };

        let stream = {
            let mut streams = self.streams.lock();
            match streams.entry(table.to_string()) {
                std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
                std::collections::hash_map::Entry::Vacant(slot) => {
                    match self.service.stream(table) {
                        Ok(handle) => Arc::clone(slot.insert(Arc::new(Mutex::new(handle)))),
                        Err(e) => return service_error(&e),
                    }
                }
            }
        };
        let mut handle = stream.lock();
        let borrowed: Vec<(&[u32], f64)> = rows.iter().map(|(r, m)| (r.as_slice(), *m)).collect();
        // lint:allow(SL003) — per-stream guard: serializing one stream's own ingest is the contract
        if let Err(e) = handle.ingest(&borrowed) {
            return service_error(&e);
        }
        let added = match mine_more {
            // lint:allow(SL003) — per-stream guard: mine_more extends this stream's own pool
            Some(k) => match handle.mine_more(k) {
                Ok(added) => added.len(),
                Err(e) => return service_error(&e),
            },
            None => 0,
        };
        Response::json(
            200,
            format!(
                "{{\"table\":{},\"rows\":{},\"rules\":{},\"added\":{added},\"kl\":{}}}",
                json::json_string(table),
                handle.len(),
                handle.rules().len(),
                json::json_number(handle.kl()),
            ),
        )
    }

    /// Render block-store memory pressure as a JSON object fragment.
    fn memory_json(memory: &sirum_dataflow::MemoryStats) -> String {
        format!(
            "{{\"resident_bytes\":{},\"spilled_bytes\":{},\"evictions\":{}}}",
            memory.resident_bytes, memory.spilled_bytes, memory.evictions,
        )
    }

    fn metrics_snapshot(&self) -> Response {
        Response::json(
            200,
            format!(
                "{{\"uptime_ms\":{},\"connections\":{},\"connections_rejected\":{},\
                 \"read_failures\":{},\"write_failures\":{},\"memory\":{},\"endpoints\":{}}}",
                self.started.elapsed().as_millis(),
                self.metrics.connections.load(Ordering::Relaxed),
                self.metrics.connections_rejected.load(Ordering::Relaxed),
                self.metrics.read_failures.load(Ordering::Relaxed),
                self.metrics.write_failures.load(Ordering::Relaxed),
                Self::memory_json(&self.service.stats().memory),
                self.metrics.endpoints_json(),
            ),
        )
    }

    fn stats(&self) -> Response {
        let stats = self.service.stats();
        let active: Vec<String> = stats.active_jobs.iter().map(u64::to_string).collect();
        Response::json(
            200,
            format!(
                "{{\"cache_hits\":{},\"cache_misses\":{},\"jobs_executed\":{},\
                 \"jobs_cancelled\":{},\"jobs_coalesced\":{},\"jobs_rejected\":{},\
                 \"queue_depth\":{},\"cache_entries\":{},\"active_jobs\":[{}],\
                 \"job_latency\":{},\"memory\":{}}}",
                stats.cache_hits,
                stats.cache_misses,
                stats.jobs_executed,
                stats.jobs_cancelled,
                stats.jobs_coalesced,
                stats.jobs_rejected,
                stats.queue_depth,
                stats.cache_entries,
                active.join(","),
                stats.job_latency.to_json(),
                Self::memory_json(&stats.memory),
            ),
        )
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("tables", &self.service.table_names())
            .field("streams", &self.streams.lock().len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::net::http::Request;

    fn request(method: &str, target: &str, body: &[u8]) -> Request {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (
                p.to_string(),
                q.split('&')
                    .filter(|kv| !kv.is_empty())
                    .map(|kv| match kv.split_once('=') {
                        Some((k, v)) => (k.to_string(), v.to_string()),
                        None => (kv.to_string(), String::new()),
                    })
                    .collect(),
            ),
            None => (target.to_string(), Vec::new()),
        };
        Request {
            method: method.to_string(),
            path,
            query,
            headers: Vec::new(),
            body: body.to_vec(),
            keep_alive: true,
        }
    }

    fn router() -> Router {
        let service = SirumService::in_memory().expect("service");
        service.register_demo("flights").expect("demo");
        Router::new(
            service,
            Arc::new(NetMetrics::new()),
            RouterConfig::default(),
        )
    }

    fn body_json(resp: &Response) -> JsonValue {
        parse_json(std::str::from_utf8(&resp.body).expect("utf8 body")).expect("json body")
    }

    #[test]
    fn health_tables_and_stats_respond() {
        let r = router();
        let (ep, resp) = r.handle(&request("GET", "/health", b""));
        assert_eq!((ep, resp.status), (Endpoint::Health, 200));
        let (_, resp) = r.handle(&request("GET", "/tables", b""));
        let tables = body_json(&resp);
        let names = tables
            .get("tables")
            .and_then(|t| t.as_array())
            .expect("array");
        assert_eq!(names.len(), 1);
        assert_eq!(
            names[0].get("name").and_then(|n| n.as_str()),
            Some("flights")
        );
        let (_, resp) = r.handle(&request("GET", "/stats", b""));
        assert_eq!(resp.status, 200);
        let stats = body_json(&resp);
        assert!(stats.get("job_latency").is_some());
        // Memory pressure is part of the serving surface: resident bytes
        // plus spill/eviction counters from the engine's block store.
        let memory = stats.get("memory").expect("memory object");
        for key in ["resident_bytes", "spilled_bytes", "evictions"] {
            assert!(memory.get(key).and_then(|v| v.as_u64()).is_some(), "{key}");
        }
    }

    #[test]
    fn mine_round_trips_inline_and_matches_in_process() {
        let r = router();
        let (ep, resp) = r.handle(&request(
            "POST",
            "/mine",
            br#"{"table":"flights","k":2,"sample_size":14}"#,
        ));
        assert_eq!((ep, resp.status), (Endpoint::Mine, 200));
        let body = body_json(&resp);
        assert_eq!(body.get("state").and_then(|s| s.as_str()), Some("done"));
        let rules = body
            .get("result")
            .and_then(|r| r.get("rules"))
            .and_then(|r| r.as_array())
            .expect("rules");
        assert_eq!(rules.len(), 3);
        // Bit-identical to the in-process path: the wire result is the
        // same JSON the service renders directly.
        let table = r.service().table("flights").expect("table");
        let out = r
            .service()
            .mine("flights")
            .k(2)
            .sample_size(14)
            .run()
            .expect("run");
        let inline = json::mining_result_to_json(&out.result, &table);
        let wire = body.get("result").expect("result").render();
        assert_eq!(
            parse_json(&inline).expect("json"),
            parse_json(&wire).expect("json")
        );
    }

    #[test]
    fn mine_validates_its_body() {
        let r = router();
        // (body, status, text the error must contain)
        for (body, status, names) in [
            (&b"not json"[..], 400, ""),
            (br#"[1,2,3]"#, 422, ""),
            (br#"{"k":3}"#, 422, "\"table\""),
            (
                br#"{"table":"flights","kk":3}"#,
                422,
                "unknown field \"kk\"",
            ),
            // Retired knobs are unknown fields like any other typo.
            (
                br#"{"table":"flights","columnar":false}"#,
                422,
                "unknown field \"columnar\"",
            ),
            (
                br#"{"table":"flights","packed":false}"#,
                422,
                "unknown field \"packed\"",
            ),
            // How candidates are scored cannot change the answer, so it is
            // not a request field; a variant picks the pipeline.
            (
                br#"{"table":"flights","gain_sweep":false}"#,
                422,
                "unknown field \"gain_sweep\"",
            ),
            (br#"{"table":"flights","k":"three"}"#, 422, "\"k\""),
            (br#"{"table":"nope"}"#, 404, ""),
            (br#"{"table":"flights","variant":"warp-speed"}"#, 422, ""),
            (br#"{"table":"flights","sample_size":0}"#, 400, ""),
        ] {
            let (_, resp) = r.handle(&request("POST", "/mine", body));
            let error = body_json(&resp);
            let text = error.get("error").and_then(|e| e.as_str()).expect("error");
            assert_eq!(
                resp.status,
                status,
                "body {:?} → {text}",
                String::from_utf8_lossy(body),
            );
            assert!(text.contains(names), "{text} does not name {names}");
        }
    }

    #[test]
    fn async_mine_jobs_are_pollable_and_cancellable() {
        let r = router();
        let (_, resp) = r.handle(&request(
            "POST",
            "/mine",
            br#"{"table":"flights","k":1,"sample_size":14,"wait_ms":0}"#,
        ));
        assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
        let id = body_json(&resp)
            .get("job")
            .and_then(|j| j.as_u64())
            .expect("job id");
        // Poll with a wait until done.
        let (_, resp) = r.handle(&request("GET", &format!("/jobs/{id}?wait_ms=30000"), b""));
        assert_eq!(resp.status, 200);
        let body = body_json(&resp);
        assert_eq!(body.get("state").and_then(|s| s.as_str()), Some("done"));
        assert!(body.get("result").is_some());
        // Listed, cancellable (no-op once done), and unknown ids 404.
        let (_, resp) = r.handle(&request("GET", "/jobs", b""));
        assert!(body_json(&resp)
            .get("jobs")
            .and_then(|j| j.as_array())
            .is_some());
        let (_, resp) = r.handle(&request("DELETE", &format!("/jobs/{id}"), b""));
        assert_eq!(resp.status, 200);
        let (_, resp) = r.handle(&request("GET", "/jobs/999999", b""));
        assert_eq!(resp.status, 404);
        let (_, resp) = r.handle(&request("DELETE", "/jobs/999999", b""));
        assert_eq!(resp.status, 404);
        let (_, resp) = r.handle(&request("GET", "/jobs/bogus", b""));
        assert_eq!(resp.status, 400);
    }

    fn router_with_registry(capacity: usize) -> Router {
        let service = SirumService::builder()
            .pool_workers(1)
            .job_registry_capacity(capacity)
            .build()
            .expect("service");
        service.register_demo("flights").expect("demo");
        Router::new(
            service,
            Arc::new(NetMetrics::new()),
            RouterConfig::default(),
        )
    }

    /// Submit a job that holds the one pool worker of
    /// [`router_with_registry`] until the returned barrier is met.
    fn park_the_worker(r: &Router) -> (crate::service::JobHandle, Arc<std::sync::Barrier>) {
        let gate = Arc::new(std::sync::Barrier::new(2));
        let parked = Arc::clone(&gate);
        let blocker = r
            .service()
            .mine("flights")
            .k(1)
            .sample_size(14)
            .on_iteration(move |_| {
                parked.wait();
                sirum_core::IterationDecision::Continue
            })
            .submit()
            .expect("blocker");
        (blocker, gate)
    }

    fn assert_full_result(resp: &Response, rules: usize) {
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let body = body_json(resp);
        assert_eq!(body.get("state").and_then(|s| s.as_str()), Some("done"));
        assert_eq!(body.get("table").and_then(|s| s.as_str()), Some("flights"));
        let mined = body
            .get("result")
            .and_then(|r| r.get("rules"))
            .and_then(|r| r.as_array())
            .expect("rules");
        assert_eq!(mined.len(), rules);
    }

    #[test]
    fn synchronous_mine_answers_without_a_job_registry() {
        // Regression: `POST /mine` dropped its handle and re-found the job
        // by id, so a disabled registry turned every mine into
        // `500 job vanished from the registry`.
        let r = router_with_registry(0);
        let mine = request(
            "POST",
            "/mine",
            br#"{"table":"flights","k":2,"sample_size":14}"#,
        );
        let (_, resp) = r.handle(&mine);
        assert_full_result(&resp, 3);
        assert_eq!(
            body_json(&resp).get("from_cache").and_then(|c| c.as_bool()),
            Some(false)
        );
        // The cached repeat renders from its handle just the same.
        let (_, resp) = r.handle(&mine);
        assert_full_result(&resp, 3);
        assert_eq!(
            body_json(&resp).get("from_cache").and_then(|c| c.as_bool()),
            Some(true)
        );
        // Nothing was registered, and an expired wait still names the job:
        // behind a parked worker it cannot have finished.
        assert!(r.service().job_ids().is_empty());
        let (blocker, gate) = park_the_worker(&r);
        let (_, resp) = r.handle(&request(
            "POST",
            "/mine",
            br#"{"table":"flights","k":1,"sample_size":14,"wait_ms":0}"#,
        ));
        assert_eq!(resp.status, 202);
        assert!(body_json(&resp)
            .get("job")
            .and_then(|j| j.as_u64())
            .is_some());
        gate.wait();
        blocker.wait().expect("blocker finishes");
    }

    #[test]
    fn async_mine_of_a_cached_request_answers_inline() {
        // A cache hit leaves no job record, so `202` would name an id that
        // `GET /jobs/{id}` can never resolve: the answer comes back here.
        let r = router();
        let mine = |body: &[u8]| r.handle(&request("POST", "/mine", body)).1;
        let first = mine(br#"{"table":"flights","k":2,"sample_size":14}"#);
        assert_full_result(&first, 3);
        let listed = r.service().job_ids();
        let again = mine(br#"{"table":"flights","k":2,"sample_size":14,"wait_ms":0}"#);
        assert_full_result(&again, 3);
        let body = body_json(&again);
        assert_eq!(body.get("from_cache").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(body.get("result"), body_json(&first).get("result"));
        assert_eq!(r.service().job_ids(), listed);
        let id = body.get("job").and_then(|j| j.as_u64()).expect("job id");
        let (_, resp) = r.handle(&request("GET", &format!("/jobs/{id}"), b""));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn synchronous_mine_survives_eviction_from_a_full_registry() {
        // One pool worker, one registry record. A parked job holds the
        // worker, so the synchronous mine is still queued when a second
        // submit takes the registry's only record away from it.
        let r = router_with_registry(1);
        let (blocker, gate) = park_the_worker(&r);
        std::thread::scope(|scope| {
            let waiting = scope.spawn(|| {
                r.handle(&request(
                    "POST",
                    "/mine",
                    br#"{"table":"flights","k":2,"sample_size":14}"#,
                ))
                .1
            });
            // Registered once its id replaces the blocker's.
            while r.service().job_ids() == [blocker.id()] {
                std::thread::yield_now();
            }
            let (_, resp) = r.handle(&request(
                "POST",
                "/mine",
                br#"{"table":"flights","k":1,"sample_size":14,"wait_ms":0}"#,
            ));
            assert_eq!(resp.status, 202);
            let evictor = body_json(&resp).get("job").and_then(|j| j.as_u64());
            assert_eq!(r.service().job_ids(), [evictor.expect("job id")]);
            gate.wait();
            assert_full_result(&waiting.join().expect("mine thread"), 3);
        });
        blocker.wait().expect("blocker finishes");
    }

    #[test]
    fn mine_and_explain_accept_the_same_fields() {
        let r = router();
        // (field, value as a `/mine` body spells it); the query spells a
        // string as the bare word.
        for (field, value) in [
            ("k", "2"),
            ("sample_size", "14"),
            ("variant", "\"rct\""),
            ("full_cube", "true"),
            ("two_sided", "true"),
            ("epsilon", "0.001"),
            ("max_scaling_iterations", "5"),
            ("seed", "7"),
            ("rules_per_iter", "2"),
            ("target_kl", "0.5"),
            ("max_rules", "4"),
            ("column_groups", "2"),
            ("prior", "[[0,null,null]]"),
        ] {
            let body = format!("{{\"table\":\"flights\",\"{field}\":{value}}}");
            let (_, resp) = r.handle(&request("POST", "/mine", body.as_bytes()));
            assert_eq!(resp.status, 200, "{body} → {:?}", body_json(&resp));
            let target = format!("/explain?table=flights&{field}={}", value.trim_matches('"'));
            let (_, resp) = r.handle(&request("GET", &target, b""));
            assert_eq!(resp.status, 200, "{target} → {:?}", body_json(&resp));
            // Same fields, same request: the mine above answers it.
            let cached = body_json(&resp).get("cached").and_then(|v| v.as_bool());
            assert_eq!(cached, Some(true), "{target}");
        }
        let (_, resp) = r.handle(&request(
            "POST",
            "/mine",
            br#"{"table":"flights","k":2,"max_scaling_iterations":5,"prior":[[0,null,null]]}"#,
        ));
        assert_eq!(resp.status, 200);
        let (_, resp) = r.handle(&request(
            "GET",
            "/explain?table=flights&prior=[[0,null,null]]&max_scaling_iterations=5&k=2",
            b"",
        ));
        assert_eq!(resp.status, 200, "{:?}", body_json(&resp));
        let cached = body_json(&resp).get("cached").and_then(|v| v.as_bool());
        assert_eq!(cached, Some(true));
    }

    #[test]
    fn explain_routes_query_knobs() {
        let r = router();
        let (_, resp) = r.handle(&request(
            "GET",
            "/explain?table=flights&k=3&sample_size=14",
            b"",
        ));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        // The whole body: the plan's decisions, and no priced member.
        let plan = r
            .service()
            .mine("flights")
            .k(3)
            .sample_size(14)
            .explain()
            .expect("plan");
        let expected = format!(
            "{{\"table\":\"flights\",\"rows\":14,\"dims\":3,\"k\":3,\"gain_sweep\":true,\
             \"packed_bits\":64,\"estimated_iterations\":3,\"estimated_lca_pairs\":196,\
             \"cached\":false,\"rendered\":{}}}",
            json::json_string(&plan.to_string()),
        );
        assert_eq!(String::from_utf8_lossy(&resp.body), expected);
        // A query number is finite, as a JSON one is.
        for query in ["k=zap", "epsilon=nan", "epsilon=1e400"] {
            let target = format!("/explain?table=flights&{query}");
            let (_, resp) = r.handle(&request("GET", &target, b""));
            assert_eq!(resp.status, 422, "{target}");
        }
        for param in ["warp", "columnar", "packed", "gain_sweep"] {
            let target = format!("/explain?table=flights&{param}=false");
            let (_, resp) = r.handle(&request("GET", &target, b""));
            assert_eq!(resp.status, 422);
            let error = body_json(&resp);
            let text = error.get("error").and_then(|e| e.as_str()).expect("error");
            assert_eq!(text, format!("unknown query parameter {param:?}"));
        }
        let (_, resp) = r.handle(&request("GET", "/explain", b""));
        assert_eq!(resp.status, 422);
        let (_, resp) = r.handle(&request("GET", "/explain?table=nope", b""));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn tables_register_and_unregister_over_the_wire() {
        let r = router();
        let csv = b"city,color,n\nparis,red,3\nparis,blue,4\nlyon,red,5\n";
        let (_, resp) = r.handle(&request("POST", "/tables/trips", csv));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let body = body_json(&resp);
        assert_eq!(body.get("rows").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(body.get("dims").and_then(|v| v.as_u64()), Some(2));
        // Mining the uploaded table works end to end.
        let (_, resp) = r.handle(&request(
            "POST",
            "/mine",
            br#"{"table":"trips","k":1,"sample_size":3}"#,
        ));
        assert_eq!(resp.status, 200);
        // Bad uploads are typed errors, not panics.
        let (_, resp) = r.handle(&request("POST", "/tables/bad", b"\xff\xfe garbage"));
        assert_eq!(resp.status, 400);
        let (_, resp) = r.handle(&request("POST", "/tables/bad", b"only,a,header\n"));
        assert_eq!(resp.status, 400);
        let (_, resp) = r.handle(&request("POST", "/tables?other=1", csv));
        assert_eq!(resp.status, 422);
        // Unregister, then the table is gone.
        let (_, resp) = r.handle(&request("DELETE", "/tables/trips", b""));
        assert_eq!(resp.status, 200);
        let (_, resp) = r.handle(&request("DELETE", "/tables/trips", b""));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn listed_and_uploaded_fingerprints_are_the_catalog_s() {
        let r = router();
        let planned = |table: &str| {
            let plan = r.service().mine(table).explain().expect("plan");
            format!("{:016x}", plan.fingerprint)
        };
        let csv = b"city,color,n\nparis,red,3\nparis,blue,4\nlyon,red,5\n";
        let (_, resp) = r.handle(&request("POST", "/tables/trips", csv));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let uploaded = body_json(&resp);
        assert_eq!(
            uploaded.get("fingerprint").and_then(|f| f.as_str()),
            Some(planned("trips").as_str())
        );
        let (_, resp) = r.handle(&request("GET", "/tables", b""));
        let listing = body_json(&resp);
        let tables = listing
            .get("tables")
            .and_then(|t| t.as_array())
            .expect("array");
        assert_eq!(tables.len(), 2);
        for table in tables {
            let name = table.get("name").and_then(|n| n.as_str()).expect("name");
            assert_eq!(
                table.get("fingerprint").and_then(|f| f.as_str()),
                Some(planned(name).as_str()),
                "{name}"
            );
        }
    }

    #[test]
    fn stream_ingests_and_reports_model_state() {
        let r = router();
        // Codes straight from the demo table's first row.
        let table = r.service().table("flights").expect("table");
        let row: Vec<u32> = table.row(0).to_vec();
        let body = format!(
            "{{\"rows\":[{{\"codes\":[{},{},{}],\"measure\":5.0}}],\"mine_more\":1}}",
            row[0], row[1], row[2]
        );
        let (ep, resp) = r.handle(&request("POST", "/stream/flights", body.as_bytes()));
        assert_eq!((ep, resp.status), (Endpoint::Stream, 200));
        let parsed = body_json(&resp);
        assert_eq!(parsed.get("rows").and_then(|v| v.as_u64()), Some(15));
        // Hostile stream bodies are typed errors.
        let (_, resp) = r.handle(&request("POST", "/stream/flights", b"{\"rows\":[{}]}"));
        assert_eq!(resp.status, 422);
        let (_, resp) = r.handle(&request("POST", "/stream/nope", b"{}"));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn replacing_a_table_reseeds_its_stream() {
        // Regression: only DELETE dropped the server-held stream, so a
        // re-uploaded table kept streaming into the old rows and refused
        // codes the new dictionaries had interned.
        let r = router();
        let rows = |resp: &Response| body_json(resp).get("rows").and_then(|v| v.as_u64());
        let (_, resp) = r.handle(&request("POST", "/tables/t", b"city,m\nA,1\nB,2\n"));
        assert_eq!(resp.status, 200);
        let (_, resp) = r.handle(&request("POST", "/stream/t", b"{\"rows\":[]}"));
        assert_eq!((resp.status, rows(&resp)), (200, Some(2)));
        let csv = b"city,m\nA,1\nB,2\nC,3\nC,4\n";
        let (_, resp) = r.handle(&request("POST", "/tables/t", csv));
        assert_eq!(resp.status, 200);
        let (_, resp) = r.handle(&request("POST", "/stream/t", b"{\"rows\":[]}"));
        assert_eq!((resp.status, rows(&resp)), (200, Some(4)));
        // Code 2 ("C") exists only in the new table's dictionary.
        let body = b"{\"rows\":[{\"codes\":[2],\"measure\":2.0}]}";
        let (_, resp) = r.handle(&request("POST", "/stream/t", body));
        assert_eq!((resp.status, rows(&resp)), (200, Some(5)));
    }

    #[test]
    fn unknown_routes_and_methods_are_typed() {
        let r = router();
        let (ep, resp) = r.handle(&request("GET", "/warp", b""));
        assert_eq!((ep, resp.status), (Endpoint::Other, 404));
        let (ep, resp) = r.handle(&request("PATCH", "/tables", b""));
        assert_eq!((ep, resp.status), (Endpoint::Other, 405));
        let (_, resp) = r.handle(&request("POST", "/health", b""));
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn metrics_endpoint_reports_endpoint_counters() {
        let r = router();
        let (ep, resp) = r.handle(&request("GET", "/metrics", b""));
        assert_eq!((ep, resp.status), (Endpoint::Metrics, 200));
        let body = body_json(&resp);
        assert!(body.get("endpoints").and_then(|e| e.get("mine")).is_some());
        assert!(body
            .get("memory")
            .and_then(|m| m.get("evictions"))
            .is_some());
    }
}
